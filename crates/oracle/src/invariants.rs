//! The standard conformance invariants.
//!
//! Each checker is deliberately independent of the simulation crates it
//! judges: it re-derives the expected behaviour from first principles
//! (the paper's §II/§III algebra) so a bug in the implementation cannot
//! hide inside the oracle too.

use crate::{Invariant, Observation};
use std::collections::{BTreeMap, BTreeSet};
use tsn_metrics::{drift_offset, precision_bound, ExperimentEvent, ViolationLog};
use tsn_time::{Nanos, Ppb, SimTime, SyncState};

/// Extra oscillator-rate allowance for `CLOCK_SYNCTIME` continuity on
/// top of the servo's frequency clamp (covers host/PHC oscillator
/// deviation, which the servo clamp does not include).
const OSC_MARGIN_PPB: f64 = 200_000.0;

/// Fixed slack for rounding in the continuity budget.
const CONTINUITY_MARGIN_NS: i64 = 1_000;

/// Event-queue causality: dispatch times never decrease (paper's
/// deterministic discrete-event model — an event handled before the
/// current time would rewrite history).
#[derive(Debug, Default)]
pub struct EventCausality {
    last: Option<SimTime>,
}

impl EventCausality {
    /// Creates the checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Invariant for EventCausality {
    fn name(&self) -> &'static str {
        "event-causality"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        if let Observation::Event { at, .. } = obs {
            if let Some(prev) = self.last {
                if *at < prev {
                    log.record(
                        *at,
                        self.name(),
                        "world.queue",
                        format!(
                            "event dispatched at t={}ns after t={}ns",
                            at.as_nanos(),
                            prev.as_nanos()
                        ),
                    );
                }
            }
            self.last = Some(self.last.map_or(*at, |p| p.max(*at)));
        }
    }
}

/// `CLOCK_SYNCTIME` monotonicity and continuity (paper §III-B): after
/// warm-up the virtual clock may never jump backwards by more than the
/// phc2sys step threshold, and between two readings it must advance at
/// most `step + (clamp + oscillator margin) · Δt` away from true time's
/// advance — takeovers included.
#[derive(Debug)]
pub struct SynctimeContinuity {
    warmup: SimTime,
    step: Nanos,
    slew_ppb: Ppb,
    last: Vec<Option<(SimTime, i64)>>,
}

impl SynctimeContinuity {
    /// Creates the checker. `step` is the phc2sys step threshold (20 µs
    /// in the paper) and `slew_ppb` the servo frequency clamp.
    pub fn new(warmup: SimTime, step: Nanos, slew_ppb: Ppb) -> Self {
        SynctimeContinuity {
            warmup,
            step,
            slew_ppb,
            last: Vec::new(),
        }
    }
}

impl Invariant for SynctimeContinuity {
    fn name(&self) -> &'static str {
        "synctime-continuity"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        let Observation::Synctime {
            at,
            node,
            synctime_ns,
        } = obs
        else {
            return;
        };
        if *at < self.warmup {
            return; // the servo may legitimately step while converging
        }
        if self.last.len() <= *node {
            self.last.resize(*node + 1, None);
        }
        if let Some((t0, s0)) = self.last[*node] {
            let dt = at.as_nanos() as i64 - t0.as_nanos() as i64;
            let ds = *synctime_ns - s0;
            let back_allowance = self.step.as_nanos() + CONTINUITY_MARGIN_NS;
            let budget = back_allowance
                + ((dt as f64) * (self.slew_ppb + OSC_MARGIN_PPB) * 1e-9).ceil() as i64;
            if ds < -back_allowance {
                log.record(
                    *at,
                    "synctime-monotonic",
                    format!("node{node}.synctime"),
                    format!(
                        "clock jumped backwards by {}ns (> {}ns step allowance)",
                        -ds, back_allowance
                    ),
                );
            } else if (ds - dt).abs() > budget {
                log.record(
                    *at,
                    self.name(),
                    format!("node{node}.synctime"),
                    format!(
                        "clock advanced {ds}ns over {dt}ns of true time \
                         (|Δ|={}ns exceeds budget {}ns)",
                        (ds - dt).abs(),
                        budget
                    ),
                );
            }
        }
        self.last[*node] = Some((*at, *synctime_ns));
    }
}

/// Frame conservation across egress queues: every frame that enters a
/// NIC/switch egress queue is eventually popped or still resides in the
/// queue at the end of the run, behind a frame still on the wire, and
/// every popped frame is delivered onto the wire or explicitly dropped
/// (dead source VM).
#[derive(Debug, Default)]
pub struct FrameConservation {
    enqueued: u64,
    popped: u64,
    delivered_from_queue: u64,
    dropped_from_queue: u64,
    /// `(at, residual, stalled)` of the `RunEnd` observation.
    residual: Option<(SimTime, u64, u64)>,
}

impl FrameConservation {
    /// Creates the checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Invariant for FrameConservation {
    fn name(&self) -> &'static str {
        "frame-conservation"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        let _ = log;
        match obs {
            Observation::FrameEnqueued { .. } => self.enqueued += 1,
            Observation::FramePopped { .. } => self.popped += 1,
            Observation::FrameDelivered {
                from_queue: true, ..
            } => self.delivered_from_queue += 1,
            Observation::FrameDropped {
                from_queue: true, ..
            } => self.dropped_from_queue += 1,
            Observation::RunEnd {
                at,
                residual_frames,
                stalled_frames,
            } => self.residual = Some((*at, *residual_frames, *stalled_frames)),
            _ => {}
        }
    }

    fn finish(&mut self, log: &mut ViolationLog) {
        let Some((at, residual, stalled)) = self.residual else {
            // No RunEnd observation: nothing was queued, nothing to judge.
            if self.enqueued > 0 {
                log.record(
                    SimTime::ZERO,
                    self.name(),
                    "world.egress",
                    format!(
                        "{} frames enqueued but no end-of-run residual was reported",
                        self.enqueued
                    ),
                );
            }
            return;
        };
        if self.enqueued != self.popped + residual {
            log.record(
                at,
                self.name(),
                "world.egress",
                format!(
                    "enqueued={} != popped={} + residual={}",
                    self.enqueued, self.popped, residual
                ),
            );
        }
        if stalled > 0 {
            log.record(
                at,
                self.name(),
                "world.egress",
                format!("{stalled} frame(s) queued behind an idle wire: a lost wake-up"),
            );
        }
        if self.popped != self.delivered_from_queue + self.dropped_from_queue {
            log.record(
                at,
                self.name(),
                "world.egress",
                format!(
                    "popped={} != delivered={} + dropped={}",
                    self.popped, self.delivered_from_queue, self.dropped_from_queue
                ),
            );
        }
    }
}

/// Frame conservation across the multi-hop switch fabric: every
/// protected frame that enters the fabric is either forwarded end to
/// end or explicitly dropped at a saturated hop, and the per-crossing
/// tallies must match the end-of-run fabric counters. The fabric holds
/// no frames between events (traversal is computed analytically at
/// departure), so there is no fabric residual term.
#[derive(Debug, Default)]
pub struct FabricConservation {
    forwarded: u64,
    dropped: u64,
    totals: Option<(SimTime, u64, u64)>,
}

impl FabricConservation {
    /// Creates the checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Invariant for FabricConservation {
    fn name(&self) -> &'static str {
        "fabric-conservation"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        let _ = log;
        match obs {
            Observation::FabricCrossing { dropped, .. } => {
                if *dropped {
                    self.dropped += 1;
                } else {
                    self.forwarded += 1;
                }
            }
            Observation::FabricTotals {
                at,
                forwarded,
                dropped,
            } => self.totals = Some((*at, *forwarded, *dropped)),
            _ => {}
        }
    }

    fn finish(&mut self, log: &mut ViolationLog) {
        let Some((at, forwarded, dropped)) = self.totals else {
            if self.forwarded + self.dropped > 0 {
                log.record(
                    SimTime::ZERO,
                    self.name(),
                    "world.fabric",
                    format!(
                        "{} fabric crossings observed but no end-of-run totals were reported",
                        self.forwarded + self.dropped
                    ),
                );
            }
            return;
        };
        if self.forwarded != forwarded {
            log.record(
                at,
                self.name(),
                "world.fabric",
                format!(
                    "observed forwarded={} != counter forwarded={}",
                    self.forwarded, forwarded
                ),
            );
        }
        if self.dropped != dropped {
            log.record(
                at,
                self.name(),
                "world.fabric",
                format!(
                    "observed dropped={} != counter dropped={}",
                    self.dropped, dropped
                ),
            );
        }
    }
}

/// FTA containment (paper §II, Kopetz–Ochsenreiter): whenever at most
/// `f` of the inputs come from Byzantine-marked domains, the
/// fault-tolerant aggregate must lie within the range of the honest
/// inputs (±1 ns for the round-half-away-from-zero average).
#[derive(Debug)]
pub struct FtaContainment {
    f: Option<usize>,
}

impl FtaContainment {
    /// Creates the checker; `f` is the trim degree of the active
    /// aggregation method (`None` disables the check for the Mean and
    /// Median ablations, which claim no Byzantine masking).
    pub fn new(f: Option<usize>) -> Self {
        FtaContainment { f }
    }
}

impl Invariant for FtaContainment {
    fn name(&self) -> &'static str {
        "fta-containment"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        let Observation::Aggregated {
            at,
            node,
            offset,
            fault_tolerant,
            used,
            byzantine,
            ..
        } = obs
        else {
            return;
        };
        let Some(f) = self.f else { return };
        if !fault_tolerant || used.len() < 2 * f + 1 {
            // Startup mode follows a single domain; no containment claim.
            return;
        }
        let honest: Vec<Nanos> = used
            .iter()
            .filter(|(d, _)| !byzantine.get(*d).copied().unwrap_or(false))
            .map(|(_, o)| *o)
            .collect();
        let byz = used.len() - honest.len();
        if byz > f || honest.is_empty() {
            return; // more faults than the FTA masks — nothing is claimed
        }
        let lo = *honest.iter().min().expect("nonempty") - Nanos::from_nanos(1);
        let hi = *honest.iter().max().expect("nonempty") + Nanos::from_nanos(1);
        if *offset < lo || *offset > hi {
            log.record(
                *at,
                self.name(),
                format!("node{node}.aggregator"),
                format!(
                    "aggregate {}ns outside honest range [{}ns, {}ns] \
                     (f={f}, byzantine={byz}, inputs={:?})",
                    offset.as_nanos(),
                    lo.as_nanos() + 1,
                    hi.as_nanos() - 1,
                    used.iter()
                        .map(|(d, o)| (*d, o.as_nanos()))
                        .collect::<Vec<_>>()
                ),
            );
        }
    }
}

/// Servo clamp respect: no frequency correction may exceed the
/// configured clamp (paper: ±900 ppm, matching `phc2sys`).
#[derive(Debug)]
pub struct ServoClamp {
    max_ppb: Ppb,
}

impl ServoClamp {
    /// Creates the checker for a `±max_ppb` clamp.
    pub fn new(max_ppb: Ppb) -> Self {
        ServoClamp { max_ppb }
    }
}

impl Invariant for ServoClamp {
    fn name(&self) -> &'static str {
        "servo-clamp"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        if let Observation::Aggregated {
            at,
            node,
            slot,
            servo,
            ..
        } = obs
        {
            let Some(freq_adj_ppb) = servo.freq_adj_ppb() else {
                return;
            };
            if freq_adj_ppb.abs() > self.max_ppb + 0.5 {
                log.record(
                    *at,
                    self.name(),
                    format!("node{node}.vm{slot}.servo"),
                    format!(
                        "frequency correction {freq_adj_ppb} ppb exceeds clamp ±{} ppb",
                        self.max_ppb
                    ),
                );
            }
        }
    }
}

/// Bound-algebra consistency (paper §III-A3): the Π reported in run
/// artifacts must equal `u(N,f) · (E + Γ)` recomputed from the same
/// configuration, with `E = d_max − d_min` and `Γ = 2 · r_max · S`.
#[derive(Debug, Default)]
pub struct BoundAlgebra;

impl BoundAlgebra {
    /// Creates the checker.
    pub fn new() -> Self {
        BoundAlgebra
    }
}

impl Invariant for BoundAlgebra {
    fn name(&self) -> &'static str {
        "bound-algebra"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        let Observation::Bounds {
            at,
            n,
            f,
            r_max_ppb,
            sync_interval,
            d_min,
            d_max,
            reading_error,
            drift_offset: gamma,
            pi,
        } = obs
        else {
            return;
        };
        let e = *d_max - *d_min;
        if e != *reading_error {
            log.record(
                *at,
                self.name(),
                "world.bounds",
                format!(
                    "reading error E={}ns but d_max−d_min={}ns",
                    reading_error.as_nanos(),
                    e.as_nanos()
                ),
            );
        }
        let expected_gamma = drift_offset(*r_max_ppb, *sync_interval);
        if expected_gamma != *gamma {
            log.record(
                *at,
                self.name(),
                "world.bounds",
                format!(
                    "drift offset Γ={}ns but 2·r_max·S={}ns",
                    gamma.as_nanos(),
                    expected_gamma.as_nanos()
                ),
            );
        }
        let expected_pi = precision_bound(*n, *f, e, expected_gamma);
        if expected_pi != *pi {
            log.record(
                *at,
                self.name(),
                "world.bounds",
                format!(
                    "Π={}ns but u({n},{f})·(E+Γ)={}ns",
                    pi.as_nanos(),
                    expected_pi.as_nanos()
                ),
            );
        }
    }
}

/// Degradation-machine legality: every emitted transition must be a
/// defined edge of the `SyncState` machine (Synchronized → Holdover,
/// Holdover → Freerun, Holdover/Freerun → Synchronized). A VM restart
/// resets the machine *silently*, so observed transitions need not chain
/// onto each other — but each individual edge must be legal.
#[derive(Debug, Default)]
pub struct SyncStateLegality;

impl SyncStateLegality {
    /// Creates the checker.
    pub fn new() -> Self {
        SyncStateLegality
    }
}

impl Invariant for SyncStateLegality {
    fn name(&self) -> &'static str {
        "sync-state-legality"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        let Observation::Logged {
            at,
            event:
                ExperimentEvent::SyncStateChange {
                    node,
                    slot,
                    from,
                    to,
                },
        } = obs
        else {
            return;
        };
        if !from.can_transition_to(*to) {
            log.record(
                *at,
                self.name(),
                format!("node{node}.vm{slot}.aggregator"),
                format!("illegal degradation edge {from} -> {to}"),
            );
        }
    }
}

/// Bounded coasting (holdover drift): while every aggregator of a node
/// that has ever reported a transition sits in Holdover, the node's
/// `CLOCK_SYNCTIME` holds the last PI frequency estimate — so over the
/// *whole* holdover span its advance may deviate from true time by at
/// most one step allowance plus `(clamp + oscillator margin) · Δt`.
/// Unlike [`SynctimeContinuity`] (which re-grants the step allowance on
/// every reading pair), this budget is cumulative from holdover entry.
/// Freerun claims nothing.
#[derive(Debug)]
pub struct HoldoverDrift {
    warmup: SimTime,
    step: Nanos,
    slew_ppb: Ppb,
    /// Last reported state per `(node, slot)`.
    states: BTreeMap<(usize, usize), SyncState>,
    /// Per node: first synctime reading observed while coasting.
    baseline: BTreeMap<usize, (SimTime, i64)>,
}

impl HoldoverDrift {
    /// Creates the checker. `step` is the phc2sys step threshold and
    /// `slew_ppb` the servo frequency clamp.
    pub fn new(warmup: SimTime, step: Nanos, slew_ppb: Ppb) -> Self {
        HoldoverDrift {
            warmup,
            step,
            slew_ppb,
            states: BTreeMap::new(),
            baseline: BTreeMap::new(),
        }
    }

    /// `true` while every tracked slot of `node` is in Holdover (and at
    /// least one is tracked).
    fn coasting(&self, node: usize) -> bool {
        let mut any = false;
        for ((n, _), s) in &self.states {
            if *n == node {
                if *s != SyncState::Holdover {
                    return false;
                }
                any = true;
            }
        }
        any
    }
}

impl Invariant for HoldoverDrift {
    fn name(&self) -> &'static str {
        "holdover-drift"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        match obs {
            Observation::Logged {
                event: ExperimentEvent::SyncStateChange { node, slot, to, .. },
                ..
            } => {
                self.states.insert((*node, *slot), *to);
                if !self.coasting(*node) {
                    self.baseline.remove(node);
                }
            }
            Observation::Synctime {
                at,
                node,
                synctime_ns,
            } => {
                if *at < self.warmup || !self.coasting(*node) {
                    return;
                }
                let Some((t0, s0)) = self.baseline.get(node).copied() else {
                    self.baseline.insert(*node, (*at, *synctime_ns));
                    return;
                };
                let dt = at.as_nanos() as i64 - t0.as_nanos() as i64;
                let ds = *synctime_ns - s0;
                let budget = self.step.as_nanos()
                    + CONTINUITY_MARGIN_NS
                    + ((dt as f64) * (self.slew_ppb + OSC_MARGIN_PPB) * 1e-9).ceil() as i64;
                if (ds - dt).abs() > budget {
                    log.record(
                        *at,
                        self.name(),
                        format!("node{node}.synctime"),
                        format!(
                            "holdover drift {}ns over {dt}ns of coasting \
                             exceeds budget {budget}ns",
                            (ds - dt).abs()
                        ),
                    );
                    // Re-anchor so one runaway reading yields one record,
                    // not one per subsequent reading.
                    self.baseline.insert(*node, (*at, *synctime_ns));
                }
            }
            _ => {}
        }
    }
}

/// Election safety: at most one acting grandmaster per domain, modulo a
/// bounded hand-over window. BMCA role transitions are not atomic — the
/// old master keeps announcing until it hears a better vector — so two
/// acting masters may legitimately overlap, but only for at most the
/// configured convergence bound. A persistent dual-master split means
/// the election diverged.
#[derive(Debug)]
pub struct AtMostOneActingMaster {
    bound: Nanos,
    /// Current acting masters per domain.
    acting: BTreeMap<usize, BTreeSet<usize>>,
    /// When a domain first entered a multi-master overlap.
    overlap_since: BTreeMap<usize, SimTime>,
    /// Domains already reported (one record per overlap episode).
    flagged: BTreeSet<usize>,
    last_at: Option<SimTime>,
}

impl AtMostOneActingMaster {
    /// Creates the checker; `bound` is the allowed hand-over overlap.
    pub fn new(bound: Nanos) -> Self {
        AtMostOneActingMaster {
            bound,
            acting: BTreeMap::new(),
            overlap_since: BTreeMap::new(),
            flagged: BTreeSet::new(),
            last_at: None,
        }
    }

    fn judge(&mut self, now: SimTime, log: &mut ViolationLog) {
        for (domain, since) in &self.overlap_since {
            let held = now.as_nanos() as i64 - since.as_nanos() as i64;
            if held > self.bound.as_nanos() && self.flagged.insert(*domain) {
                let nodes: Vec<usize> = self
                    .acting
                    .get(domain)
                    .into_iter()
                    .flatten()
                    .copied()
                    .collect();
                log.record(
                    now,
                    self.name(),
                    format!("domain{domain}.election"),
                    format!(
                        "nodes {nodes:?} all acting as grandmaster for {held}ns \
                         (> {}ns convergence bound)",
                        self.bound.as_nanos()
                    ),
                );
            }
        }
    }
}

impl Invariant for AtMostOneActingMaster {
    fn name(&self) -> &'static str {
        "election-at-most-one-master"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        let at = match obs {
            Observation::ElectionActing {
                at,
                domain,
                node,
                acting,
            } => {
                let set = self.acting.entry(*domain).or_default();
                if *acting {
                    set.insert(*node);
                } else {
                    set.remove(node);
                }
                if set.len() > 1 {
                    self.overlap_since.entry(*domain).or_insert(*at);
                } else {
                    self.overlap_since.remove(domain);
                    self.flagged.remove(domain);
                }
                *at
            }
            Observation::GmKilled { at, .. } | Observation::RunEnd { at, .. } => *at,
            _ => return,
        };
        self.last_at = Some(self.last_at.map_or(at, |p| p.max(at)));
        self.judge(at, log);
    }

    fn finish(&mut self, log: &mut ViolationLog) {
        if let Some(at) = self.last_at {
            self.judge(at, log);
        }
    }
}

/// Election liveness: after the scenario kills a domain's acting
/// grandmaster, a replacement must start acting within the configured
/// convergence bound (announce-receipt timeout plus BMCA settling).
#[derive(Debug)]
pub struct ElectionConvergence {
    bound: Nanos,
    /// Unresolved kills: domain → kill time.
    pending: BTreeMap<usize, SimTime>,
    end: Option<SimTime>,
}

impl ElectionConvergence {
    /// Creates the checker; `bound` is the re-election deadline.
    pub fn new(bound: Nanos) -> Self {
        ElectionConvergence {
            bound,
            pending: BTreeMap::new(),
            end: None,
        }
    }
}

impl Invariant for ElectionConvergence {
    fn name(&self) -> &'static str {
        "election-convergence"
    }

    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog) {
        match obs {
            Observation::GmKilled { at, domain } => {
                self.pending.entry(*domain).or_insert(*at);
            }
            Observation::ElectionActing {
                at,
                domain,
                acting: true,
                ..
            } => {
                if let Some(killed) = self.pending.remove(domain) {
                    let took = at.as_nanos() as i64 - killed.as_nanos() as i64;
                    if took > self.bound.as_nanos() {
                        log.record(
                            *at,
                            self.name(),
                            format!("domain{domain}.election"),
                            format!(
                                "re-election took {took}ns after grandmaster kill \
                                 (> {}ns convergence bound)",
                                self.bound.as_nanos()
                            ),
                        );
                    }
                }
            }
            Observation::RunEnd { at, .. } => self.end = Some(*at),
            _ => {}
        }
    }

    fn finish(&mut self, log: &mut ViolationLog) {
        let Some(end) = self.end else { return };
        for (domain, killed) in &self.pending {
            let waited = end.as_nanos() as i64 - killed.as_nanos() as i64;
            if waited > self.bound.as_nanos() {
                log.record(
                    end,
                    self.name(),
                    format!("domain{domain}.election"),
                    format!(
                        "no replacement grandmaster acted within {waited}ns of the \
                         kill (> {}ns convergence bound)",
                        self.bound.as_nanos()
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleConfig, OracleRegistry};
    use tsn_time::ServoOutput;

    fn log() -> ViolationLog {
        ViolationLog::new()
    }

    #[test]
    fn causality_accepts_monotone_dispatch() {
        let mut inv = EventCausality::new();
        let mut l = log();
        for s in [1u64, 2, 2, 5] {
            inv.observe(
                &Observation::Event {
                    at: SimTime::from_secs(s),
                    kind: "transmit",
                    sub: crate::Subsystem::Netsim,
                },
                &mut l,
            );
        }
        assert!(l.is_empty());
    }

    #[test]
    fn causality_flags_time_reversal() {
        let mut inv = EventCausality::new();
        let mut l = log();
        for s in [3, 2] {
            inv.observe(
                &Observation::Event {
                    at: SimTime::from_secs(s),
                    kind: "transmit",
                    sub: crate::Subsystem::Netsim,
                },
                &mut l,
            );
        }
        assert_eq!(l.len(), 1);
        assert!(l.records()[0].witness.contains("after"));
    }

    fn synctime(at_ms: u64, node: usize, synctime_ns: i64) -> Observation<'static> {
        Observation::Synctime {
            at: SimTime::from_millis(at_ms),
            node,
            synctime_ns,
        }
    }

    #[test]
    fn synctime_accepts_disciplined_advance() {
        let mut inv = SynctimeContinuity::new(SimTime::ZERO, Nanos::from_micros(20), 900_000.0);
        let mut l = log();
        // 10 ms period, 500 ppm fast: well inside the budget.
        for i in 0..100i64 {
            let t = i * 10_000_000;
            inv.observe(&synctime((i as u64) * 10, 0, t + t / 2_000), &mut l);
        }
        assert!(l.is_empty(), "{:?}", l.records());
    }

    #[test]
    fn synctime_flags_forward_discontinuity() {
        let mut inv = SynctimeContinuity::new(SimTime::ZERO, Nanos::from_micros(20), 900_000.0);
        let mut l = log();
        inv.observe(&synctime(0, 2, 0), &mut l);
        // 10 ms later the clock claims to have advanced 10 ms + 50 µs.
        inv.observe(&synctime(10, 2, 10_050_000), &mut l);
        assert_eq!(l.len(), 1);
        assert_eq!(l.records()[0].invariant, "synctime-continuity");
        assert!(l.records()[0].component.contains("node2"));
    }

    #[test]
    fn synctime_flags_backward_jump() {
        let mut inv = SynctimeContinuity::new(SimTime::ZERO, Nanos::from_micros(20), 900_000.0);
        let mut l = log();
        inv.observe(&synctime(0, 0, 0), &mut l);
        inv.observe(&synctime(10, 0, -30_000), &mut l);
        assert_eq!(l.len(), 1);
        assert_eq!(l.records()[0].invariant, "synctime-monotonic");
    }

    #[test]
    fn synctime_ignores_warmup_convergence() {
        let mut inv =
            SynctimeContinuity::new(SimTime::from_secs(1), Nanos::from_micros(20), 900_000.0);
        let mut l = log();
        inv.observe(&synctime(0, 0, 0), &mut l);
        inv.observe(&synctime(500, 0, 400_000_000), &mut l); // wild, but pre-warmup
        inv.observe(&synctime(1_000, 0, 1_000_000_000), &mut l);
        inv.observe(&synctime(1_010, 0, 1_010_001_000), &mut l);
        assert!(l.is_empty(), "{:?}", l.records());
    }

    #[test]
    fn conservation_accepts_balanced_books() {
        let mut inv = FrameConservation::new();
        let mut l = log();
        let t = SimTime::from_secs(1);
        for _ in 0..3 {
            inv.observe(&Observation::FrameEnqueued { at: t }, &mut l);
        }
        for _ in 0..2 {
            inv.observe(&Observation::FramePopped { at: t }, &mut l);
        }
        let delivered = |from_queue| Observation::FrameDelivered {
            at: t,
            from_queue,
            station: None,
            ethertype: 0x88f7,
            payload: &[],
        };
        inv.observe(&delivered(true), &mut l);
        inv.observe(
            &Observation::FrameDropped {
                at: t,
                from_queue: true,
            },
            &mut l,
        );
        // Direct (never-queued) departures don't enter the ledger.
        inv.observe(&delivered(false), &mut l);
        inv.observe(
            &Observation::RunEnd {
                at: t,
                residual_frames: 1,
                stalled_frames: 0,
            },
            &mut l,
        );
        inv.finish(&mut l);
        assert!(l.is_empty(), "{:?}", l.records());
    }

    #[test]
    fn conservation_flags_lost_frames() {
        let mut inv = FrameConservation::new();
        let mut l = log();
        let t = SimTime::from_secs(1);
        for _ in 0..3 {
            inv.observe(&Observation::FrameEnqueued { at: t }, &mut l);
        }
        inv.observe(&Observation::FramePopped { at: t }, &mut l);
        inv.observe(
            &Observation::RunEnd {
                at: t,
                residual_frames: 0,
                stalled_frames: 0,
            },
            &mut l,
        );
        inv.finish(&mut l);
        // Two frames vanished from the queue, and the popped one was
        // neither delivered nor dropped.
        assert_eq!(l.len(), 2);
        assert!(l.records()[0].witness.contains("enqueued=3"));
    }

    /// Feeds `forwarded` + `dropped` crossings and, if given, the
    /// end-of-run totals `(forwarded, dropped)`; returns the log.
    fn fabric_books(forwarded: u64, dropped: u64, totals: Option<(u64, u64)>) -> ViolationLog {
        let mut inv = FabricConservation::new();
        let mut l = log();
        let at = SimTime::from_secs(1);
        for i in 0..forwarded + dropped {
            let dropped = i >= forwarded;
            let crossing = Observation::FabricCrossing {
                at,
                from_sw: 0,
                to_sw: 1,
                sync: false,
                dropped,
                delay: Nanos::ZERO,
                residence_ns: 0,
            };
            inv.observe(&crossing, &mut l);
        }
        if let Some((forwarded, dropped)) = totals {
            let at = SimTime::from_secs(2);
            inv.observe(
                &Observation::FabricTotals {
                    at,
                    forwarded,
                    dropped,
                },
                &mut l,
            );
        }
        inv.finish(&mut l);
        l
    }

    #[test]
    fn fabric_conservation_accepts_matching_totals() {
        assert!(fabric_books(5, 2, Some((5, 2))).is_empty());
        // A run without a fabric reports nothing and observes nothing.
        assert!(fabric_books(0, 0, None).is_empty());
    }

    #[test]
    fn fabric_conservation_flags_a_withheld_crossing() {
        let l = fabric_books(4, 2, Some((5, 2)));
        assert_eq!(l.len(), 1);
        let v = &l.records()[0];
        assert_eq!(v.witness, "observed forwarded=4 != counter forwarded=5");
        assert_eq!(v.at, SimTime::from_secs(2));
    }

    #[test]
    fn fabric_conservation_flags_crossings_without_totals() {
        let l = fabric_books(3, 1, None);
        assert_eq!(l.len(), 1);
        assert!(
            l.records()[0].witness.contains("no end-of-run totals"),
            "{}",
            l.records()[0].witness
        );
    }

    fn aggregated<'a>(
        offset: i64,
        used: &'a [(usize, Nanos)],
        byzantine: &'a [bool],
    ) -> Observation<'a> {
        Observation::Aggregated {
            at: SimTime::from_secs(2),
            node: 1,
            slot: 0,
            offset: Nanos::from_nanos(offset),
            servo: ServoOutput::Gathering,
            fault_tolerant: true,
            used,
            byzantine,
        }
    }

    #[test]
    fn containment_accepts_aggregate_in_honest_range() {
        let used = [
            (0, Nanos::from_nanos(100)),
            (1, Nanos::from_nanos(900_000)), // Byzantine outlier
            (2, Nanos::from_nanos(200)),
            (3, Nanos::from_nanos(300)),
        ];
        let byz = [false, true, false, false];
        let mut inv = FtaContainment::new(Some(1));
        let mut l = log();
        inv.observe(&aggregated(250, &used, &byz), &mut l);
        assert!(l.is_empty());
    }

    #[test]
    fn containment_flags_aggregate_outside_honest_range() {
        let used = [
            (0, Nanos::from_nanos(100)),
            (1, Nanos::from_nanos(900_000)),
            (2, Nanos::from_nanos(200)),
            (3, Nanos::from_nanos(300)),
        ];
        let byz = [false, true, false, false];
        let mut inv = FtaContainment::new(Some(1));
        let mut l = log();
        inv.observe(&aggregated(225_150, &used, &byz), &mut l);
        assert_eq!(l.len(), 1);
        let rec = &l.records()[0];
        assert_eq!(rec.invariant, "fta-containment");
        assert_eq!(rec.component, "node1.aggregator");
        assert!(rec.witness.contains("225150"));
        assert!(rec.witness.contains("[100ns, 300ns]"));
    }

    #[test]
    fn containment_claims_nothing_beyond_f_faults() {
        let used = [
            (0, Nanos::from_nanos(500_000)),
            (1, Nanos::from_nanos(900_000)),
            (2, Nanos::from_nanos(200)),
            (3, Nanos::from_nanos(300)),
        ];
        let byz = [true, true, false, false]; // 2 > f = 1
        let mut inv = FtaContainment::new(Some(1));
        let mut l = log();
        inv.observe(&aggregated(700_000, &used, &byz), &mut l);
        assert!(l.is_empty());
    }

    #[test]
    fn containment_skips_non_fault_tolerant_modes() {
        let used = [(0, Nanos::from_nanos(100)), (1, Nanos::from_nanos(200))];
        let byz = [false, false];
        let mut l = log();
        // Startup mode claims nothing.
        let mut inv = FtaContainment::new(Some(1));
        inv.observe(
            &Observation::Aggregated {
                at: SimTime::from_secs(1),
                node: 0,
                slot: 0,
                offset: Nanos::from_nanos(10_000),
                servo: ServoOutput::Gathering,
                fault_tolerant: false,
                used: &used,
                byzantine: &byz,
            },
            &mut l,
        );
        // Mean/Median ablations claim nothing either.
        let mut ablation = FtaContainment::new(None);
        ablation.observe(&aggregated(10_000, &used, &byz), &mut l);
        assert!(l.is_empty());
    }

    fn servo(node: usize, slot: usize, servo: ServoOutput) -> Observation<'static> {
        Observation::Aggregated {
            at: SimTime::from_secs(1),
            node,
            slot,
            offset: Nanos::ZERO,
            servo,
            fault_tolerant: false,
            used: &[],
            byzantine: &[],
        }
    }

    #[test]
    fn clamp_accepts_corrections_inside_range() {
        let mut inv = ServoClamp::new(900_000.0);
        let mut l = log();
        let freq_adj_ppb = -900_000.0;
        inv.observe(&servo(0, 1, ServoOutput::Adjust { freq_adj_ppb }), &mut l);
        // A gathering servo commands nothing.
        inv.observe(&servo(0, 1, ServoOutput::Gathering), &mut l);
        assert!(l.is_empty());
    }

    #[test]
    fn clamp_flags_excessive_correction() {
        let mut inv = ServoClamp::new(900_000.0);
        let mut l = log();
        let step = ServoOutput::Step {
            delta: Nanos::from_micros(30),
            freq_adj_ppb: 905_000.0,
        };
        inv.observe(&servo(3, 0, step), &mut l);
        assert_eq!(l.len(), 1);
        assert_eq!(l.records()[0].component, "node3.vm0.servo");
    }

    fn bounds_obs(pi_ns: i64) -> Observation<'static> {
        // The paper's experiment-1 numbers: E = 5068 ns, Γ = 1250 ns,
        // Π = 2(E + Γ) = 12636 ns.
        Observation::Bounds {
            at: SimTime::from_secs(60),
            n: 4,
            f: 1,
            r_max_ppb: 5_000.0,
            sync_interval: Nanos::from_millis(125),
            d_min: Nanos::from_nanos(4_120),
            d_max: Nanos::from_nanos(9_188),
            reading_error: Nanos::from_nanos(5_068),
            drift_offset: Nanos::from_nanos(1_250),
            pi: Nanos::from_nanos(pi_ns),
        }
    }

    #[test]
    fn bound_algebra_accepts_consistent_report() {
        let mut inv = BoundAlgebra::new();
        let mut l = log();
        inv.observe(&bounds_obs(12_636), &mut l);
        assert!(l.is_empty(), "{:?}", l.records());
    }

    #[test]
    fn bound_algebra_flags_tampered_pi() {
        let mut inv = BoundAlgebra::new();
        let mut l = log();
        inv.observe(&bounds_obs(12_000), &mut l);
        assert_eq!(l.len(), 1);
        assert!(l.records()[0].witness.contains("12636"));
    }

    fn transition(
        at_s: u64,
        node: usize,
        slot: usize,
        from: SyncState,
        to: SyncState,
    ) -> Observation<'static> {
        Observation::Logged {
            at: SimTime::from_secs(at_s),
            event: ExperimentEvent::SyncStateChange {
                node,
                slot,
                from,
                to,
            },
        }
    }

    #[test]
    fn legality_accepts_machine_edges() {
        let mut inv = SyncStateLegality::new();
        let mut l = log();
        let s = SyncState::Synchronized;
        let h = SyncState::Holdover;
        let f = SyncState::Freerun;
        for (from, to) in [(s, h), (h, f), (h, s), (f, s)] {
            inv.observe(&transition(1, 0, 0, from, to), &mut l);
        }
        assert!(l.is_empty(), "{:?}", l.records());
    }

    #[test]
    fn legality_flags_undefined_edges() {
        let mut inv = SyncStateLegality::new();
        let mut l = log();
        // Synchronized may never jump straight to Freerun.
        inv.observe(
            &transition(2, 1, 0, SyncState::Synchronized, SyncState::Freerun),
            &mut l,
        );
        assert_eq!(l.len(), 1);
        assert_eq!(l.records()[0].invariant, "sync-state-legality");
        assert!(l.records()[0].witness.contains("synchronized -> freerun"));
    }

    #[test]
    fn holdover_drift_accepts_coasting_within_budget() {
        let mut inv = HoldoverDrift::new(SimTime::ZERO, Nanos::from_micros(20), 900_000.0);
        let mut l = log();
        inv.observe(
            &transition(10, 0, 0, SyncState::Synchronized, SyncState::Holdover),
            &mut l,
        );
        // 100 µs of drift over 1 s is far inside (clamp + margin) · Δt.
        inv.observe(&synctime(10_000, 0, 10_000_000_000), &mut l);
        inv.observe(&synctime(11_000, 0, 11_000_100_000), &mut l);
        assert!(l.is_empty(), "{:?}", l.records());
    }

    #[test]
    fn holdover_drift_flags_runaway_coast() {
        let mut inv = HoldoverDrift::new(SimTime::ZERO, Nanos::from_micros(20), 900_000.0);
        let mut l = log();
        inv.observe(
            &transition(10, 0, 0, SyncState::Synchronized, SyncState::Holdover),
            &mut l,
        );
        inv.observe(&synctime(10_000, 0, 10_000_000_000), &mut l);
        // 5 ms of drift over 1 s: > 1.1 ms budget.
        inv.observe(&synctime(11_000, 0, 11_005_000_000), &mut l);
        assert_eq!(l.len(), 1);
        assert_eq!(l.records()[0].invariant, "holdover-drift");
        assert!(l.records()[0].component.contains("node0"));
    }

    #[test]
    fn holdover_drift_is_cumulative_across_readings() {
        let mut inv = HoldoverDrift::new(SimTime::ZERO, Nanos::from_micros(20), 900_000.0);
        let mut l = log();
        inv.observe(
            &transition(10, 0, 0, SyncState::Synchronized, SyncState::Holdover),
            &mut l,
        );
        // Each 10 ms step drifts 15 µs — below the per-pair step
        // allowance SynctimeContinuity grants, but after 100 steps the
        // cumulative 1.5 ms dwarfs the ~1.13 ms whole-span budget.
        let mut s = 10_000_000_000i64;
        for i in 0..=100i64 {
            inv.observe(&synctime(10_000 + 10 * i as u64, 0, s), &mut l);
            s += 10_000_000 + 15_000;
        }
        assert!(
            !l.is_empty(),
            "cumulative drift must eventually exceed the whole-span budget"
        );
    }

    #[test]
    fn holdover_drift_claims_nothing_when_any_slot_is_synchronized() {
        let mut inv = HoldoverDrift::new(SimTime::ZERO, Nanos::from_micros(20), 900_000.0);
        let mut l = log();
        inv.observe(
            &transition(10, 0, 0, SyncState::Synchronized, SyncState::Holdover),
            &mut l,
        );
        // The redundant VM re-acquired: the node is not coasting.
        inv.observe(
            &transition(10, 0, 1, SyncState::Holdover, SyncState::Synchronized),
            &mut l,
        );
        inv.observe(&synctime(10_000, 0, 10_000_000_000), &mut l);
        inv.observe(&synctime(11_000, 0, 11_050_000_000), &mut l);
        assert!(l.is_empty(), "{:?}", l.records());
    }

    /// A deliberately broken fault-tolerant average: it "forgets" to trim
    /// the f extreme values before averaging (the classic FTA
    /// implementation mutation).
    fn broken_fta_without_trim(values: &[Nanos]) -> Nanos {
        let sum: i64 = values.iter().map(|v| v.as_nanos()).sum();
        Nanos::from_nanos(sum / values.len() as i64)
    }

    /// A correct reference FTA (sort, trim f per side, average).
    fn reference_fta(values: &[Nanos], f: usize) -> Nanos {
        let mut v: Vec<i64> = values.iter().map(|v| v.as_nanos()).collect();
        v.sort_unstable();
        let kept = &v[f..v.len() - f];
        Nanos::from_nanos(kept.iter().sum::<i64>() / kept.len() as i64)
    }

    /// Mutation-style self-test: breaking the FTA trim must be caught by
    /// the containment invariant with a witness record, while the
    /// correct implementation passes.
    #[test]
    fn mutation_broken_fta_trim_is_flagged() {
        let used = [
            (0, Nanos::from_nanos(120)),
            (1, Nanos::from_nanos(1_000_000)), // Byzantine grand master
            (2, Nanos::from_nanos(-80)),
            (3, Nanos::from_nanos(260)),
        ];
        let byz = [false, true, false, false];
        let inputs: Vec<Nanos> = used.iter().map(|(_, o)| *o).collect();

        // The correct FTA masks the outlier and stays contained.
        let good = reference_fta(&inputs, 1);
        let mut inv = FtaContainment::new(Some(1));
        let mut l = log();
        inv.observe(&aggregated(good.as_nanos(), &used, &byz), &mut l);
        assert!(l.is_empty(), "correct FTA must pass: {:?}", l.records());

        // The trimless mutant is dragged a quarter of the way to the
        // attacker's offset — far outside the honest range.
        let bad = broken_fta_without_trim(&inputs);
        let mut oracle = OracleRegistry::standard(OracleConfig {
            f: Some(1),
            ..OracleConfig::default()
        });
        oracle.observe(&aggregated(bad.as_nanos(), &used, &byz));
        oracle.finish();
        let violations = oracle.take_violations();
        assert_eq!(violations.len(), 1);
        let rec = &violations[0];
        assert_eq!(rec.invariant, "fta-containment");
        assert!(
            rec.witness.contains(&bad.as_nanos().to_string()),
            "witness must carry the offending aggregate: {}",
            rec.witness
        );
        assert!(rec.witness.contains("byzantine=1"));
    }

    fn acting(at_ms: u64, domain: usize, node: usize, acting: bool) -> Observation<'static> {
        Observation::ElectionActing {
            at: SimTime::from_millis(at_ms),
            domain,
            node,
            acting,
        }
    }

    #[test]
    fn one_master_accepts_bounded_handover_overlap() {
        let mut inv = AtMostOneActingMaster::new(Nanos::from_millis(2_000));
        let mut l = log();
        inv.observe(&acting(1_000, 0, 0, true), &mut l);
        // Node 1 promotes itself before node 0 stands down: a 500 ms
        // overlap, well inside the 2 s hand-over window.
        inv.observe(&acting(5_000, 0, 1, true), &mut l);
        inv.observe(&acting(5_500, 0, 0, false), &mut l);
        inv.finish(&mut l);
        assert!(l.is_empty(), "{:?}", l.records());
    }

    #[test]
    fn one_master_flags_persistent_split() {
        let mut inv = AtMostOneActingMaster::new(Nanos::from_millis(2_000));
        let mut l = log();
        inv.observe(&acting(1_000, 2, 0, true), &mut l);
        inv.observe(&acting(5_000, 2, 3, true), &mut l);
        // Nothing resolves; the run ends 10 s later.
        inv.observe(
            &Observation::RunEnd {
                at: SimTime::from_secs(15),
                residual_frames: 0,
                stalled_frames: 0,
            },
            &mut l,
        );
        inv.finish(&mut l);
        assert_eq!(l.len(), 1);
        let rec = &l.records()[0];
        assert_eq!(rec.invariant, "election-at-most-one-master");
        assert_eq!(rec.component, "domain2.election");
        assert!(rec.witness.contains("[0, 3]"));
    }

    #[test]
    fn one_master_reports_each_split_episode_once() {
        let mut inv = AtMostOneActingMaster::new(Nanos::from_millis(1_000));
        let mut l = log();
        inv.observe(&acting(0, 0, 0, true), &mut l);
        inv.observe(&acting(100, 0, 1, true), &mut l);
        // Repeated late observations of the same split: one record.
        inv.observe(&acting(3_000, 0, 2, true), &mut l);
        inv.observe(&acting(4_000, 0, 2, false), &mut l);
        inv.finish(&mut l);
        assert_eq!(l.len(), 1, "{:?}", l.records());
    }

    #[test]
    fn convergence_accepts_timely_reelection() {
        let mut inv = ElectionConvergence::new(Nanos::from_millis(2_000));
        let mut l = log();
        inv.observe(
            &Observation::GmKilled {
                at: SimTime::from_secs(10),
                domain: 0,
            },
            &mut l,
        );
        inv.observe(&acting(11_000, 0, 1, true), &mut l);
        inv.finish(&mut l);
        assert!(l.is_empty(), "{:?}", l.records());
    }

    #[test]
    fn convergence_flags_slow_reelection() {
        let mut inv = ElectionConvergence::new(Nanos::from_millis(2_000));
        let mut l = log();
        inv.observe(
            &Observation::GmKilled {
                at: SimTime::from_secs(10),
                domain: 1,
            },
            &mut l,
        );
        inv.observe(&acting(14_000, 1, 2, true), &mut l);
        assert_eq!(l.len(), 1);
        assert_eq!(l.records()[0].invariant, "election-convergence");
        assert!(l.records()[0].witness.contains("re-election took"));
    }

    #[test]
    fn convergence_flags_domain_never_recovering() {
        let mut inv = ElectionConvergence::new(Nanos::from_millis(2_000));
        let mut l = log();
        inv.observe(
            &Observation::GmKilled {
                at: SimTime::from_secs(10),
                domain: 3,
            },
            &mut l,
        );
        // A different domain recovering does not resolve domain 3.
        inv.observe(&acting(10_500, 2, 1, true), &mut l);
        inv.observe(
            &Observation::RunEnd {
                at: SimTime::from_secs(30),
                residual_frames: 0,
                stalled_frames: 0,
            },
            &mut l,
        );
        inv.finish(&mut l);
        assert_eq!(l.len(), 1);
        assert!(l.records()[0].witness.contains("no replacement"));
        assert_eq!(l.records()[0].component, "domain3.election");
    }

    #[test]
    fn convergence_claims_nothing_when_run_ends_inside_bound() {
        let mut inv = ElectionConvergence::new(Nanos::from_millis(2_000));
        let mut l = log();
        inv.observe(
            &Observation::GmKilled {
                at: SimTime::from_secs(10),
                domain: 0,
            },
            &mut l,
        );
        inv.observe(
            &Observation::RunEnd {
                at: SimTime::from_millis(11_000),
                residual_frames: 0,
                stalled_frames: 0,
            },
            &mut l,
        );
        inv.finish(&mut l);
        assert!(l.is_empty(), "{:?}", l.records());
    }
}
