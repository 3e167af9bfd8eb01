//! Multi-domain aggregation — the paper's §II-B mechanism.
//!
//! Each of the `M` per-domain instances of a clock-synchronization VM
//! calls [`MultiDomainAggregator::submit`] when it completes a
//! Sync/Follow_Up pair. The call stores the offset in the shared
//! `FTSHMEM` and then applies the paper's turn check: the *first*
//! instance for which
//!
//! ```text
//! adjust_last + sync_interval ≤ now                          (Eq. 2.1)
//! ```
//!
//! sorts the fresh master offsets, applies the aggregation function
//! (normally the FTA), updates `adjust_last`, and passes the aggregated
//! offset to the shared PI controller, whose output the caller applies to
//! the NIC's clock frequency.
//!
//! Startup follows §II-B as well: before fault-tolerant operation a node
//! synchronizes to the *initial domain*'s GM alone until its offset stays
//! below a configurable threshold for a configurable number of
//! consecutive intervals. (Deviation from the paper, documented in
//! DESIGN.md: the paper switches the whole system at once when all M−1
//! GMs have converged; we switch per node, which requires no global
//! coordination and preserves the behavior. If the initial domain is down
//! during a restart, the lowest-indexed live domain substitutes so a
//! rebooted node can always rejoin.)
//!
//! Fault-tolerant operation additionally maintains an explicit
//! degradation state machine ([`SyncState`]): losing the `2f+1` quorum
//! enters *Holdover* (the PI controller's last frequency estimate keeps
//! disciplining the clock because no new sample arrives); exhausting a
//! configurable holdover budget declares *Freerun*; *Synchronized* is
//! re-acquired only after a configurable number of consecutive successful
//! aggregations, with failed re-check attempts subject to exponential
//! backoff. Transitions are queued for the embedding world to collect via
//! [`MultiDomainAggregator::take_transitions`].

use crate::algorithm::{fill, validity_flags, with_scratch, AggregationMethod};
use crate::shmem::{FtShmem, OffsetSlot};
use tsn_time::{ClockTime, Nanos, PiServo, ServoConfig, ServoOutput, SyncState};

/// Sentinel for "never" (`adjust_last`-style negative infinity).
const FAR_PAST: ClockTime = ClockTime::from_nanos(i64::MIN / 2);

/// Configuration of the multi-domain aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationConfig {
    /// Number of gPTP domains `M`.
    pub domains: usize,
    /// Synchronization interval `S` (125 ms in the paper).
    pub sync_interval: Nanos,
    /// Aggregation function (FTA with `f = 1` in the paper).
    pub method: AggregationMethod,
    /// Threshold for the per-domain validity booleans.
    pub validity_threshold: Nanos,
    /// Offsets older than this (in local clock time) are not aggregated;
    /// this is what removes a fail-silent GM from the average.
    pub staleness: Nanos,
    /// Startup: offset-to-initial-domain threshold for convergence.
    pub startup_threshold: Nanos,
    /// Startup: consecutive in-threshold intervals required.
    pub startup_consecutive: u32,
    /// Index of the initial domain used during startup.
    pub initial_domain: usize,
    /// If `true`, aggregation uses only offsets whose validity boolean is
    /// set (diagnostic mode; the paper's FTA masks extremes by itself, so
    /// the default is `false`).
    pub exclude_invalid: bool,
    /// How long (local clock time) the VM may stay in [`SyncState::Holdover`]
    /// before declaring [`SyncState::Freerun`].
    pub holdover_budget: Nanos,
    /// Consecutive successful aggregations required to re-acquire
    /// [`SyncState::Synchronized`] from a degraded state (hysteresis).
    pub reacquire_consecutive: u32,
    /// Cap on the exponential re-check backoff applied to failed
    /// aggregation attempts while degraded (starts at one sync interval
    /// and doubles per failed interval).
    pub recheck_backoff_max: Nanos,
}

impl AggregationConfig {
    /// The paper's configuration: M = 4 domains, FTA with f = 1, S =
    /// 125 ms.
    pub fn paper_default() -> Self {
        AggregationConfig {
            domains: 4,
            sync_interval: Nanos::from_millis(125),
            method: AggregationMethod::FaultTolerantAverage { f: 1 },
            validity_threshold: Nanos::from_micros(15),
            staleness: Nanos::from_millis(500),
            startup_threshold: Nanos::from_micros(10),
            startup_consecutive: 8,
            initial_domain: 0,
            exclude_invalid: false,
            holdover_budget: Nanos::from_secs(2),
            reacquire_consecutive: 4,
            recheck_backoff_max: Nanos::from_secs(2),
        }
    }
}

/// Operating mode of one VM's aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMode {
    /// Synchronizing to the initial domain only (paper's startup phase).
    Startup,
    /// Fault-tolerant multi-domain operation.
    FaultTolerant,
}

/// Result of one [`MultiDomainAggregator::submit`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Stored; not this instance's turn to aggregate.
    Stored,
    /// This instance aggregated; apply `servo` to the NIC clock.
    Aggregated(Aggregation),
    /// It was this instance's turn but no quorum of fresh offsets
    /// existed; the clock free-runs this interval.
    NoQuorum,
}

/// Details of one aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// The aggregated master offset `c_s`.
    pub offset: Nanos,
    /// The servo's clock command.
    pub servo: ServoOutput,
    /// Mode the aggregation ran in.
    pub mode: AggregationMode,
    /// The per-domain offsets used (fresh slots only).
    pub used: Vec<(usize, Nanos)>,
}

/// The per-VM multi-domain aggregation coordinator.
#[derive(Debug)]
pub struct MultiDomainAggregator {
    config: AggregationConfig,
    shmem: FtShmem,
    mode: AggregationMode,
    startup_ok_streak: u32,
    /// Domain this VM itself masters (grandmaster VMs); its self-offset
    /// of zero must not drive the startup convergence check unless it is
    /// the initial domain.
    self_domain: Option<usize>,
    /// Explicit degradation state (fault-tolerant mode only; startup
    /// quorum gaps do not degrade).
    sync_state: SyncState,
    /// When Holdover was entered (local clock; `FAR_PAST` if never).
    holdover_since: ClockTime,
    /// Consecutive successful aggregations while degraded.
    reacquire_streak: u32,
    /// Current degraded re-check backoff (`ZERO` until the first failed
    /// degraded interval).
    recheck_backoff: Nanos,
    /// No aggregation attempt before this local time while degraded
    /// (same-instant retries after a failure stay exempt, so a quorum
    /// restored mid-interval is still picked up immediately).
    next_attempt: ClockTime,
    /// Local time of the last quorum failure (for the exemption above and
    /// for once-per-interval backoff escalation).
    last_fail_at: ClockTime,
    /// State transitions not yet collected via [`Self::take_transitions`].
    transitions: Vec<(ClockTime, SyncState, SyncState)>,
}

impl MultiDomainAggregator {
    /// Creates an aggregator with a fresh shared region and a PI servo
    /// configured for the sync interval.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero domains, an
    /// initial domain out of range, or a method needing more inputs than
    /// domains exist).
    pub fn new(config: AggregationConfig, servo_config: ServoConfig) -> Self {
        assert!(config.domains > 0, "at least one domain required");
        assert!(
            config.initial_domain < config.domains,
            "initial domain {} out of range",
            config.initial_domain
        );
        assert!(
            config.method.min_inputs() <= config.domains,
            "aggregation method needs {} inputs but only {} domains exist",
            config.method.min_inputs(),
            config.domains
        );
        let servo = PiServo::new(servo_config, config.sync_interval);
        MultiDomainAggregator {
            shmem: FtShmem::new(config.domains, servo),
            config,
            mode: AggregationMode::Startup,
            startup_ok_streak: 0,
            self_domain: None,
            sync_state: SyncState::Synchronized,
            holdover_since: FAR_PAST,
            reacquire_streak: 0,
            recheck_backoff: Nanos::ZERO,
            next_attempt: FAR_PAST,
            last_fail_at: FAR_PAST,
            transitions: Vec::new(),
        }
    }

    /// Declares that this VM is the grandmaster of `domain`. During
    /// startup the GM's own zero offset is then only used as the
    /// reference when its domain *is* the initial domain; otherwise the
    /// node genuinely waits for the initial domain's GM (paper §II-B).
    pub fn set_self_domain(&mut self, domain: Option<usize>) {
        if let Some(d) = domain {
            assert!(d < self.config.domains, "self domain {d} out of range");
        }
        self.self_domain = domain;
    }

    /// The `FTSHMEM` region (one per VM, shared by the M instances).
    pub fn shmem(&self) -> &FtShmem {
        &self.shmem
    }

    /// Current mode.
    pub fn mode(&self) -> AggregationMode {
        self.mode
    }

    /// Current degradation state.
    pub fn sync_state(&self) -> SyncState {
        self.sync_state
    }

    /// Drains the state transitions recorded since the last call, as
    /// `(local time, from, to)` in occurrence order.
    pub fn take_transitions(&mut self) -> Vec<(ClockTime, SyncState, SyncState)> {
        std::mem::take(&mut self.transitions)
    }

    /// The configuration.
    pub fn config(&self) -> &AggregationConfig {
        &self.config
    }

    /// Stores `offset` for `domain` and aggregates if it is this
    /// instance's turn (Eq. 2.1).
    ///
    /// `now` is the VM's local clock (the NIC PHC) at submission time.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    pub fn submit(
        &mut self,
        domain: usize,
        offset: Nanos,
        sync_rx_local: ClockTime,
        rate_ratio: f64,
        now: ClockTime,
    ) -> SubmitOutcome {
        assert!(domain < self.config.domains, "domain {domain} out of range");
        self.shmem.slots[domain] = Some(OffsetSlot {
            offset,
            sync_rx_local,
            rate_ratio,
            stored_at: now,
        });
        // Paper Eq. 2.1: first instance past the boundary aggregates.
        if self.shmem.adjust_last + self.config.sync_interval > now {
            return SubmitOutcome::Stored;
        }
        // Degraded re-check backoff: after a failed interval, the next
        // attempt waits exponentially longer (capped). Retries at the
        // exact failure instant stay exempt so additional submissions
        // within the same tick can complete a quorum immediately.
        if self.sync_state.is_degraded() && now != self.last_fail_at && now < self.next_attempt {
            return SubmitOutcome::Stored;
        }
        self.aggregate(now)
    }

    /// Forces an aggregation attempt (used by a grandmaster's own-domain
    /// instance, which has no Sync reception to piggyback on: it submits
    /// its self-offset of zero each interval).
    pub fn submit_self(&mut self, domain: usize, now: ClockTime) -> SubmitOutcome {
        self.submit(domain, Nanos::ZERO, now, 1.0, now)
    }

    /// Resets to startup mode with cleared slots (VM restart / takeover
    /// rejoin). The degradation state is reset *silently* — a rebooted VM
    /// starts over as Synchronized without emitting a transition, so
    /// observers never see an edge the machine does not define.
    pub fn restart(&mut self) {
        self.shmem.clear();
        self.shmem.servo.reset();
        self.shmem.adjust_last = FAR_PAST;
        self.mode = AggregationMode::Startup;
        self.startup_ok_streak = 0;
        self.sync_state = SyncState::Synchronized;
        self.holdover_since = FAR_PAST;
        self.reacquire_streak = 0;
        self.recheck_backoff = Nanos::ZERO;
        self.next_attempt = FAR_PAST;
        self.last_fail_at = FAR_PAST;
        self.transitions.clear();
    }

    /// Records a legal state-machine edge.
    fn transition(&mut self, now: ClockTime, to: SyncState) {
        let from = self.sync_state;
        debug_assert!(from.can_transition_to(to), "illegal edge {from} -> {to}");
        self.sync_state = to;
        self.transitions.push((now, from, to));
    }

    /// A fault-tolerant aggregation attempt found no quorum: degrade and
    /// arm the re-check backoff (escalated once per failed instant).
    fn on_quorum_lost(&mut self, now: ClockTime) {
        self.reacquire_streak = 0;
        match self.sync_state {
            SyncState::Synchronized => {
                self.transition(now, SyncState::Holdover);
                self.holdover_since = now;
            }
            SyncState::Holdover if now - self.holdover_since > self.config.holdover_budget => {
                self.transition(now, SyncState::Freerun);
            }
            _ => {}
        }
        if now != self.last_fail_at {
            self.last_fail_at = now;
            self.next_attempt = now + self.recheck_backoff;
            self.recheck_backoff = if self.recheck_backoff == Nanos::ZERO {
                self.config.sync_interval
            } else {
                (self.recheck_backoff + self.recheck_backoff).min(self.config.recheck_backoff_max)
            };
        }
    }

    /// A fault-tolerant aggregation succeeded: count toward re-acquisition
    /// (K consecutive successes required before Synchronized is declared).
    fn on_quorum_regained(&mut self, now: ClockTime) {
        if !self.sync_state.is_degraded() {
            return;
        }
        self.reacquire_streak += 1;
        if self.reacquire_streak >= self.config.reacquire_consecutive {
            self.transition(now, SyncState::Synchronized);
            self.holdover_since = FAR_PAST;
            self.reacquire_streak = 0;
            self.recheck_backoff = Nanos::ZERO;
            self.next_attempt = FAR_PAST;
            self.last_fail_at = FAR_PAST;
        }
    }

    fn aggregate(&mut self, now: ClockTime) -> SubmitOutcome {
        with_scratch(self.shmem.slots.len(), |scratch| {
            // Fresh offsets only: stale slots are fail-silent domains.
            let fresh = fill(
                scratch,
                self.shmem.slots.iter().map(|slot| {
                    slot.filter(|s| now - s.stored_at <= self.config.staleness)
                        .map(|s| s.offset)
                }),
            );
            self.aggregate_fresh(now, fresh)
        })
    }

    /// [`Self::aggregate`] over the per-domain fresh offsets.
    fn aggregate_fresh(&mut self, now: ClockTime, fresh: &[Option<Nanos>]) -> SubmitOutcome {
        self.shmem.valid = validity_flags(fresh, self.config.validity_threshold);

        let aggregated = match self.mode {
            AggregationMode::Startup => self.startup_offset(fresh),
            AggregationMode::FaultTolerant => with_scratch(fresh.len(), |scratch| {
                let used = fresh
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !self.config.exclude_invalid || self.shmem.valid[*i])
                    .filter_map(|(_, o)| *o);
                self.config.method.aggregate(fill(scratch, used))
            }),
        };

        let Some(offset) = aggregated else {
            self.shmem.no_quorum += 1;
            if self.mode == AggregationMode::FaultTolerant {
                self.on_quorum_lost(now);
            }
            return SubmitOutcome::NoQuorum;
        };

        // Startup convergence tracking.
        if self.mode == AggregationMode::Startup {
            if offset.abs() <= self.config.startup_threshold {
                self.startup_ok_streak += 1;
                if self.startup_ok_streak >= self.config.startup_consecutive {
                    self.mode = AggregationMode::FaultTolerant;
                }
            } else {
                self.startup_ok_streak = 0;
            }
        }

        if self.mode == AggregationMode::FaultTolerant {
            self.on_quorum_regained(now);
        }

        let servo = self.shmem.servo.sample(offset, now);
        self.shmem.adjust_last = now;
        self.shmem.aggregations += 1;
        self.shmem.offset_sum_ns += i128::from(offset.as_nanos());
        let used: Vec<(usize, Nanos)> = fresh
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|v| (i, v)))
            .collect();
        SubmitOutcome::Aggregated(Aggregation {
            offset,
            servo,
            mode: self.mode,
            used,
        })
    }

    /// Startup reference offset: the initial domain's fresh offset, or —
    /// if that domain is silent — the lowest-indexed fresh domain other
    /// than the VM's own (a grandmaster must not bootstrap itself from
    /// its own zero offset unless it masters the initial domain).
    fn startup_offset(&self, fresh: &[Option<Nanos>]) -> Option<Nanos> {
        let initial = fresh.get(self.config.initial_domain).copied().flatten();
        if initial.is_some() && Some(self.config.initial_domain) != self.self_domain {
            return initial;
        }
        if Some(self.config.initial_domain) == self.self_domain {
            // We master the initial domain: our own clock is the startup
            // reference.
            return initial;
        }
        fresh
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != self.self_domain)
            .find_map(|(_, o)| *o)
    }
}

tsn_snapshot::snap_enum!(AggregationMode {
    0 => Startup,
    1 => FaultTolerant,
});

tsn_snapshot::snap_state!(MultiDomainAggregator {
    mode,
    startup_ok_streak,
    shmem: state,
    sync_state,
    holdover_since,
    reacquire_streak,
    recheck_backoff,
    next_attempt,
    last_fail_at,
    transitions,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AggregationConfig {
        AggregationConfig {
            startup_consecutive: 2,
            ..AggregationConfig::paper_default()
        }
    }

    fn aggregator() -> MultiDomainAggregator {
        MultiDomainAggregator::new(config(), ServoConfig::default())
    }

    const S: Nanos = Nanos::from_millis(125);

    /// Drives one full interval: stores offsets for domains 1..=3 and a
    /// self-offset for domain 0, returning the final outcome.
    fn drive_interval(
        agg: &mut MultiDomainAggregator,
        now: ClockTime,
        offsets: [Option<i64>; 4],
    ) -> Vec<SubmitOutcome> {
        let mut outs = Vec::new();
        for (d, o) in offsets.iter().enumerate() {
            if let Some(o) = o {
                outs.push(agg.submit(d, Nanos::from_nanos(*o), now, 1.0, now));
            }
        }
        outs
    }

    #[test]
    fn first_submission_past_boundary_aggregates() {
        let mut agg = aggregator();
        let t = ClockTime::from_nanos(1_000_000);
        let outs = drive_interval(&mut agg, t, [Some(0), Some(10), Some(20), Some(30)]);
        // First submit aggregates (sentinel adjust_last), rest store.
        assert!(matches!(outs[0], SubmitOutcome::Aggregated(_)));
        assert!(outs[1..].iter().all(|o| matches!(o, SubmitOutcome::Stored)));
    }

    #[test]
    fn aggregation_rate_limited_to_sync_interval() {
        let mut agg = aggregator();
        let t0 = ClockTime::from_nanos(1_000_000);
        drive_interval(&mut agg, t0, [Some(0), Some(10), Some(20), Some(30)]);
        // Within the same interval: only stores.
        let outs = drive_interval(
            &mut agg,
            t0 + Nanos::from_millis(10),
            [Some(1), None, None, None],
        );
        assert!(matches!(outs[0], SubmitOutcome::Stored));
        // Next interval: aggregates again.
        let outs = drive_interval(&mut agg, t0 + S, [Some(1), None, None, None]);
        assert!(matches!(outs[0], SubmitOutcome::Aggregated(_)));
    }

    #[test]
    fn startup_tracks_initial_domain_only() {
        let mut agg = aggregator();
        let t = ClockTime::from_nanos(1_000_000);
        // Initial domain offset 50 µs; a Byzantine domain at −24 µs must
        // not matter during startup.
        let outs = drive_interval(&mut agg, t, [Some(50_000), Some(-24_000), Some(1), Some(2)]);
        match &outs[0] {
            SubmitOutcome::Aggregated(a) => {
                assert_eq!(a.mode, AggregationMode::Startup);
                assert_eq!(a.offset, Nanos::from_nanos(50_000));
            }
            o => panic!("expected aggregation, got {o:?}"),
        }
    }

    #[test]
    fn startup_converges_then_switches_to_fta() {
        let mut agg = aggregator();
        let mut t = ClockTime::from_nanos(1_000_000);
        // Two consecutive in-threshold intervals (config) are needed.
        for _ in 0..2 {
            drive_interval(&mut agg, t, [Some(100), Some(5), Some(5), Some(5)]);
            t = t + S;
        }
        assert_eq!(agg.mode(), AggregationMode::FaultTolerant);
        // Byzantine domain 1 (−24 µs) and fresh values stored this
        // interval; the next interval's first submission aggregates over
        // all of them and the FTA masks the outlier.
        drive_interval(&mut agg, t, [None, Some(-24_000), Some(10), Some(20)]);
        t = t + S;
        let outs = drive_interval(&mut agg, t, [Some(0), None, None, None]);
        match &outs[0] {
            SubmitOutcome::Aggregated(a) => {
                assert_eq!(a.mode, AggregationMode::FaultTolerant);
                assert_eq!(a.offset, Nanos::from_nanos(5)); // (0+10)/2
                assert_eq!(agg.shmem().valid, vec![true, false, true, true]);
            }
            o => panic!("expected aggregation, got {o:?}"),
        }
    }

    #[test]
    fn large_startup_offsets_reset_streak() {
        let mut agg = aggregator();
        let mut t = ClockTime::from_nanos(1_000_000);
        drive_interval(&mut agg, t, [Some(5), None, None, None]);
        t = t + S;
        drive_interval(&mut agg, t, [Some(50_000), None, None, None]); // diverged
        t = t + S;
        drive_interval(&mut agg, t, [Some(5), None, None, None]);
        assert_eq!(agg.mode(), AggregationMode::Startup, "streak must restart");
    }

    fn to_fta_mode(agg: &mut MultiDomainAggregator, t0: ClockTime) -> ClockTime {
        let mut t = t0;
        for _ in 0..2 {
            drive_interval(agg, t, [Some(0), Some(0), Some(0), Some(0)]);
            t = t + S;
        }
        assert_eq!(agg.mode(), AggregationMode::FaultTolerant);
        t
    }

    #[test]
    fn stale_domain_excluded_from_fta() {
        let mut agg = aggregator();
        let mut t = to_fta_mode(&mut agg, ClockTime::from_nanos(1_000_000));
        // Domain 3 goes silent after storing a poisonous value; > the
        // staleness window later it must not participate.
        drive_interval(&mut agg, t, [None, None, None, Some(100_000)]);
        t = t + Nanos::from_millis(625);
        let outs = drive_interval(&mut agg, t, [Some(0), Some(10), Some(20), None]);
        // The first two submissions find < 2f+1 fresh offsets (the old
        // slots all expired); the third completes the quorum.
        assert_eq!(outs[0], SubmitOutcome::NoQuorum);
        assert_eq!(outs[1], SubmitOutcome::NoQuorum);
        match &outs[2] {
            SubmitOutcome::Aggregated(a) => {
                assert_eq!(a.used.len(), 3, "stale domain still present: {:?}", a.used);
                assert_eq!(a.offset, Nanos::from_nanos(10)); // median of 3
            }
            o => panic!("expected aggregation, got {o:?}"),
        }
    }

    #[test]
    fn no_quorum_when_too_few_fresh_domains() {
        let mut agg = aggregator();
        let mut t = to_fta_mode(&mut agg, ClockTime::from_nanos(1_000_000));
        t = t + Nanos::from_secs(10); // everything stale
        let outs = drive_interval(&mut agg, t, [Some(0), None, None, None]);
        // FTA f=1 needs 3 fresh offsets; only 1 exists. `adjust_last` is
        // not advanced, so the next submission may retry immediately.
        assert_eq!(outs[0], SubmitOutcome::NoQuorum);
        let outs = drive_interval(&mut agg, t, [None, Some(5), None, None]);
        assert_eq!(outs[0], SubmitOutcome::NoQuorum, "still below quorum");
        let outs = drive_interval(&mut agg, t, [None, None, Some(9), None]);
        assert!(
            matches!(outs[0], SubmitOutcome::Aggregated(_)),
            "third fresh offset restores the quorum: {outs:?}"
        );
    }

    #[test]
    fn restart_returns_to_startup() {
        let mut agg = aggregator();
        to_fta_mode(&mut agg, ClockTime::from_nanos(1_000_000));
        agg.restart();
        assert_eq!(agg.mode(), AggregationMode::Startup);
        assert!(agg.shmem().offsets().iter().all(Option::is_none));
    }

    #[test]
    fn startup_falls_back_when_initial_domain_down() {
        let mut agg = aggregator();
        let t = ClockTime::from_nanos(1_000_000);
        let outs = drive_interval(&mut agg, t, [None, Some(42), None, None]);
        match &outs[0] {
            SubmitOutcome::Aggregated(a) => assert_eq!(a.offset, Nanos::from_nanos(42)),
            o => panic!("expected aggregation, got {o:?}"),
        }
    }

    #[test]
    fn exclude_invalid_mode_filters_outliers_before_fta() {
        let mut cfg = config();
        cfg.exclude_invalid = true;
        let mut agg = MultiDomainAggregator::new(cfg, ServoConfig::default());
        let mut t = ClockTime::from_nanos(1_000_000);
        for _ in 0..2 {
            drive_interval(&mut agg, t, [Some(0), Some(0), Some(0), Some(0)]);
            t = t + S;
        }
        drive_interval(&mut agg, t, [None, Some(-24_000), Some(9), Some(30)]);
        t = t + S;
        let outs = drive_interval(&mut agg, t, [Some(0), None, None, None]);
        match &outs[0] {
            SubmitOutcome::Aggregated(a) => {
                // −24 µs flagged invalid and excluded; FTA over {0, 9, 30} = 9.
                assert_eq!(a.offset, Nanos::from_nanos(9));
            }
            o => panic!("expected aggregation, got {o:?}"),
        }
    }

    /// Drives the aggregator into FT mode, then starves it: everything
    /// stale, a single fresh offset cannot form a quorum. Returns the
    /// starvation instant.
    fn to_holdover(agg: &mut MultiDomainAggregator) -> ClockTime {
        let t = to_fta_mode(agg, ClockTime::from_nanos(1_000_000));
        let t = t + Nanos::from_secs(10); // everything stale
        let outs = drive_interval(agg, t, [Some(0), None, None, None]);
        assert_eq!(outs[0], SubmitOutcome::NoQuorum);
        assert_eq!(agg.sync_state(), SyncState::Holdover);
        t
    }

    #[test]
    fn quorum_loss_enters_holdover() {
        let mut agg = aggregator();
        let t = to_holdover(&mut agg);
        assert_eq!(
            agg.take_transitions(),
            vec![(t, SyncState::Synchronized, SyncState::Holdover)]
        );
        assert!(agg.take_transitions().is_empty(), "drain is destructive");
    }

    #[test]
    fn startup_quorum_gaps_do_not_degrade() {
        let mut agg = aggregator();
        // Startup mode, initial domain silent, only the self domain
        // fresh: NoQuorum without a state transition.
        agg.set_self_domain(Some(1));
        let t = ClockTime::from_nanos(1_000_000);
        let outs = drive_interval(&mut agg, t, [None, Some(0), None, None]);
        assert_eq!(outs[0], SubmitOutcome::NoQuorum);
        assert_eq!(agg.sync_state(), SyncState::Synchronized);
        assert!(agg.take_transitions().is_empty());
    }

    #[test]
    fn holdover_budget_exhaustion_declares_freerun() {
        let mut agg = aggregator();
        let t = to_holdover(&mut agg);
        // Past the 2 s holdover budget (and past any backoff), still no
        // quorum: Freerun.
        let t2 = t + Nanos::from_secs(4);
        let outs = drive_interval(&mut agg, t2, [Some(0), None, None, None]);
        assert_eq!(outs[0], SubmitOutcome::NoQuorum);
        assert_eq!(agg.sync_state(), SyncState::Freerun);
        assert_eq!(
            agg.take_transitions(),
            vec![
                (t, SyncState::Synchronized, SyncState::Holdover),
                (t2, SyncState::Holdover, SyncState::Freerun),
            ]
        );
    }

    #[test]
    fn reacquisition_requires_consecutive_successes() {
        let mut agg = aggregator();
        let mut t = to_holdover(&mut agg);
        let k = agg.config().reacquire_consecutive;
        // Full quorum restored at the normal cadence: K consecutive
        // successful intervals are needed before Synchronized returns.
        for i in 0..k {
            t = t + S;
            let outs = drive_interval(&mut agg, t, [Some(0), Some(5), Some(9), None]);
            assert!(
                outs.iter()
                    .any(|o| matches!(o, SubmitOutcome::Aggregated(_))),
                "interval {i}: {outs:?}"
            );
            let expect_sync = i + 1 >= k;
            assert_eq!(
                agg.sync_state() == SyncState::Synchronized,
                expect_sync,
                "after {} successful intervals",
                i + 1
            );
        }
        let trans = agg.take_transitions();
        assert_eq!(trans.len(), 2);
        assert_eq!(trans[1].1, SyncState::Holdover);
        assert_eq!(trans[1].2, SyncState::Synchronized);
    }

    #[test]
    fn failed_recheck_resets_reacquire_streak() {
        let mut agg = aggregator();
        let mut t = to_holdover(&mut agg);
        // One successful interval…
        t = t + S;
        let outs = drive_interval(&mut agg, t, [Some(0), Some(5), Some(9), None]);
        assert!(outs
            .iter()
            .any(|o| matches!(o, SubmitOutcome::Aggregated(_))));
        // …then a failure (everything stale again) resets the streak.
        t = t + Nanos::from_secs(10);
        let outs = drive_interval(&mut agg, t, [Some(0), None, None, None]);
        assert_eq!(outs[0], SubmitOutcome::NoQuorum);
        // With quorum back, re-acquisition needs K fresh successes plus
        // whatever intervals the armed backoff gates away — strictly more
        // than K intervals in total.
        let k = agg.config().reacquire_consecutive;
        let mut intervals = 0u32;
        while agg.sync_state() != SyncState::Synchronized {
            t = t + S;
            drive_interval(&mut agg, t, [Some(0), Some(5), Some(9), None]);
            intervals += 1;
            assert!(intervals < 20, "re-acquisition never completed");
        }
        assert!(
            intervals > k,
            "streak reset + backoff must cost extra intervals (took {intervals}, K = {k})"
        );
    }

    #[test]
    fn degraded_rechecks_back_off_exponentially() {
        let mut agg = aggregator();
        let t = to_holdover(&mut agg);
        // Second failed interval arms next_attempt = t2 + S.
        let t2 = t + S;
        let outs = drive_interval(&mut agg, t2, [Some(0), None, None, None]);
        assert_eq!(outs[0], SubmitOutcome::NoQuorum);
        // Before the backoff expires a full quorum is only *stored*…
        let t3 = t2 + Nanos::from_millis(10);
        let outs = drive_interval(&mut agg, t3, [Some(0), Some(5), Some(9), Some(12)]);
        assert!(
            outs.iter().all(|o| matches!(o, SubmitOutcome::Stored)),
            "gated attempts must store, got {outs:?}"
        );
        // …and once it expires the attempt runs and succeeds.
        let t4 = t2 + S;
        let outs = drive_interval(&mut agg, t4, [Some(0), None, None, None]);
        assert!(
            matches!(outs[0], SubmitOutcome::Aggregated(_)),
            "attempt past backoff must run: {outs:?}"
        );
    }

    #[test]
    fn same_instant_retries_are_not_gated() {
        let mut agg = aggregator();
        let t = to_holdover(&mut agg);
        // More submissions at the exact failure instant complete the
        // quorum immediately (existing Eq. 2.1 retry semantics).
        let outs = drive_interval(&mut agg, t, [None, Some(5), Some(9), None]);
        assert!(
            matches!(outs.last().unwrap(), SubmitOutcome::Aggregated(_)),
            "same-tick quorum completion must aggregate: {outs:?}"
        );
    }

    #[test]
    fn restart_silently_resets_sync_state() {
        let mut agg = aggregator();
        to_holdover(&mut agg);
        agg.restart();
        assert_eq!(agg.sync_state(), SyncState::Synchronized);
        assert!(
            agg.take_transitions().is_empty(),
            "restart must not emit transitions"
        );
    }

    #[test]
    fn snapshot_roundtrips_degradation_state() {
        use tsn_snapshot::{Reader, SnapState, Writer};
        let mut agg = aggregator();
        let t = to_holdover(&mut agg);
        let mut w = Writer::new();
        agg.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut copy = aggregator();
        let mut r = Reader::new(&bytes);
        copy.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(copy.sync_state(), SyncState::Holdover);
        assert_eq!(
            copy.take_transitions(),
            vec![(t, SyncState::Synchronized, SyncState::Holdover)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_domain_panics() {
        let mut agg = aggregator();
        agg.submit(9, Nanos::ZERO, ClockTime::ZERO, 1.0, ClockTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn method_requiring_more_domains_than_exist_rejected() {
        let cfg = AggregationConfig {
            domains: 2,
            method: AggregationMethod::FaultTolerantAverage { f: 1 },
            ..AggregationConfig::paper_default()
        };
        MultiDomainAggregator::new(cfg, ServoConfig::default());
    }
}
