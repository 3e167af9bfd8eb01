//! # tsn-fabric
//!
//! Deterministic multi-hop TSN switch fabric between the ECDs of the
//! *IEEE 802.1AS Multi-Domain Aggregation for Virtualized Distributed
//! Real-Time Systems* (DSN-S 2023) testbed.
//!
//! The paper's prototype places the end systems one integrated switch
//! apart, which idealizes exactly what erodes sub-µs precision in
//! deployment: queuing delay, path asymmetry, and network depth. This
//! crate models the missing fabric the way the OMNeT++ PTP simulators
//! (arXiv:1609.06771, arXiv:1509.03169) do, while staying inside the
//! repository's determinism discipline:
//!
//! * **Topology generator** — [`FabricTopology`] expands every
//!   inter-switch mesh link into a chain of `hops ×` edge-distance
//!   store-and-forward switches (line, ring, or balanced-tree distance
//!   metric), each hop with a statically drawn propagation delay, an
//!   optional directional asymmetry, and a drawn residence latency.
//! * **802.1Qbv gates** — every fabric egress port runs a two-class
//!   gate schedule: the protected window (gPTP and other PCP ≥ 6
//!   traffic) opens at the start of each gate cycle, best-effort
//!   cross-traffic owns the rest. A protected frame arriving outside
//!   its window waits deterministically for the next cycle start; with
//!   no guard band a just-started best-effort MTU frame can still block
//!   the head of line (Bernoulli(load) × U[0, serialization)).
//!   Cross-traffic is never materialized as events: the generator is an
//!   analytic Poisson-field approximation driven by a dedicated control
//!   RNG stream, so it perturbs no event-queue tie-breaks and
//!   snapshot-fork stays byte-identical.
//! * **Transparent clocks** — in `transparent_clock` mode each hop
//!   accumulates its measured residence time (queuing + gate wait +
//!   serialization, with a small per-hop measurement error) for
//!   insertion into the Follow_Up correction field; peer-delay frames
//!   are modeled as TC-corrected (their effective delay collapses to
//!   propagation), so `meanLinkDelay` converges to the propagation mean
//!   and only the TC error and path asymmetry reach the servo. In
//!   end-to-end mode the raw queuing error reaches the servo
//!   uncompensated.
//!
//! Measurement probes are out of band: the paper's methodology pins
//! probe paths with static FDB entries and calibrates their static
//! delay, so the measurement plane bypasses the fabric model and the
//! measured precision reflects clock state, not probe transport.
//!
//! All mutable state (the cross-traffic RNG, per-port busy horizons,
//! pending transparent-clock corrections) implements [`SnapState`]; the
//! static tables are redrawn from configuration on restore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use tsn_snapshot::{Reader, Snap, SnapError, SnapState, Writer};
use tsn_time::{Nanos, SimTime};

pub mod fleet;
pub use fleet::FleetShape;

/// Shape of the switch fabric inserted between edge switches.
///
/// The variant fixes the *distance metric* between edge switches `a`
/// and `b`; the actual chain length is `hops × distance(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricTopology {
    /// Switches on a line; distance is `|a − b|`.
    Line,
    /// Switches on a ring; distance is `min(|a − b|, n − |a − b|)`.
    Ring,
    /// Switches as leaves/nodes of a balanced binary tree (heap
    /// order); distance is the tree path length.
    Tree,
}

impl FabricTopology {
    /// Hop-chain distance between edge switches `a` and `b` of `n`.
    pub fn edge_distance(self, n: usize, a: usize, b: usize) -> u32 {
        if a == b {
            return 0;
        }
        let d = a.abs_diff(b);
        match self {
            FabricTopology::Line => d as u32,
            FabricTopology::Ring => d.min(n - d) as u32,
            FabricTopology::Tree => {
                // 1-based heap indices; climb to the common ancestor.
                let (mut x, mut y) = (a + 1, b + 1);
                let mut steps = 0u32;
                while x != y {
                    if x > y {
                        x /= 2;
                    } else {
                        y /= 2;
                    }
                    steps += 1;
                }
                steps
            }
        }
    }
}

/// Configuration of the multi-hop fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Distance metric between edge switches.
    pub topology: FabricTopology,
    /// Depth knob: fabric switches per unit of edge distance (≥ 1).
    pub hops: u32,
    /// Static per-hop propagation delay draw range (lower bound).
    pub link_base_min: Nanos,
    /// Static per-hop propagation delay draw range (upper bound).
    pub link_base_max: Nanos,
    /// Extra static delay added to every hop in the `a → b` direction
    /// of each pair (`a < b`); peer-delay halves it into systematic
    /// offset error that neither mode can compensate.
    pub asymmetry_ns: Nanos,
    /// Static per-hop store-and-forward residence draw range (lower).
    pub residence_min: Nanos,
    /// Static per-hop store-and-forward residence draw range (upper).
    pub residence_max: Nanos,
    /// 802.1Qbv gate cycle time.
    pub gate_cycle: Nanos,
    /// Length of the protected (PCP ≥ 6) window at each cycle start.
    pub protected_window: Nanos,
    /// Best-effort cross-traffic load per hop (0–0.95): the
    /// probability that a cross frame blocks the head of line when the
    /// protected gate opens (no guard band).
    pub cross_traffic_load: f64,
    /// Cross-traffic frame size in bytes (bounds the blocking time).
    pub cross_frame_bytes: usize,
    /// Fabric line rate in bits per second.
    pub line_rate_bps: u64,
    /// `true`: per-hop residence time is accumulated into the gPTP
    /// correction field (IEEE 1588 transparent clocks); `false`:
    /// end-to-end mode, queuing reaches the servo raw.
    pub transparent_clock: bool,
    /// Per-hop transparent-clock residence measurement error (uniform
    /// `±tc_error_ns`).
    pub tc_error_ns: i64,
    /// A frame queued longer than this at a single hop is dropped
    /// (egress queue overflow stand-in).
    pub drop_horizon: Nanos,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            topology: FabricTopology::Line,
            hops: 2,
            link_base_min: Nanos::from_nanos(500),
            link_base_max: Nanos::from_nanos(900),
            asymmetry_ns: Nanos::ZERO,
            residence_min: Nanos::from_nanos(500),
            residence_max: Nanos::from_nanos(800),
            gate_cycle: Nanos::from_micros(12),
            protected_window: Nanos::from_micros(8),
            cross_traffic_load: 0.0,
            cross_frame_bytes: 1500,
            line_rate_bps: 1_000_000_000,
            transparent_clock: false,
            tc_error_ns: 8,
            drop_horizon: Nanos::from_millis(1),
        }
    }
}

impl FabricConfig {
    /// A line fabric of the given depth with defaults for the rest.
    pub fn line(hops: u32) -> Self {
        FabricConfig {
            hops,
            ..FabricConfig::default()
        }
    }

    /// Serialization time of a frame of `bytes` on this fabric's line
    /// rate (padding, FCS, and preamble included), in nanoseconds.
    pub fn serialization_ns(&self, bytes: usize) -> i64 {
        let on_wire = (bytes.max(60) + 4 + 8) as u64;
        ((on_wire * 8 * 1_000_000_000) / self.line_rate_bps) as i64
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent settings; called by the testbed builder.
    pub fn validate(&self) {
        assert!(
            (1..=64).contains(&self.hops),
            "fabric hops must be in 1..=64"
        );
        assert!(
            self.link_base_min <= self.link_base_max,
            "fabric link range inverted"
        );
        assert!(
            self.link_base_min > Nanos::ZERO,
            "fabric link delay must be positive"
        );
        assert!(
            self.residence_min <= self.residence_max,
            "fabric residence range inverted"
        );
        assert!(
            self.residence_min > Nanos::ZERO,
            "fabric residence must be positive"
        );
        assert!(
            !self.asymmetry_ns.is_negative(),
            "fabric asymmetry must be non-negative"
        );
        assert!(
            self.protected_window > Nanos::ZERO && self.protected_window < self.gate_cycle,
            "protected window must be positive and shorter than the gate cycle"
        );
        assert!(
            (0.0..=0.95).contains(&self.cross_traffic_load),
            "cross-traffic load must be in 0..=0.95"
        );
        assert!(
            (60..=9000).contains(&self.cross_frame_bytes),
            "cross frame size must be in 60..=9000"
        );
        assert!(self.line_rate_bps > 0, "line rate must be positive");
        assert!(self.tc_error_ns >= 0, "tc error must be non-negative");
        assert!(
            self.drop_horizon > Nanos::ZERO,
            "drop horizon must be positive"
        );
    }
}

/// How a frame traverses the fabric (decided by the caller from the
/// gPTP message type and the fabric mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Sync: full protected-class traversal; in transparent-clock mode
    /// the per-hop residence is measured (with error) for later
    /// insertion into the Follow_Up correction field.
    Sync,
    /// Peer-delay event frames: full traversal in end-to-end mode; in
    /// transparent-clock mode the TC correction is folded into the
    /// effective delay, which collapses to propagation ± measurement
    /// error.
    Pdelay,
    /// Other protected PTP frames (Follow_Up, Announce): full
    /// traversal, no residence bookkeeping.
    General,
}

/// Result of one fabric traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversal {
    /// Extra one-way delay the fabric adds to the frame.
    pub delay: Nanos,
    /// Accumulated per-hop residence time (queuing + gate wait +
    /// serialization). For a [`FrameClass::Sync`] in transparent-clock
    /// mode this is the measured value (per-hop error included) that
    /// the TCs would write into the correction field; zero for
    /// TC-calibrated peer-delay frames.
    pub residence_ns: i64,
    /// `true` if the frame overflowed a hop's queue and was dropped.
    pub dropped: bool,
}

/// What became of one gPTP frame handed to [`Fabric::cross`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossing {
    /// Delay and residence of the traversal, or the drop.
    pub traversal: Traversal,
    /// The frame was a Sync, the class whose residence is measured.
    pub sync: bool,
}

/// gPTP `messageType` nibbles (IEEE 1588 Table 36) the fabric tells
/// apart; everything else crosses as [`FrameClass::General`].
const SYNC: u8 = 0x0;
const PDELAY_REQ: u8 = 0x2;
const PDELAY_RESP: u8 = 0x3;
const FOLLOW_UP: u8 = 0x8;

/// One fabric hop's static draw: symmetric propagation base (the
/// configured asymmetry is added to the `a → b` direction on top) and
/// store-and-forward residence.
#[derive(Debug, Clone, Copy)]
struct Hop {
    base_ns: i64,
    res_ns: i64,
}

/// Cap on outstanding transparent-clock corrections (Follow_Ups lost to
/// link faults leak their entry; the oldest key is evicted past this).
const PENDING_TC_CAP: usize = 1024;

/// The deterministic multi-hop fabric between edge switches.
///
/// Static structure (hop chains, drawn delays) is rebuilt from
/// configuration; only the cross-traffic RNG, the per-port busy
/// horizons, and pending transparent-clock corrections evolve during a
/// run (and are covered by [`SnapState`]).
#[derive(Debug, Clone)]
pub struct Fabric {
    cfg: FabricConfig,
    switches: usize,
    /// Hop chains per unordered pair (a < b), lexicographic order.
    chains: Vec<Vec<Hop>>,
    /// Cross-traffic / measurement-noise stream (dedicated, so fabric
    /// draws never perturb the world's frame RNG).
    rng: StdRng,
    /// Per-(pair, direction, hop) egress busy horizon, ns.
    busy: BusyTable,
    /// Pending transparent-clock corrections keyed by
    /// (pair, direction, domain, sequence).
    pending_tc: BTreeMap<u64, i64>,
    /// Protected frames forwarded end to end.
    forwarded: u64,
    /// Protected frames dropped at a saturated hop.
    dropped: u64,
    /// Largest accumulated residence observed on one crossing, ns.
    max_residence_ns: u64,
}

impl Fabric {
    /// Builds the fabric for `switches` edge switches, drawing the
    /// static delay tables from `link_rng` and seeding the
    /// cross-traffic stream with `xtraffic_rng`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `switches < 2`.
    pub fn new(
        cfg: FabricConfig,
        switches: usize,
        link_rng: &mut StdRng,
        xtraffic_rng: StdRng,
    ) -> Self {
        cfg.validate();
        assert!(switches >= 2, "fabric needs at least two edge switches");
        let mut chains = Vec::new();
        for a in 0..switches {
            for b in (a + 1)..switches {
                let hops = cfg.topology.edge_distance(switches, a, b) * cfg.hops;
                let mut chain = Vec::with_capacity(hops as usize);
                for _ in 0..hops {
                    let base_ns = draw_in(
                        link_rng,
                        cfg.link_base_min.as_nanos(),
                        cfg.link_base_max.as_nanos(),
                    );
                    let res_ns = draw_in(
                        link_rng,
                        cfg.residence_min.as_nanos(),
                        cfg.residence_max.as_nanos(),
                    );
                    chain.push(Hop { base_ns, res_ns });
                }
                chains.push(chain);
            }
        }
        Fabric {
            cfg,
            switches,
            busy: BusyTable::new(&chains),
            chains,
            rng: xtraffic_rng,
            pending_tc: BTreeMap::new(),
            forwarded: 0,
            dropped: 0,
            max_residence_ns: 0,
        }
    }

    /// Protected frames forwarded end to end so far.
    pub fn frames_forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Protected frames dropped at a saturated hop so far.
    pub fn frames_dropped(&self) -> u64 {
        self.dropped
    }

    /// Largest accumulated residence observed on one crossing, ns.
    pub fn max_residence_ns(&self) -> u64 {
        self.max_residence_ns
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Number of fabric switches between edge switches `a` and `b`.
    pub fn hop_count(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return 0;
        }
        self.chains[self.pair_index(a, b)].len() as u32
    }

    /// Carries one encoded gPTP message, `wire_len` bytes on the wire,
    /// from edge switch `from` to edge switch `to`: classifies it by
    /// its `messageType`, traverses, and keeps the transparent-clock
    /// books — a Sync's measured residence is remembered at traversal
    /// and added to the correction field of the matching Follow_Up
    /// (same domain and sequence id) when that crosses the same
    /// segment, by rewriting `payload`.
    pub fn cross<P: AsRef<[u8]> + FromIterator<u8>>(
        &mut self,
        now: SimTime,
        from: usize,
        to: usize,
        wire_len: usize,
        payload: &mut P,
    ) -> Crossing {
        let bytes = payload.as_ref();
        let kind = bytes.first().map(|b| b & 0x0F);
        let class = match kind {
            Some(SYNC) => FrameClass::Sync,
            Some(PDELAY_REQ | PDELAY_RESP) => FrameClass::Pdelay,
            _ => FrameClass::General,
        };
        let ser_ns = self.cfg.serialization_ns(wire_len);
        let traversal = self.traverse(now, from, to, ser_ns, class);
        if self.cfg.transparent_clock && !traversal.dropped {
            let domain = bytes.get(4).copied().unwrap_or(0);
            // Sequence id: header bytes 30..32.
            let seq = bytes
                .get(30..32)
                .map_or(0, |b| u16::from_be_bytes([b[0], b[1]]));
            match kind {
                Some(SYNC) => self.record_pending(from, to, domain, seq, traversal.residence_ns),
                Some(FOLLOW_UP) => {
                    if let Some(residence_ns) = self.take_pending(from, to, domain, seq) {
                        add_correction(payload, residence_ns);
                    }
                }
                _ => {}
            }
        }
        Crossing {
            traversal,
            sync: class == FrameClass::Sync,
        }
    }

    /// Sends one protected-class frame of serialization time `ser_ns`
    /// across the fabric from edge switch `from` to edge switch `to`.
    pub fn traverse(
        &mut self,
        now: SimTime,
        from: usize,
        to: usize,
        ser_ns: i64,
        class: FrameClass,
    ) -> Traversal {
        debug_assert_ne!(from, to);
        let pair = self.pair_index(from, to);
        let dir_ab = from < to;
        let asym = self.cfg.asymmetry_ns.as_nanos();
        let tc = self.cfg.transparent_clock;

        // Transparent clocks correct peer-delay queuing out of the
        // turnaround: the effective delay collapses to propagation
        // (plus the per-hop measurement error).
        if tc && class == FrameClass::Pdelay {
            let mut delay = 0i64;
            for h in 0..self.chains[pair].len() {
                let hop = self.chains[pair][h];
                delay += hop.base_ns + if dir_ab { asym } else { 0 };
                delay += self.tc_noise();
            }
            self.forwarded += 1;
            return Traversal {
                delay: Nanos::from_nanos(delay.max(1)),
                residence_ns: 0,
                dropped: false,
            };
        }

        let cycle = self.cfg.gate_cycle.as_nanos();
        let window = self.cfg.protected_window.as_nanos();
        let hol_max = self.cfg.serialization_ns(self.cfg.cross_frame_bytes);
        let load = self.cfg.cross_traffic_load;
        let drop_ns = self.cfg.drop_horizon.as_nanos();
        let measure = tc && class == FrameClass::Sync;

        let t0 = now.as_nanos() as i64;
        let mut t = t0;
        let mut meas = 0i64;
        let ports = self.busy.ports(pair, dir_ab);
        for h in 0..self.chains[pair].len() {
            let hop = self.chains[pair][h];
            t += hop.base_ns + if dir_ab { asym } else { 0 };
            let arrive = t;
            // Store-and-forward processing.
            t += hop.res_ns;
            // 802.1Qbv: wait for the next protected window.
            t += gate_wait(t, cycle, window);
            // No guard band: a best-effort cross frame that started
            // serializing just before the window still blocks the line.
            if load > 0.0 && self.rng.gen::<f64>() < load {
                t += self.rng.gen_range(0..hol_max.max(1));
            }
            // Serialize behind any protected frame ahead on this port.
            let busy = &mut self.busy.horizon[ports + h];
            let start = t.max(*busy);
            if start - arrive > drop_ns {
                self.dropped += 1;
                return Traversal {
                    delay: Nanos::ZERO,
                    residence_ns: 0,
                    dropped: true,
                };
            }
            t = start + ser_ns;
            *busy = t;
            let mut hop_res = t - arrive;
            if measure {
                hop_res += self.tc_noise();
            }
            meas += hop_res;
        }
        self.forwarded += 1;
        self.max_residence_ns = self.max_residence_ns.max(meas.max(0).unsigned_abs());
        Traversal {
            delay: Nanos::from_nanos(t - t0),
            residence_ns: meas,
            dropped: false,
        }
    }

    /// Records a Sync's measured fabric residence until its Follow_Up
    /// crosses the same pair in the same direction.
    fn record_pending(&mut self, from: usize, to: usize, domain: u8, seq: u16, residence_ns: i64) {
        if self.pending_tc.len() >= PENDING_TC_CAP {
            self.pending_tc.pop_first();
        }
        let key = self.pending_key(from, to, domain, seq);
        self.pending_tc.insert(key, residence_ns);
    }

    /// Takes the pending correction recorded for `(from, to, domain,
    /// seq)`, if any.
    fn take_pending(&mut self, from: usize, to: usize, domain: u8, seq: u16) -> Option<i64> {
        let key = self.pending_key(from, to, domain, seq);
        self.pending_tc.remove(&key)
    }

    /// `(min, max)` extra path delay the fabric contributes in the
    /// `from → to` direction, as seen by the time-transfer math.
    ///
    /// In end-to-end mode the full traversal range applies: static
    /// propagation and residence plus, per hop, up to a full gate
    /// closure, one cross-traffic frame, and serialization behind the
    /// other domains' concurrent Syncs (`concurrent` protected frames
    /// of `ser_ns` each). In transparent-clock mode the correction
    /// field cancels everything but propagation and the per-hop
    /// measurement error.
    pub fn path_bounds(
        &self,
        from: usize,
        to: usize,
        ser_ns: i64,
        concurrent: i64,
    ) -> (Nanos, Nanos) {
        let pair = self.pair_index(from, to);
        let dir_ab = from < to;
        let asym = self.cfg.asymmetry_ns.as_nanos();
        let cycle = self.cfg.gate_cycle.as_nanos();
        let window = self.cfg.protected_window.as_nanos();
        let hol_max = self.cfg.serialization_ns(self.cfg.cross_frame_bytes);
        let mut lo = 0i64;
        let mut hi = 0i64;
        for hop in &self.chains[pair] {
            let prop = hop.base_ns + if dir_ab { asym } else { 0 };
            if self.cfg.transparent_clock {
                lo += prop - self.cfg.tc_error_ns;
                hi += prop + self.cfg.tc_error_ns;
            } else {
                lo += prop + hop.res_ns + ser_ns;
                hi += prop + hop.res_ns + (cycle - window) + hol_max + ser_ns * concurrent.max(1);
            }
        }
        (Nanos::from_nanos(lo), Nanos::from_nanos(hi))
    }

    /// The largest static directional path asymmetry over all pairs:
    /// `max |Σ d_{a→b} − Σ d_{b→a}|` in nanoseconds.
    pub fn path_asymmetry_ns(&self) -> u64 {
        let asym = self.cfg.asymmetry_ns.as_nanos();
        self.chains
            .iter()
            .map(|chain| (chain.len() as i64 * asym).unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    fn tc_noise(&mut self) -> i64 {
        let e = self.cfg.tc_error_ns;
        if e == 0 {
            0
        } else {
            self.rng.gen_range(-e..(e + 1))
        }
    }

    fn pair_index(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        debug_assert!(hi < self.switches);
        // Position of (lo, hi) in the lexicographic (a < b) enumeration.
        lo * (2 * self.switches - lo - 1) / 2 + (hi - lo - 1)
    }

    fn pending_key(&self, from: usize, to: usize, domain: u8, seq: u16) -> u64 {
        let pair = self.pair_index(from, to) as u64;
        let dir = u64::from(from < to);
        (pair << 32) | (dir << 24) | (u64::from(domain) << 16) | u64::from(seq)
    }
}

/// The egress busy horizon of every fabric port, one slot per
/// (pair, direction, hop) in ascending [`busy_key`] order, so a
/// traversal indexes where a map would search. A port no frame has left
/// yet holds [`BusyTable::NEVER`].
///
/// In a snapshot it is the `BTreeMap<u64, i64>` of the used ports:
/// their count, then `(busy_key, horizon)` in ascending key order.
#[derive(Debug, Clone)]
struct BusyTable {
    /// Every slot's [`busy_key`], ascending.
    keys: Vec<u64>,
    /// Slot of hop 0 of each (pair, direction) chain, at
    /// `2 · pair + dir_ab`; the chain's other hops follow it.
    first: Vec<usize>,
    horizon: Vec<i64>,
}

impl BusyTable {
    /// Earlier than any frame: `max` with it is the identity.
    const NEVER: i64 = i64::MIN;

    fn new(chains: &[Vec<Hop>]) -> Self {
        let (mut keys, mut first) = (Vec::new(), Vec::new());
        for (pair, chain) in chains.iter().enumerate() {
            for dir_ab in [false, true] {
                first.push(keys.len());
                keys.extend((0..chain.len()).map(|hop| busy_key(pair, dir_ab, hop)));
            }
        }
        debug_assert!(keys.is_sorted());
        BusyTable {
            horizon: vec![Self::NEVER; keys.len()],
            keys,
            first,
        }
    }

    fn ports(&self, pair: usize, dir_ab: bool) -> usize {
        self.first[2 * pair + usize::from(dir_ab)]
    }
}

impl SnapState for BusyTable {
    fn save_state(&self, w: &mut Writer) {
        let used = self.keys.iter().zip(&self.horizon);
        let used = used.filter(|(_, &horizon)| horizon != Self::NEVER);
        used.clone().count().put(w);
        for (key, horizon) in used {
            key.put(w);
            horizon.put(w);
        }
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.horizon.fill(Self::NEVER);
        for _ in 0..r.take_count()? {
            let (key, horizon) = <(u64, i64)>::get(r)?;
            let slot = self
                .keys
                .binary_search(&key)
                .map_err(|_| SnapError::Malformed("busy key outside the topology"))?;
            if horizon == Self::NEVER {
                return Err(SnapError::Malformed("busy horizon of an unused port"));
            }
            if self.horizon[slot] != Self::NEVER {
                return Err(SnapError::Malformed("duplicate map key"));
            }
            self.horizon[slot] = horizon;
        }
        Ok(())
    }
}

tsn_snapshot::snap_state!(Fabric {
    rng,
    busy: state,
    pending_tc,
    forwarded,
    dropped,
    max_residence_ns,
});

/// Adds `residence_ns` to the correction field of an encoded gPTP
/// message (header bytes 8..16, nanoseconds scaled by 2^16 — IEEE 1588
/// clause 13.3.2.7), as a chain of transparent clocks would.
fn add_correction<P: AsRef<[u8]> + FromIterator<u8>>(payload: &mut P, residence_ns: i64) {
    let p = payload.as_ref();
    if p.len() < 16 {
        return;
    }
    let cur = i64::from_be_bytes(p[8..16].try_into().expect("slice of 8"));
    let patched = cur
        .saturating_add(residence_ns.saturating_mul(65_536))
        .to_be_bytes();
    // Exact-size chain: collected into the new buffer in one pass.
    let (head, tail) = (&p[..8], &p[16..]);
    *payload = head.iter().chain(&patched).chain(tail).copied().collect();
}

/// Wait until the protected window is open at `t_ns` under a gate
/// `cycle` with a protected window of `window` ns at each cycle start.
fn gate_wait(t_ns: i64, cycle: i64, window: i64) -> i64 {
    let phase = t_ns.rem_euclid(cycle);
    if phase < window {
        0
    } else {
        cycle - phase
    }
}

fn busy_key(pair: usize, dir_ab: bool, hop: usize) -> u64 {
    ((pair as u64) << 32) | (u64::from(dir_ab) << 16) | hop as u64
}

/// Uniform draw in `[min, max]` (inclusive).
fn draw_in(rng: &mut StdRng, min: i64, max: i64) -> i64 {
    if min == max {
        min
    } else {
        min + rng.gen_range(0..(max - min + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn fabric_with(cfg: FabricConfig) -> Fabric {
        let mut link_rng = StdRng::seed_from_u64(7);
        Fabric::new(cfg, 4, &mut link_rng, StdRng::seed_from_u64(8))
    }

    #[test]
    fn edge_distances_per_topology() {
        let n = 8;
        assert_eq!(FabricTopology::Line.edge_distance(n, 0, 3), 3);
        assert_eq!(FabricTopology::Line.edge_distance(n, 5, 5), 0);
        assert_eq!(FabricTopology::Ring.edge_distance(n, 0, 5), 3);
        assert_eq!(FabricTopology::Ring.edge_distance(n, 0, 3), 3);
        // Heap indices 1..=8: dist(1,2)=1 (node 0 ↔ node 1),
        // dist(4,5)=(idx 5, idx 6): 5→2→1, 6→3→1 ⇒ 4 steps.
        assert_eq!(FabricTopology::Tree.edge_distance(n, 0, 1), 1);
        assert_eq!(FabricTopology::Tree.edge_distance(n, 4, 5), 4);
    }

    #[test]
    fn hop_count_scales_with_knob_and_distance() {
        let f1 = fabric_with(FabricConfig::line(1));
        let f3 = fabric_with(FabricConfig::line(3));
        assert_eq!(f1.hop_count(0, 1), 1);
        assert_eq!(f1.hop_count(0, 3), 3);
        assert_eq!(f3.hop_count(0, 1), 3);
        assert_eq!(f3.hop_count(0, 3), 9);
        assert_eq!(f3.hop_count(2, 2), 0);
    }

    #[test]
    fn gate_wait_blocks_outside_window() {
        // Cycle 10 µs, window 4 µs.
        let (c, w) = (10_000, 4_000);
        assert_eq!(gate_wait(0, c, w), 0);
        assert_eq!(gate_wait(3_999, c, w), 0);
        assert_eq!(gate_wait(4_000, c, w), 6_000);
        assert_eq!(gate_wait(9_999, c, w), 1);
        assert_eq!(gate_wait(10_000, c, w), 0);
        assert_eq!(gate_wait(24_000, c, w), 6_000);
    }

    #[test]
    fn traversal_delay_grows_with_hops() {
        let mut prev = Nanos::ZERO;
        for hops in [1u32, 2, 4, 8] {
            let mut f = fabric_with(FabricConfig {
                cross_traffic_load: 0.4,
                ..FabricConfig::line(hops)
            });
            let tr = f.traverse(SimTime::from_millis(1), 0, 3, 720, FrameClass::Sync);
            assert!(!tr.dropped);
            assert!(
                tr.delay > prev,
                "hops={hops}: {} must exceed {}",
                tr.delay,
                prev
            );
            prev = tr.delay;
        }
    }

    #[test]
    fn transparent_clock_measures_full_residence() {
        let mut f = fabric_with(FabricConfig {
            transparent_clock: true,
            tc_error_ns: 0,
            cross_traffic_load: 0.5,
            ..FabricConfig::line(2)
        });
        let tr = f.traverse(SimTime::from_millis(3), 0, 2, 720, FrameClass::Sync);
        // With zero measurement error the accumulated residence is
        // exactly the non-propagation share of the delay.
        let pair_hops = f.hop_count(0, 2) as i64;
        let prop: i64 = tr.delay.as_nanos() - tr.residence_ns;
        assert!(prop > 0, "propagation share must be positive");
        assert!(
            prop <= pair_hops * f.config().link_base_max.as_nanos(),
            "propagation share bounded by the static draws"
        );
    }

    #[test]
    fn transparent_clock_calibrates_pdelay_to_propagation() {
        let cfg = FabricConfig {
            transparent_clock: true,
            tc_error_ns: 0,
            cross_traffic_load: 0.9,
            ..FabricConfig::line(4)
        };
        let mut f = fabric_with(cfg);
        let tr = f.traverse(SimTime::from_millis(9), 1, 3, 720, FrameClass::Pdelay);
        let hops = f.hop_count(1, 3) as i64;
        assert!(tr.delay.as_nanos() >= hops * cfg.link_base_min.as_nanos());
        assert!(tr.delay.as_nanos() <= hops * cfg.link_base_max.as_nanos());
        assert_eq!(tr.residence_ns, 0);
    }

    #[test]
    fn concurrent_frames_serialize_on_the_same_port() {
        let mut f = fabric_with(FabricConfig::line(1));
        let now = SimTime::from_millis(2);
        let a = f.traverse(now, 0, 1, 720, FrameClass::Sync);
        let b = f.traverse(now, 0, 1, 720, FrameClass::Sync);
        assert!(
            b.delay.as_nanos() >= a.delay.as_nanos() + 720,
            "the second frame must queue behind the first"
        );
        // The reverse direction is an independent port.
        let c = f.traverse(now, 1, 0, 720, FrameClass::Sync);
        assert!(c.delay.as_nanos() < b.delay.as_nanos());
    }

    #[test]
    fn saturated_port_drops_past_the_horizon() {
        let mut f = fabric_with(FabricConfig {
            drop_horizon: Nanos::from_micros(50),
            ..FabricConfig::line(1)
        });
        let now = SimTime::from_millis(2);
        let mut dropped = false;
        for _ in 0..200 {
            // 12 µs frames pile up on one port until the horizon trips.
            if f.traverse(now, 0, 1, 12_000, FrameClass::Sync).dropped {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "a saturated port must eventually drop");
    }

    /// A 44-byte gPTP message: `kind` nibble, domain 2, correction 5 ns,
    /// sequence id `seq`.
    fn message(kind: u8, seq: u16) -> Vec<u8> {
        let mut m = vec![0u8; 44];
        m[0] = 0x10 | kind;
        m[4] = 2;
        m[8..16].copy_from_slice(&(5i64 << 16).to_be_bytes());
        m[30..32].copy_from_slice(&seq.to_be_bytes());
        m
    }

    fn correction_ns(m: &[u8]) -> i64 {
        i64::from_be_bytes(m[8..16].try_into().unwrap()) >> 16
    }

    #[test]
    fn crossing_patches_the_follow_up_that_matches_a_measured_sync() {
        let mut f = fabric_with(FabricConfig {
            transparent_clock: true,
            ..FabricConfig::line(2)
        });
        let now = SimTime::from_millis(3);
        let mut sync = message(SYNC, 77);
        let s = f.cross(now, 0, 2, 64, &mut sync);
        assert!(s.sync && !s.traversal.dropped);
        assert_eq!(sync, message(SYNC, 77), "a Sync crosses unchanged");
        // Another sequence id, the reverse direction: no match.
        let mut other = message(FOLLOW_UP, 78);
        let mut reverse = message(FOLLOW_UP, 77);
        assert!(!f.cross(now, 0, 2, 64, &mut other).sync);
        f.cross(now, 2, 0, 64, &mut reverse);
        assert_eq!(correction_ns(&other), 5);
        assert_eq!(correction_ns(&reverse), 5);
        // The match takes the Sync's residence on top of its own 5 ns,
        // the rest of the message untouched, exactly once.
        let mut follow_up = message(FOLLOW_UP, 77);
        f.cross(now, 0, 2, 64, &mut follow_up);
        assert_eq!(correction_ns(&follow_up), 5 + s.traversal.residence_ns);
        let mut expected = message(FOLLOW_UP, 77);
        expected[8..16].copy_from_slice(&follow_up[8..16]);
        assert_eq!(follow_up, expected);
        let mut again = message(FOLLOW_UP, 77);
        f.cross(now, 0, 2, 64, &mut again);
        assert_eq!(correction_ns(&again), 5);
    }

    #[test]
    fn crossing_end_to_end_or_dropped_keeps_no_books() {
        let mut e2e = fabric_with(FabricConfig::line(2));
        let now = SimTime::from_millis(3);
        e2e.cross(now, 0, 2, 64, &mut message(SYNC, 9));
        let mut follow_up = message(FOLLOW_UP, 9);
        e2e.cross(now, 0, 2, 64, &mut follow_up);
        assert_eq!(follow_up, message(FOLLOW_UP, 9));
        assert!(e2e.pending_tc.is_empty());
        // A Sync dropped at a saturated hop leaves nothing to patch in.
        let mut tc = fabric_with(FabricConfig {
            transparent_clock: true,
            drop_horizon: Nanos::from_micros(50),
            ..FabricConfig::line(1)
        });
        let dropped = (0..200u16).find(|&seq| {
            let c = tc.cross(now, 0, 1, 1_500, &mut message(SYNC, seq));
            c.traversal.dropped
        });
        let seq = dropped.expect("a saturated port must eventually drop");
        assert_eq!(tc.take_pending(0, 1, 2, seq), None);
        assert_eq!(tc.frames_dropped(), 1);
        // A runt is classified and carried, never indexed out of range.
        let mut runt = vec![0x10 | FOLLOW_UP];
        assert!(!tc.cross(SimTime::from_secs(1), 1, 0, 64, &mut runt).sync);
        assert_eq!(runt, [0x10 | FOLLOW_UP]);
    }

    #[test]
    fn pending_corrections_roundtrip_and_evict() {
        let mut f = fabric_with(FabricConfig::line(1));
        f.record_pending(0, 1, 2, 77, 1234);
        assert_eq!(f.take_pending(0, 1, 2, 77), Some(1234));
        assert_eq!(f.take_pending(0, 1, 2, 77), None);
        // Direction matters.
        f.record_pending(1, 0, 2, 77, 99);
        assert_eq!(f.take_pending(0, 1, 2, 77), None);
        assert_eq!(f.take_pending(1, 0, 2, 77), Some(99));
        // The map is bounded.
        for seq in 0..(2 * PENDING_TC_CAP as u16) {
            f.record_pending(0, 1, 0, seq, i64::from(seq));
        }
        assert!(f.pending_tc.len() <= PENDING_TC_CAP);
    }

    #[test]
    fn path_bounds_widen_with_depth_in_e2e_and_stay_tight_with_tc() {
        let e2e_2 = fabric_with(FabricConfig::line(2));
        let e2e_6 = fabric_with(FabricConfig::line(6));
        let (lo2, hi2) = e2e_2.path_bounds(0, 3, 720, 4);
        let (lo6, hi6) = e2e_6.path_bounds(0, 3, 720, 4);
        assert!(hi2 - lo2 > Nanos::ZERO);
        assert!(hi6 - lo6 > (hi2 - lo2) * 2, "uncertainty grows with depth");

        let tc_6 = fabric_with(FabricConfig {
            transparent_clock: true,
            ..FabricConfig::line(6)
        });
        let (tlo, thi) = tc_6.path_bounds(0, 3, 720, 4);
        let tc_width = thi - tlo;
        assert_eq!(
            tc_width.as_nanos(),
            2 * tc_6.config().tc_error_ns * i64::from(tc_6.hop_count(0, 3)),
            "TC uncertainty is the accumulated measurement error only"
        );
        assert!(tc_width < (hi6 - lo6) / 10);
    }

    #[test]
    fn configured_asymmetry_is_directional_and_reported() {
        let cfg = FabricConfig {
            asymmetry_ns: Nanos::from_nanos(200),
            ..FabricConfig::line(2)
        };
        let f = fabric_with(cfg);
        let (lo_ab, _) = f.path_bounds(0, 3, 720, 4);
        let (lo_ba, _) = f.path_bounds(3, 0, 720, 4);
        let hops = i64::from(f.hop_count(0, 3));
        assert_eq!(lo_ab - lo_ba, Nanos::from_nanos(200 * hops));
        assert_eq!(f.path_asymmetry_ns(), (200 * hops) as u64);
        assert_eq!(fabric_with(FabricConfig::line(2)).path_asymmetry_ns(), 0);
    }

    #[test]
    fn snapshot_roundtrips_and_resumes_identically() {
        let cfg = FabricConfig {
            cross_traffic_load: 0.5,
            transparent_clock: true,
            ..FabricConfig::line(3)
        };
        let mut a = fabric_with(cfg);
        for i in 0..10u64 {
            a.traverse(
                SimTime::from_nanos(i * 125_000),
                0,
                2,
                720,
                FrameClass::Sync,
            );
        }
        a.record_pending(0, 2, 1, 5, 4321);

        let mut w = Writer::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = fabric_with(cfg);
        b.load_state(&mut Reader::new(&bytes)).expect("load");

        // Same draws, same busy horizons, same pending corrections.
        assert_eq!(b.take_pending(0, 2, 1, 5), Some(4321));
        a.take_pending(0, 2, 1, 5);
        for i in 10..20u64 {
            let now = SimTime::from_nanos(i * 125_000);
            assert_eq!(
                a.traverse(now, 0, 2, 720, FrameClass::Sync),
                b.traverse(now, 0, 2, 720, FrameClass::Sync)
            );
        }
    }

    #[test]
    fn busy_table_encodes_as_the_map_of_its_used_ports() {
        let state = |t: &BusyTable| {
            let mut w = Writer::new();
            t.save_state(&mut w);
            w.into_bytes()
        };
        let mut f = fabric_with(FabricConfig::line(2));
        let empty = f.busy.clone();
        assert_eq!(state(&empty), state_of_map(&BTreeMap::new()));
        // Both directions, a long and a short pair, one pair twice.
        for (i, (from, to)) in [(0, 3), (2, 1), (3, 0), (1, 2), (0, 3)].iter().enumerate() {
            let now = SimTime::from_nanos(1_000_000 + i as u64 * 300);
            assert!(
                !f.traverse(now, *from, *to, 720, FrameClass::General)
                    .dropped
            );
        }
        // The same contents, keyed the way the map was.
        let mut map = BTreeMap::new();
        for (a, b, hops) in [(0, 3, 6), (1, 2, 2)] {
            for dir_ab in [true, false] {
                let pair = f.pair_index(a, b);
                for hop in 0..hops {
                    let horizon = f.busy.horizon[f.busy.ports(pair, dir_ab) + hop];
                    assert_ne!(horizon, BusyTable::NEVER);
                    map.insert(busy_key(pair, dir_ab, hop), horizon);
                }
            }
        }
        let bytes = state(&f.busy);
        assert_eq!(bytes, state_of_map(&map));
        let mut back = empty.clone();
        back.load_state(&mut Reader::new(&bytes)).expect("load");
        assert_eq!(back.horizon, f.busy.horizon);

        // A key outside the topology (pair, direction or hop), a
        // duplicate and the sentinel are refused, not indexed.
        let outside = [
            busy_key(6, false, 0),
            busy_key(0, false, 2),
            busy_key(0, true, 0) | 1 << 17,
        ];
        for key in outside {
            let bytes = state_of_map(&BTreeMap::from([(key, 5)]));
            let got = empty.clone().load_state(&mut Reader::new(&bytes));
            assert_eq!(
                got,
                Err(SnapError::Malformed("busy key outside the topology"))
            );
        }
        let mut twice = Writer::new();
        vec![(busy_key(0, true, 1), 5i64); 2].put(&mut twice);
        let got = empty
            .clone()
            .load_state(&mut Reader::new(&twice.into_bytes()));
        assert_eq!(got, Err(SnapError::Malformed("duplicate map key")));
        let never = state_of_map(&BTreeMap::from([(busy_key(0, true, 1), BusyTable::NEVER)]));
        assert!(empty.clone().load_state(&mut Reader::new(&never)).is_err());
    }

    fn state_of_map(map: &BTreeMap<u64, i64>) -> Vec<u8> {
        let mut w = Writer::new();
        map.put(&mut w);
        w.into_bytes()
    }

    #[test]
    #[should_panic(expected = "hops must be in 1..=64")]
    fn zero_hops_rejected() {
        FabricConfig::line(0).validate();
    }

    #[test]
    #[should_panic(expected = "protected window")]
    fn window_must_fit_cycle() {
        FabricConfig {
            protected_window: Nanos::from_micros(20),
            gate_cycle: Nanos::from_micros(12),
            ..FabricConfig::default()
        }
        .validate();
    }
}
