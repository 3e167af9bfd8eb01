//! Testbed configuration.
//!
//! [`TestbedConfig`] captures every knob of the paper's experimental
//! setup (§III-A1): four ECDs with two clock-synchronization VMs each,
//! four gPTP domains with spatially separated GMs, integrated TSN
//! switches in a mesh, S = 125 ms, a 125 ms hypervisor monitor, and the
//! fault/attack models layered on top.

use tsn_faults::{AttackPlan, FaultEvent, InjectorConfig, KernelAssignment, TransientFaultConfig};
use tsn_fta::AggregationConfig;
use tsn_hyp::{MonitorConfig, SyncClockDiscipline};
use tsn_netsim::LinkFaultPlan;
use tsn_time::{JitterConfig, Nanos, OscillatorConfig, ServoConfig};

/// The shortest synchronization interval the World models: 2^-7 s,
/// the fastest `logSyncInterval` it advertises, rounded up to a whole
/// millisecond. A grandmaster's next tick is placed one interval minus
/// the launch lead after the departure it just scheduled; much below
/// this limit that lands before the current event.
pub const MIN_SYNC_INTERVAL: Nanos = Nanos::from_millis(8);

/// Full configuration of one experiment run.
///
/// Serializable, so experiment setups can be stored as config files and
/// attached to published results.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Number of ECDs (each hosts the GM of one gPTP domain), ≥ 2.
    pub nodes: usize,
    /// Clock-synchronization VMs per node. The paper runs 2 (fail-silent,
    /// f + 1, limited by passthrough NICs); 3+ adds standby depth — "it
    /// is straightforward to realize fail-consistent behavior by adding
    /// more NICs" (§II-A).
    pub vms_per_node: usize,
    /// Synchronization interval S.
    pub sync_interval: Nanos,
    /// Peer-delay measurement interval.
    pub pdelay_interval: Nanos,
    /// `phc2sys` STSHMEM update interval.
    pub phc2sys_interval: Nanos,
    /// How `CLOCK_SYNCTIME` tracks the PHC. The paper's prototype uses
    /// feedback control (and attributes its precision spikes to it);
    /// `FeedForward` implements the paper's proposed future-work fix.
    pub sync_clock_discipline: SyncClockDiscipline,
    /// Hypervisor monitor configuration.
    pub monitor: MonitorConfig,
    /// Fault-detection mode of the hypervisor monitor. Fail-silent is
    /// the paper's experimental configuration (2 VMs/node); voting
    /// (fail-consistent, §II-A) needs `vms_per_node ≥ 3`.
    pub monitor_mode: HypMonitorMode,
    /// Optional Byzantine dependent-clock fault: from `at` (measured
    /// runtime) on, the targeted clock-sync VM publishes STSHMEM
    /// parameters shifted by `offset` — a *non*-silent fault that only
    /// the voting monitor can detect.
    pub corrupt_publisher: Option<CorruptPublisher>,
    /// Multi-domain aggregation configuration.
    pub aggregation: AggregationConfig,
    /// `true` (the paper's contribution): grandmasters participate in the
    /// distributed FTA, keeping the GM ensemble mutually synchronized.
    /// `false` reproduces the prior-work end-system design the paper
    /// critiques (Kyriakakis et al., ISORC 2021): only clients aggregate,
    /// the GMs free-run — "they conceptually neglect the problem of
    /// (initially) synchronizing GM clocks of different domains with each
    /// other".
    pub gm_mutual_sync: bool,
    /// PI servo configuration.
    pub servo: ServoConfig,
    /// Oscillator tolerance/wander model for NIC PHCs and host clocks.
    pub oscillator: OscillatorConfig,
    /// Hardware timestamping error model.
    pub ts_jitter: JitterConfig,
    /// Static per-link latency range (drawn once per link per run).
    pub link_base_min: Nanos,
    /// Upper bound of the static per-link latency.
    pub link_base_max: Nanos,
    /// Per-frame link jitter (uniform `[0, jitter)`).
    pub link_jitter: Nanos,
    /// Static per-switch residence latency range.
    pub residence_min: Nanos,
    /// Upper bound of the static residence latency.
    pub residence_max: Nanos,
    /// Per-frame residence jitter.
    pub residence_jitter: Nanos,
    /// Transient software fault model.
    pub transient: TransientFaultConfig,
    /// Kernel assignment of the GM clock-sync VMs.
    pub kernels: KernelAssignment,
    /// The attack plan (empty for the fault-injection experiment).
    pub attack: AttackPlan,
    /// Fault-injection schedule configuration (None for the cyber
    /// experiment, which only uses the attacker).
    pub fault_injection: Option<InjectorConfig>,
    /// Explicit fail-silent VM shutdowns, used verbatim instead of a
    /// generated [`tsn_faults::FaultSchedule`] (deterministic scenario
    /// construction in tests/campaigns). Mutually exclusive with
    /// `fault_injection`.
    pub explicit_faults: Option<Vec<FaultEvent>>,
    /// Network fault model: per-link loss (i.i.d. and burst), asymmetric
    /// delay injection, and timed link-down windows. All activity starts
    /// strictly after the warm-up so the warm prefix stays byte-identical.
    pub link_faults: Option<LinkFaultPlan>,
    /// Timed partition of one node: every inter-switch link incident to
    /// the node's switch goes down for the window (relative to the end of
    /// the warm-up).
    pub partition: Option<PartitionWindow>,
    /// Dynamic BMCA grandmaster election (`None` keeps the paper's static
    /// per-domain grandmaster assignment; the run is then byte-identical
    /// to a build without the election subsystem). When set, slot-0 VMs
    /// run a live Announce/BMCA state machine per domain and the roles in
    /// the Fig. 2 topology become the election's *initial* condition.
    pub election: Option<tsn_election::ElectionConfig>,
    /// Multi-hop switch fabric between the integrated TSN switches
    /// (`None` keeps the paper's direct mesh; the run is then
    /// byte-identical to a build without the fabric subsystem). When
    /// set, every inter-switch link is expanded into a chain of
    /// store-and-forward fabric switches with 802.1Qbv gates, analytic
    /// cross-traffic, and optional transparent clocks.
    pub fabric: Option<tsn_fabric::FabricConfig>,
    /// Measured experiment duration (excludes warm-up).
    pub duration: Nanos,
    /// Warm-up before measurement starts (initial synchronization per
    /// §II-B runs during this period).
    pub warmup: Nanos,
    /// Node hosting the measurement VM `c^m_2` ("chosen arbitrarily").
    pub measurement_node: usize,
    /// Probe period of the precision measurement.
    pub probe_interval: Nanos,
    /// Maximum initial PHC offset from true time (uniform ±).
    pub initial_offset_max: Nanos,
    /// Oscillator wander step period.
    pub wander_interval: Nanos,
    /// Maximum drift rate assumed for the bound (r_max, 5 ppm in the
    /// literature).
    pub r_max_ppb: f64,
    /// Gaussian sigma of the `phc2sys` PHC read error (clock_gettime over
    /// PCIe), in ns.
    pub phc_read_sigma_ns: f64,
    /// Probability that one `phc2sys` PHC read hits a latency spike.
    pub phc_read_spike_prob: f64,
    /// Maximum magnitude of a PHC read spike.
    pub phc_read_spike_max: Nanos,
    /// Gaussian sigma of a guest's `CLOCK_SYNCTIME` read, in ns.
    pub synctime_read_sigma_ns: f64,
    /// Optional best-effort background traffic (congestion ablation).
    pub background: Option<BackgroundTraffic>,
}

/// Hypervisor monitor fault-detection mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HypMonitorMode {
    /// Freshness/liveness detection only (f + 1 redundancy).
    FailSilent,
    /// Majority vote over per-VM candidate parameters (2f + 1
    /// redundancy).
    Voting,
}

/// A timed isolation window for one node (see
/// [`TestbedConfig::partition`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// The node to cut off from the mesh.
    pub node: usize,
    /// Window start, relative to the end of the warm-up.
    pub from: Nanos,
    /// Window end (exclusive), relative to the end of the warm-up.
    pub until: Nanos,
}

/// A Byzantine dependent-clock writer (see
/// [`TestbedConfig::corrupt_publisher`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptPublisher {
    /// Target node.
    pub node: usize,
    /// Target clock-sync VM slot.
    pub slot: usize,
    /// Corruption onset, relative to the measured axis.
    pub at: Nanos,
    /// Shift applied to the published synchronized time.
    pub offset: Nanos,
}

/// Best-effort background load on every link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundTraffic {
    /// Offered load per egress port as a fraction of line rate (0–0.95).
    pub load: f64,
    /// Payload size of each background frame (1500 for full MTU).
    pub frame_bytes: usize,
    /// `true`: 802.1Q strict priority protects gPTP and probe frames
    /// (the TSN configuration); `false`: everything is best-effort
    /// (ablation baseline).
    pub priority_isolation: bool,
}

impl TestbedConfig {
    /// The paper's testbed: 4 ECDs, 4 domains, S = 125 ms, link/residence
    /// latencies calibrated so the derived bounds land near the paper's
    /// (E ≈ 5 µs, Π ≈ 11–13 µs, γ ≈ 1 µs).
    pub fn paper_default(seed: u64) -> Self {
        TestbedConfig {
            seed,
            nodes: 4,
            vms_per_node: 2,
            sync_interval: Nanos::from_millis(125),
            pdelay_interval: Nanos::from_secs(1),
            phc2sys_interval: Nanos::from_millis(125),
            sync_clock_discipline: SyncClockDiscipline::Feedback,
            monitor: MonitorConfig::default(),
            monitor_mode: HypMonitorMode::FailSilent,
            corrupt_publisher: None,
            aggregation: AggregationConfig::paper_default(),
            gm_mutual_sync: true,
            // OpenIL's gPTP profile steps the clock on offsets above
            // 20 us (the attack's -24 us shift lands just past it).
            servo: ServoConfig {
                step_threshold: Nanos::from_micros(20),
                ..ServoConfig::default()
            },
            oscillator: OscillatorConfig::default(),
            ts_jitter: JitterConfig::default(),
            link_base_min: Nanos::from_nanos(1_800),
            link_base_max: Nanos::from_nanos(2_200),
            link_jitter: Nanos::from_nanos(120),
            residence_min: Nanos::from_nanos(700),
            residence_max: Nanos::from_nanos(1_100),
            residence_jitter: Nanos::from_nanos(150),
            transient: TransientFaultConfig::default(),
            kernels: KernelAssignment::identical(4),
            attack: AttackPlan::none(),
            fault_injection: None,
            explicit_faults: None,
            link_faults: None,
            partition: None,
            election: None,
            fabric: None,
            duration: Nanos::from_secs(3600),
            warmup: Nanos::from_secs(30),
            measurement_node: 1,
            probe_interval: Nanos::from_secs(1),
            initial_offset_max: Nanos::from_micros(50),
            wander_interval: Nanos::from_secs(10),
            r_max_ppb: 5_000.0,
            background: None,
            phc_read_sigma_ns: 50.0,
            phc_read_spike_prob: 0.005,
            phc_read_spike_max: Nanos::from_micros(3),
            synctime_read_sigma_ns: 30.0,
        }
    }

    /// A small fast configuration for tests and the quickstart example:
    /// 4 nodes, short duration, no faults.
    pub fn quick(seed: u64) -> Self {
        TestbedConfig {
            duration: Nanos::from_secs(60),
            warmup: Nanos::from_secs(20),
            ..Self::paper_default(seed)
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent settings; called by the testbed builder.
    pub fn validate(&self) {
        // The measurement probe needs a second node, also at f = 0.
        assert!(self.nodes >= 2, "need at least two nodes");
        // Π = u(N, f)(E + Γ) needs N > 3f, f as `Testbed::bounds` takes it.
        let f = self.aggregation.method.f().unwrap_or(1);
        assert!(
            self.nodes > 3 * f,
            "FTA requires N > 3f (got N={}, f={f})",
            self.nodes
        );
        assert!(
            (2..=4).contains(&self.vms_per_node),
            "2 to 4 clock-sync VMs per node supported"
        );
        assert_eq!(
            self.aggregation.domains, self.nodes,
            "one gPTP domain per node is required by the Fig. 2 topology"
        );
        assert!(
            self.measurement_node < self.nodes,
            "measurement node out of range"
        );
        assert_eq!(
            self.kernels.len(),
            self.nodes,
            "kernel assignment must cover every node"
        );
        assert!(
            self.sync_interval == self.aggregation.sync_interval,
            "aggregation sync interval must match the testbed's"
        );
        assert!(
            self.sync_interval >= MIN_SYNC_INTERVAL,
            "sync interval {} is below the {MIN_SYNC_INTERVAL} the World models",
            self.sync_interval
        );
        assert!(
            self.link_base_min <= self.link_base_max,
            "link range inverted"
        );
        assert!(
            self.residence_min <= self.residence_max,
            "residence range inverted"
        );
        if self.monitor_mode == HypMonitorMode::Voting {
            assert!(
                self.vms_per_node >= 3,
                "voting (fail-consistent) monitoring needs 2f+1 >= 3 clock-sync VMs per node"
            );
        }
        if let Some(cp) = &self.corrupt_publisher {
            assert!(cp.node < self.nodes, "corrupt publisher node out of range");
            assert!(
                cp.slot < self.vms_per_node,
                "corrupt publisher slot out of range"
            );
        }
        if let Some(fi) = &self.fault_injection {
            assert_eq!(fi.nodes, self.nodes, "fault injector node count mismatch");
        }
        for s in self.attack.strikes() {
            assert!(s.target_node < self.nodes, "strike target out of range");
        }
        if let Some(faults) = &self.explicit_faults {
            assert!(
                self.fault_injection.is_none(),
                "explicit_faults and fault_injection are mutually exclusive"
            );
            for f in faults {
                assert!(f.node < self.nodes, "explicit fault node out of range");
                assert!(
                    f.reboot_at > f.at,
                    "explicit fault reboot must follow the failure"
                );
            }
        }
        if let Some(plan) = &self.link_faults {
            if let Err(e) = plan.validate() {
                panic!("invalid link fault plan: {e}");
            }
        }
        if let Some(p) = &self.partition {
            assert!(p.node < self.nodes, "partition node out of range");
            assert!(p.until > p.from, "partition window empty or inverted");
        }
        if let Some(el) = &self.election {
            el.validate(self.nodes);
        }
        if let Some(fab) = &self.fabric {
            fab.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        TestbedConfig::paper_default(1).validate();
        TestbedConfig::quick(1).validate();
    }

    #[test]
    fn paper_default_matches_paper_parameters() {
        let c = TestbedConfig::paper_default(1);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.sync_interval, Nanos::from_millis(125));
        assert_eq!(c.monitor.period, Nanos::from_millis(125));
        assert_eq!(c.aggregation.domains, 4);
        assert_eq!(c.r_max_ppb, 5_000.0);
    }

    #[test]
    #[should_panic(expected = "one gPTP domain per node")]
    fn mismatched_domains_rejected() {
        let mut c = TestbedConfig::paper_default(1);
        c.aggregation.domains = 3;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sync interval 7.000ms is below the 8.000ms the World models")]
    fn sync_interval_below_the_modelled_minimum_rejected() {
        let mut c = TestbedConfig::quick(1);
        c.sync_interval = Nanos::from_millis(7);
        c.aggregation.sync_interval = c.sync_interval;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "loss probability 1 outside [0, 1)")]
    fn link_loss_of_one_rejected() {
        let mut c = TestbedConfig::quick(1);
        c.link_faults = Some(tsn_netsim::LinkFaultPlan::with_loss(1.0));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "measurement node out of range")]
    fn bad_measurement_node_rejected() {
        let mut c = TestbedConfig::paper_default(1);
        c.measurement_node = 9;
        c.validate();
    }
}
