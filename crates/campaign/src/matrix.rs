//! Deterministic expansion of a [`CampaignSpec`] into concrete runs.
//!
//! The matrix is the cross product of the spec's axes, in a fixed
//! nesting order. Each run's seed is derived with the workspace's
//! splittable hashing ([`SeedSplitter`]): the grid seed is the master
//! and the remaining coordinates form the label, so a run's seed — and
//! therefore its result — is a pure function of its coordinate,
//! independent of enumeration order and of how many worker threads
//! execute the campaign. Each run also gets a content hash over the
//! base configuration and coordinate, which names its artifact and
//! keys resume.

pub use crate::axis::Coord;
use crate::axis::{Family, AXES};
use crate::spec::{BaseSpec, CampaignSpec, KernelChoice, SpecError};
use clocksync::TestbedConfig;
use tsn_faults::{
    AttackPlan, ByzantineStrategy, CveId, InjectorConfig, KernelAssignment, Strike,
    PAPER_POT_OFFSET,
};
use tsn_netsim::{LinkFaultPlan, SeedSplitter};
use tsn_time::{Nanos, SimTime};

impl Coord {
    /// The canonical label of this coordinate (stable across releases;
    /// seeds and hashes are derived from it): scenario and seed, then
    /// one segment per axis in table order.
    pub fn label(&self) -> String {
        let mut label = format!("scenario={}/seed={}", self.scenario.name(), self.seed);
        for a in AXES {
            a.push_segment(&mut label, self);
        }
        label
    }

    /// A compact human-readable label listing only active axes — the
    /// name of this coordinate's cross-seed group (the seed is not
    /// rendered).
    pub fn group_label(&self) -> String {
        let mut parts = vec![self.scenario.name().to_string()];
        parts.extend(AXES.iter().filter_map(|a| a.group_part(self)));
        parts.join(" ")
    }

    /// Whether any axis of `family` is active on this coordinate.
    fn family_active(&self, family: Family) -> bool {
        AXES.iter()
            .any(|a| a.family == Some(family) && (a.coord_get)(self).is_some())
    }

    /// Whether this coordinate runs behind the multi-hop switch fabric:
    /// any active fabric axis activates it, with the others defaulted
    /// ([`tsn_fabric::FabricConfig::line`] of 1 hop, no cross-traffic,
    /// symmetric links, end-to-end mode, line topology). An active
    /// fleet ([`Coord::fleet_active`]) also activates the fabric: the
    /// switch fleet condenses into the fabric configuration.
    pub fn fabric_active(&self) -> bool {
        self.family_active(Family::Fabric) || self.fleet_active()
    }

    /// Whether this coordinate runs behind a *condensed* switch fleet:
    /// either fleet axis activates it with the other defaulted (256
    /// nodes, line shape). The fabric's structural axes (`hops`,
    /// `topology`) are mutually exclusive with the fleet axes — the
    /// fleet owns depth and shape.
    pub fn fleet_active(&self) -> bool {
        self.family_active(Family::Fleet)
    }

    /// Whether this coordinate runs with the dynamic election: an
    /// explicit `election` value wins; otherwise any active election
    /// axis activates it implicitly.
    pub fn election_active(&self) -> bool {
        self.election
            .unwrap_or_else(|| self.family_active(Family::Election))
    }

    /// The coordinates that shape a run's warm prefix: the grid seed and
    /// the axes that alter the world before any intervention can act
    /// (topology size, sync interval, clock discipline, trim degree).
    /// Scenario, kernel assignment, injector rate, adversary strategy,
    /// compromised count, adversary magnitude, link loss, and partitions
    /// only influence post-warmup behavior and are deliberately
    /// excluded — the frontier's magnitude probes in particular all
    /// share one warm prefix per cell.
    pub fn prefix_label(&self) -> String {
        let mut label = format!("seed={}", self.seed);
        // The prefix-relevant axes outside any family render exactly as
        // in the full label (the trim degree only when active, keeping
        // derived seeds of pre-existing campaigns unchanged). Family
        // axes render below as the family's *effective* configuration.
        for a in AXES.iter().filter(|a| a.prefix && a.family.is_none()) {
            a.push_segment(&mut label, self);
        }
        // The election's Announce traffic runs during the warm-up, so
        // its *effective* activation and interval shape the prefix; the
        // GM kill and rogue strikes fire strictly after it and stay
        // excluded (their variants remain paired comparisons).
        if self.election_active() {
            label.push_str(&format!(
                "/election=on/announce_ms={}",
                self.announce_interval_ms()
            ));
        }
        // The fabric carries every inter-node gPTP frame from t = 0, so
        // all four of its effective knobs shape the warm prefix.
        if self.fabric_active() {
            label.push_str(&format!(
                "/fabric=on/hops={}/xload_pct={}/asym_ns={}/tc={}",
                self.hops(),
                self.cross_traffic_pct(),
                self.asymmetry_ns(),
                self.tc_mode(),
            ));
            // Label-conditional, NOT defaulted: rendering `/topo=line`
            // for every fabric run would silently change the derived
            // seeds (and artifact bytes) of pre-topology campaigns.
            if let Some(t) = self.topology {
                label.push_str(&format!("/topo={t}"));
            }
        }
        // A fleet replaces the fabric's structural knobs from
        // t = 0, so its effective size and shape are prefix-relevant.
        // (No pre-fleet campaign carries these axes, so rendering the
        // defaults here cannot move an existing derived seed.)
        if self.fleet_active() {
            label.push_str(&format!(
                "/fleet=on/n={}/topo={}",
                self.fleet_nodes(),
                self.fleet_topology(),
            ));
        }
        label
    }

    /// The seed of the fleet's per-switch residence draws: split from
    /// the *grid* seed and the effective fleet axes only, so the fleet
    /// is a pure function of `(spec, seed)` — independent of enumeration
    /// order, thread count, and every non-fleet axis.
    pub fn fleet_seed(&self) -> u64 {
        SeedSplitter::new(self.seed).seed(&format!(
            "fleet/n={}/topo={}",
            self.fleet_nodes(),
            self.fleet_topology(),
        ))
    }

    /// The run's derived seed: splittable hash of the grid seed and the
    /// prefix-relevant coordinates ([`Coord::prefix_label`]), so
    /// neighboring grid points get independent randomness even for
    /// consecutive grid seeds.
    ///
    /// Intervention-only axes (scenario, kernel, fault rate) are *not*
    /// folded in: variants along them share one seed and therefore one
    /// warm prefix. That makes them paired comparisons — the same world,
    /// the same noise, differing only in the intervention — and lets
    /// fork-based execution simulate the shared prefix once.
    pub fn derived_seed(&self) -> u64 {
        SeedSplitter::new(self.seed).seed(&format!("campaign/{}", self.prefix_label()))
    }
}

/// One fully materialized run of a campaign.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Position in the canonical enumeration order (progress display).
    pub index: usize,
    /// The grid coordinate.
    pub coord: Coord,
    /// The derived seed (equals `config.seed`).
    pub seed: u64,
    /// Content hash over base + coordinate (hex, names the artifact).
    pub hash: String,
    /// The ready-to-run configuration.
    pub config: TestbedConfig,
}

/// Expands a spec into its run matrix, in canonical order.
///
/// # Errors
///
/// Returns the [`SpecError`] of [`CampaignSpec::validate`] when the spec
/// is invalid (untrusted input never panics; the CLI maps this to
/// exit 2), and [`SpecError::Invalid`] for a frontier: its runs are the
/// probes [`crate::frontier::execute`] chooses, not a matrix.
pub fn expand(spec: &CampaignSpec) -> Result<Vec<RunPlan>, SpecError> {
    spec.validate()?;
    if let Some(bisect) = spec.bisect {
        return Err(SpecError::Invalid(format!(
            "{} is a frontier (it bisects {}): its runs are the probes the explorer chooses",
            spec.name, bisect.axis
        )));
    }
    let base_fingerprint = spec.base.to_fingerprint();
    let mut plans = Vec::with_capacity(spec.total_runs());
    // Scenario outermost, then a mixed-radix odometer over the axes in
    // table order (the last axis turns fastest; an inactive axis is one
    // digit that leaves the coordinate's field `None`), seeds innermost
    // so progress interleaves replications of the same grid point last.
    let radices: Vec<usize> = AXES
        .iter()
        .map(|a| (a.grid_len)(&spec.grid).max(1))
        .collect();
    for &scenario in &spec.scenarios {
        let mut digits = vec![0usize; AXES.len()];
        loop {
            let mut coord = Coord::new(scenario, 0);
            for (a, &digit) in AXES.iter().zip(&digits) {
                (a.fill)(&spec.grid, digit, &mut coord);
            }
            for &seed in &spec.grid.seeds {
                coord.seed = seed;
                plans.push(plan(&spec.base, &base_fingerprint, coord, plans.len())?);
            }
            let Some(turn) = (0..digits.len()).rfind(|&i| digits[i] + 1 < radices[i]) else {
                break;
            };
            digits[turn] += 1;
            digits[turn + 1..].fill(0);
        }
    }
    Ok(plans)
}

fn plan(
    base: &BaseSpec,
    base_fingerprint: &str,
    coord: Coord,
    index: usize,
) -> Result<RunPlan, SpecError> {
    let seed = coord.derived_seed();
    let config = materialize(base, coord, seed)?;
    let hash = content_hash(base_fingerprint, &coord);
    Ok(RunPlan {
        index,
        coord,
        seed,
        hash,
        config,
    })
}

/// Materializes the testbed configuration of one grid point.
///
/// # Errors
///
/// Returns [`SpecError::Value`] for a strategy name outside
/// [`ByzantineStrategy::NAMES`], and [`SpecError::Invalid`] for a trim
/// degree the domain count cannot carry (N > 3f). [`expand`]
/// pre-validates the spec so neither fires there, but `materialize` is
/// public and a caller can hand it a [`Coord`] that skipped
/// [`CampaignSpec::validate`] — bad input must be an error, never a
/// panic.
pub fn materialize(
    base: &BaseSpec,
    coord: Coord,
    derived_seed: u64,
) -> Result<TestbedConfig, SpecError> {
    let mut cfg = base.materialize(derived_seed);
    if let Some(m) = coord.domains {
        cfg.nodes = m;
        cfg.aggregation.domains = m;
    }
    // Keep the kernels/nodes invariant before the scenario applies; the
    // scenario or the kernel axis may still override the assignment.
    cfg.kernels = KernelAssignment::identical(cfg.nodes);
    if let Some(s) = coord.sync_interval_ms {
        let s = Nanos::from_millis(s as i64);
        cfg.sync_interval = s;
        cfg.aggregation.sync_interval = s;
        cfg.aggregation.staleness = s * 4;
    }
    if let Some(d) = coord.discipline {
        cfg.sync_clock_discipline = d;
    }
    coord.scenario.apply(&mut cfg);
    // Trim-degree axis: keep the configured method family, swap its f.
    // Mean/median baselines have no trim step, so the axis restores the
    // paper's FTA (the axis exists to move f, not to pick the baseline).
    if let Some(f) = coord.fta_f {
        crate::spec::check_fta_f(f, cfg.nodes)?;
        cfg.aggregation.method = match cfg.aggregation.method {
            tsn_fta::AggregationMethod::FaultTolerantMidpoint { .. } => {
                tsn_fta::AggregationMethod::FaultTolerantMidpoint { f }
            }
            _ => tsn_fta::AggregationMethod::FaultTolerantAverage { f },
        };
    }
    if let Some(k) = coord.kernel {
        cfg.kernels = match k {
            KernelChoice::Identical => KernelAssignment::identical(cfg.nodes),
            KernelChoice::Diverse => KernelAssignment::diverse(cfg.nodes, 3.min(cfg.nodes - 1)),
        };
    }
    if let Some(rate) = coord.fault_rate_per_hour {
        let mut fi = cfg.fault_injection.unwrap_or_else(|| InjectorConfig {
            duration: cfg.duration,
            nodes: cfg.nodes,
            ..InjectorConfig::paper_default()
        });
        fi.duration = cfg.duration;
        fi.nodes = cfg.nodes;
        fi.random_per_hour_max = rate;
        fi.random_per_hour_min = fi.random_per_hour_min.min(rate);
        cfg.fault_injection = Some(fi);
    }
    // `count` strikes from +2 s on the highest node indices, like the
    // paper's node-3 strike, all running `strategy`.
    let strikes = |nodes: usize, count: usize, strategy: ByzantineStrategy| {
        let each = (0..count)
            .map(|k| Strike {
                at: SimTime::from_secs(2),
                target_node: nodes - 1 - k,
                cve: CveId::Cve2018_18955,
                pot_offset: PAPER_POT_OFFSET,
                strategy: Some(strategy),
            })
            .collect();
        AttackPlan::new(each)
    };
    // Adversary axes: `compromised` GMs all run the same strategy. Any
    // of the three axes alone activates the attack with the others
    // defaulted; an active magnitude axis rescales the preset's
    // dominant waveform parameter (the frontier's probe axis).
    if coord.family_active(Family::Attack) {
        let name = coord.strategy();
        let strategy = match coord.adv_offset_ns {
            Some(m) => ByzantineStrategy::with_magnitude(name, Nanos::from_nanos(m as i64)),
            None => ByzantineStrategy::named(name),
        }
        .ok_or_else(|| SpecError::Value("grid.strategies[]".to_string(), name.to_string()))?;
        let byz = coord.compromised().min(cfg.nodes - 1);
        cfg.attack = strikes(cfg.nodes, byz, strategy);
    }
    if let Some(permille) = coord.loss_permille {
        if permille > 0 {
            cfg.link_faults = Some(LinkFaultPlan::with_loss(f64::from(permille) / 1000.0));
        }
    }
    if let Some(seconds) = coord.partition_s {
        if seconds > 0 {
            cfg.partition = Some(crate::spec::partition_window(seconds));
        }
    }
    // Election axes: any of them activates dynamic BMCA election unless
    // an explicit `election=false` cell keeps the static control.
    if coord.election_active() {
        let mut el = clocksync::election::ElectionConfig {
            announce_interval: Nanos::from_millis(coord.announce_interval_ms() as i64),
            ..Default::default()
        };
        if let Some(s) = coord.gm_failure_at_s {
            el.gm_failure_at = Some(Nanos::from_secs(s as i64));
            el.gm_failure_node = 0;
        }
        cfg.election = Some(el);
        if let Some(rogues) = coord.rogue_master {
            let rogue = ByzantineStrategy::RogueMaster {
                offset: PAPER_POT_OFFSET,
            };
            cfg.attack = strikes(cfg.nodes, rogues.min(cfg.nodes - 1), rogue);
        }
    }
    // Fabric axes: any of them routes inter-node gPTP traffic through a
    // fabric of TSN switches, with unset axes at their neutral defaults
    // (line topology, 1 hop, no cross-traffic, symmetric links,
    // end-to-end mode). An active fleet condenses into the fabric
    // configuration instead — its structural knobs (depth, shape,
    // residence spread) come from the fleet's size and shape
    // (`tsn_fabric::fleet::condense`), so the explicit `hops`/`topology`
    // axes are rejected alongside it ([`CampaignSpec::validate`]
    // enforces this for specs; a hand-built coordinate gets the same
    // error here).
    if coord.fabric_active() {
        let mut fabric = if coord.fleet_active() {
            if coord.hops.is_some() || coord.topology.is_some() {
                return Err(SpecError::Value(
                    "grid.fleet_nodes/fleet_topology".to_string(),
                    "mutually exclusive with grid.hops and grid.topology".to_string(),
                ));
            }
            let shape_name = coord.fleet_topology();
            let shape = clocksync::fabric::FleetShape::parse(shape_name).ok_or_else(|| {
                SpecError::Value("grid.fleet_topology[]".to_string(), shape_name.to_string())
            })?;
            clocksync::fabric::fleet::condense(
                coord.fleet_nodes(),
                shape,
                coord.fleet_seed(),
                &clocksync::fabric::FabricConfig::default(),
            )
        } else {
            let mut fabric = clocksync::fabric::FabricConfig::line(coord.hops());
            if let Some(t) = coord.topology {
                fabric.topology = crate::spec::parse_topology(t).ok_or_else(|| {
                    SpecError::Value("grid.topology[]".to_string(), t.to_string())
                })?;
            }
            fabric
        };
        fabric.cross_traffic_load = f64::from(coord.cross_traffic_pct()) / 100.0;
        fabric.asymmetry_ns = Nanos::from_nanos(coord.asymmetry_ns() as i64);
        fabric.transparent_clock = coord.tc_mode();
        cfg.fabric = Some(fabric);
    }
    cfg.validate();
    Ok(cfg)
}

impl BaseSpec {
    /// A canonical fingerprint of the base configuration, folded into
    /// every run's content hash so artifacts are invalidated when the
    /// base changes (e.g. a different duration).
    pub fn to_fingerprint(&self) -> String {
        format!(
            "preset={}/duration_s={}/warmup_s={}",
            self.preset.name(),
            self.duration_s
                .map_or_else(|| "-".to_string(), |d| d.to_string()),
            self.warmup_s
                .map_or_else(|| "-".to_string(), |w| w.to_string()),
        )
    }
}

/// The content hash naming a run's artifact: FNV-1a (via the seed
/// splitter's stable hash) over the base fingerprint and the coordinate
/// label, rendered as 16 hex digits.
pub fn content_hash(base_fingerprint: &str, coord: &Coord) -> String {
    let h = SeedSplitter::new(0xC0FFEE).seed(&format!("{base_fingerprint}|{}", coord.label()));
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Grid;
    use clocksync::scenario::ScenarioKind;
    use tsn_hyp::SyncClockDiscipline;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".to_string(),
            base: BaseSpec::quick(10),
            scenarios: vec![ScenarioKind::Baseline, ScenarioKind::PriorWorkBaseline],
            grid: Grid {
                seeds: vec![1, 2],
                domains: vec![4, 5],
                ..Grid::default()
            },
            bisect: None,
        }
    }

    #[test]
    fn expansion_is_complete_and_ordered() {
        let spec = tiny_spec();
        let plans = expand(&spec).expect("valid spec");
        assert_eq!(plans.len(), spec.total_runs());
        assert_eq!(plans.len(), 8);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // All hashes distinct.
        let mut hashes: Vec<_> = plans.iter().map(|p| p.hash.clone()).collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), plans.len());
    }

    #[test]
    fn derived_seeds_are_coordinate_pure() {
        let spec = tiny_spec();
        let a = expand(&spec).expect("valid spec");
        let b = expand(&spec).expect("valid spec");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.hash, y.hash);
        }
        // Different grid points with the same grid seed still get
        // different derived seeds.
        assert_ne!(a[0].seed, a[2].seed);
    }

    #[test]
    fn intervention_axes_share_derived_seeds() {
        // tiny_spec order: scenario outermost, domains, seeds innermost.
        // (Baseline, dom=4, seed=1) is index 0; (PriorWorkBaseline,
        // dom=4, seed=1) is index 4: same prefix coordinates, so the
        // scenario variants are paired (same derived seed) while their
        // artifacts stay distinct (different content hashes).
        let plans = expand(&tiny_spec()).expect("valid spec");
        assert_eq!(plans[0].seed, plans[4].seed);
        assert_ne!(plans[0].hash, plans[4].hash);
        assert_eq!(plans[0].coord.prefix_label(), plans[4].coord.prefix_label());
    }

    #[test]
    fn base_change_invalidates_hashes() {
        let spec = tiny_spec();
        let mut longer = spec.clone();
        longer.base.duration_s = Some(20);
        let a = expand(&spec).expect("valid spec");
        let b = expand(&longer).expect("valid spec");
        assert_ne!(a[0].hash, b[0].hash);
        // Coordinate (and thus derived seed) is unchanged.
        assert_eq!(a[0].seed, b[0].seed);
    }

    /// Regression: `materialize` used to `expect()` that validate() had
    /// interned the strategy name — true inside `expand`, but
    /// `materialize` is public and a hand-built [`Coord`] could reach
    /// the panic. Bad names are a [`SpecError`] now.
    #[test]
    fn materialize_rejects_unknown_strategy_without_panicking() {
        let base = BaseSpec::quick(10);
        let mut coord = Coord {
            strategy: Some("no-such-strategy"),
            ..Coord::new(ScenarioKind::Baseline, 1)
        };
        let err = materialize(&base, coord, 7).expect_err("unknown strategy is an error");
        assert!(matches!(err, SpecError::Value(ref f, ref v)
            if f == "grid.strategies[]" && v == "no-such-strategy"));
        coord.strategy = Some("constant");
        materialize(&base, coord, 7).expect("known strategy materializes");
    }

    #[test]
    fn election_axes_materialize_with_the_family_rule() {
        let base = BaseSpec::quick(30);
        let mut coord = Coord {
            gm_failure_at_s: Some(10),
            rogue_master: Some(1),
            ..Coord::new(ScenarioKind::Baseline, 1)
        };
        // Any election axis activates the election implicitly.
        assert!(coord.election_active());
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        let el = cfg.election.expect("election on");
        assert_eq!(el.gm_failure_at, Some(Nanos::from_secs(10)));
        assert_eq!(el.gm_failure_node, 0);
        let strikes = cfg.attack.strikes();
        assert_eq!(strikes.len(), 1);
        assert_eq!(strikes[0].target_node, cfg.nodes - 1);
        assert!(matches!(
            strikes[0].strategy,
            Some(ByzantineStrategy::RogueMaster { .. })
        ));
        // An explicit `false` wins over the family rule: static
        // assignment, no rogue strikes (the honest control cell).
        coord.election = Some(false);
        assert!(!coord.election_active());
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        assert!(cfg.election.is_none());
        assert!(cfg.attack.strikes().is_empty());
        // The election segments are label-conditional: a coordinate
        // without election axes renders the pre-election label, so
        // hashes of existing campaigns are unchanged.
        coord.election = None;
        coord.gm_failure_at_s = None;
        coord.rogue_master = None;
        assert!(!coord.label().contains("election"));
        assert!(!coord.prefix_label().contains("election"));
        coord.gm_failure_at_s = Some(10);
        assert!(coord.label().ends_with("/gm_kill_s=10"));
        assert!(coord
            .prefix_label()
            .ends_with("/election=on/announce_ms=250"));
    }

    #[test]
    fn fabric_axes_materialize_with_the_family_rule() {
        let base = BaseSpec::quick(20);
        let mut coord = Coord {
            hops: Some(3),
            cross_traffic_pct: Some(30),
            tc_mode: Some(true),
            ..Coord::new(ScenarioKind::Baseline, 1)
        };
        assert!(coord.fabric_active());
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        let fabric = cfg.fabric.expect("fabric on");
        assert_eq!(fabric.hops, 3);
        assert!((fabric.cross_traffic_load - 0.30).abs() < 1e-12);
        assert!(fabric.transparent_clock);
        // Any single fabric axis activates it with the rest defaulted.
        coord.hops = None;
        coord.cross_traffic_pct = None;
        coord.tc_mode = None;
        coord.asymmetry_ns = Some(200);
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        let fabric = cfg.fabric.expect("fabric on");
        assert_eq!(fabric.hops, 1);
        assert_eq!(fabric.asymmetry_ns, Nanos::from_nanos(200));
        assert!(!fabric.transparent_clock);
        // The fabric segments are label-conditional: a coordinate
        // without fabric axes renders the pre-fabric label (and no
        // fabric config), so hashes of existing campaigns are unchanged.
        coord.asymmetry_ns = None;
        assert!(!coord.fabric_active());
        assert!(materialize(&base, coord, 7)
            .expect("valid coord")
            .fabric
            .is_none());
        assert!(!coord.label().contains("hops"));
        assert!(!coord.prefix_label().contains("fabric"));
        coord.hops = Some(6);
        assert!(coord.label().ends_with("/hops=6"));
        assert!(coord
            .prefix_label()
            .ends_with("/fabric=on/hops=6/xload_pct=0/asym_ns=0/tc=false"));
    }

    #[test]
    fn fleet_axes_materialize_and_stay_label_conditional() {
        let base = BaseSpec::quick(20);
        let mut coord = Coord {
            fleet_nodes: Some(256),
            fleet_topology: Some("fat-tree"),
            ..Coord::new(ScenarioKind::Baseline, 1)
        };
        // Fleet axes activate the fabric with a condensed topology:
        // shape maps into the fabric's coarse topology enum, depth is
        // the fleet diameter, residences come from the drawn per-switch
        // values.
        assert!(coord.fleet_active() && coord.fabric_active());
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        let fabric = cfg.fabric.expect("fabric on");
        assert_eq!(fabric.topology, clocksync::fabric::FabricTopology::Tree);
        assert!((1..=64).contains(&fabric.hops));
        // Other fabric axes still compose with the condensed config.
        coord.cross_traffic_pct = Some(40);
        coord.tc_mode = Some(true);
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        let fabric = cfg.fabric.expect("fabric on");
        assert!((fabric.cross_traffic_load - 0.40).abs() < 1e-12);
        assert!(fabric.transparent_clock);
        // Explicit depth/shape axes conflict with the fleet.
        coord.hops = Some(3);
        let err = materialize(&base, coord, 7).expect_err("fleet+hops conflict");
        assert!(matches!(err, SpecError::Value(ref f, _)
            if f == "grid.fleet_nodes/fleet_topology"));
        coord.hops = None;
        coord.cross_traffic_pct = None;
        coord.tc_mode = None;
        // The fleet topology is a pure function of the coordinate: the
        // same coordinate always derives the same fleet seed, and the
        // seed moves with the fleet axes.
        let a = coord.fleet_seed();
        assert_eq!(a, coord.fleet_seed());
        let mut bigger = coord;
        bigger.fleet_nodes = Some(1024);
        assert_ne!(a, bigger.fleet_seed());
        // Labels are conditional: without fleet axes nothing renders
        // (hashes of pre-fleet campaigns are unchanged); with them both
        // label and prefix carry the effective values.
        assert!(coord.label().ends_with("/fleet_n=256/fleet_topo=fat-tree"));
        assert!(coord
            .prefix_label()
            .ends_with("/fleet=on/n=256/topo=fat-tree"));
        coord.fleet_nodes = None;
        coord.fleet_topology = None;
        assert!(!coord.fleet_active());
        assert!(!coord.label().contains("fleet"));
        assert!(!coord.prefix_label().contains("fleet"));
        assert!(materialize(&base, coord, 7)
            .expect("valid coord")
            .fabric
            .is_none());
    }

    #[test]
    fn frontier_axes_materialize_and_stay_label_conditional() {
        let base = BaseSpec::quick(20);
        let mut coord = Coord {
            adv_offset_ns: Some(20_000),
            ..Coord::new(ScenarioKind::Baseline, 1)
        };
        // The magnitude axis alone activates the attack (constant preset
        // rescaled to the probe value).
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        let strikes = cfg.attack.strikes();
        assert_eq!(strikes.len(), 1);
        assert!(matches!(
            strikes[0].strategy,
            Some(ByzantineStrategy::ConstantOffset { offset })
                if offset == Nanos::from_nanos(-20_000)
        ));
        // With a strategy name it rescales that preset instead.
        coord.strategy = Some("colluding");
        coord.compromised = Some(2);
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        for strike in cfg.attack.strikes() {
            assert!(matches!(
                strike.strategy,
                Some(ByzantineStrategy::Colluding { target })
                    if target == Nanos::from_nanos(20_000)
            ));
        }
        // The trim-degree axis swaps f inside the configured family.
        coord.fta_f = Some(0);
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        assert!(matches!(
            cfg.aggregation.method,
            tsn_fta::AggregationMethod::FaultTolerantAverage { f: 0 }
        ));
        // The topology axis activates the fabric with the named shape.
        coord.topology = Some("ring");
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        let fabric = cfg.fabric.expect("fabric on");
        assert_eq!(fabric.topology, clocksync::fabric::FabricTopology::Ring);
        assert_eq!(fabric.hops, 1);
        // Labels: all three segments render; the magnitude is
        // intervention-only (shared warm prefix per cell) while the trim
        // degree and topology are prefix-relevant.
        assert!(coord.label().ends_with("/topo=ring/adv_ns=20000/fta_f=0"));
        let prefix = coord.prefix_label();
        assert!(prefix.contains("/fta_f=0"));
        assert!(prefix.ends_with("/topo=ring"));
        assert!(!prefix.contains("adv_ns"));
        // Label-conditional: clearing the axes restores the pre-frontier
        // label and prefix, so existing campaign hashes and derived
        // seeds are unchanged.
        coord.strategy = None;
        coord.compromised = None;
        coord.topology = None;
        coord.adv_offset_ns = None;
        coord.fta_f = None;
        assert!(!coord.label().contains("adv_ns"));
        assert!(!coord.label().contains("fta_f"));
        assert!(!coord.label().contains("topo"));
        assert!(!coord.prefix_label().contains("fta_f"));
        assert!(!coord.prefix_label().contains("topo"));
    }

    #[test]
    fn partition_axis_uses_shared_window_schedule() {
        let base = BaseSpec::quick(10);
        let coord = Coord {
            partition_s: Some(3),
            ..Coord::new(ScenarioKind::Baseline, 1)
        };
        let cfg = materialize(&base, coord, 7).expect("valid coord");
        assert_eq!(cfg.partition, Some(crate::spec::partition_window(3)));
    }

    #[test]
    fn materialized_configs_validate() {
        let spec = CampaignSpec {
            name: "axes".to_string(),
            base: BaseSpec::quick(10),
            scenarios: vec![
                ScenarioKind::CyberDiverseKernels,
                ScenarioKind::FaultInjection,
            ],
            grid: Grid {
                seeds: vec![3],
                domains: vec![4, 6],
                sync_interval_ms: vec![62, 250],
                kernels: vec![KernelChoice::Identical, KernelChoice::Diverse],
                fault_rate_per_hour: vec![0, 4],
                disciplines: vec![
                    SyncClockDiscipline::Feedback,
                    SyncClockDiscipline::FeedForward,
                ],
                strategies: vec!["trim-edge"],
                compromised: vec![1, 2],
                loss_permille: vec![20],
                partition_s: vec![],
                ..Grid::default()
            },
            bisect: None,
        };
        let plans = expand(&spec).expect("valid spec");
        assert_eq!(plans.len(), 2 * 2 * 2 * 2 * 2 * 2 * 2);
        for p in &plans {
            // `materialize` already ran validate(); check axis effects.
            if let Some(m) = p.coord.domains {
                assert_eq!(p.config.nodes, m);
                assert_eq!(p.config.kernels.len(), m);
            }
            if let Some(s) = p.coord.sync_interval_ms {
                assert_eq!(p.config.sync_interval, Nanos::from_millis(s as i64));
                assert_eq!(p.config.aggregation.staleness, p.config.sync_interval * 4);
            }
            if let Some(rate) = p.coord.fault_rate_per_hour {
                let fi = p.config.fault_injection.expect("injector active");
                assert_eq!(fi.random_per_hour_max, rate);
                assert!(fi.random_per_hour_min <= rate);
            }
            if let Some(byz) = p.coord.compromised {
                let expected = byz.min(p.config.nodes - 1);
                assert_eq!(p.config.attack.strikes().len(), expected);
                for strike in p.config.attack.strikes() {
                    assert!(strike.strategy.is_some(), "axis strike carries a strategy");
                }
            }
            if let Some(pm) = p.coord.loss_permille {
                let lf = p.config.link_faults.as_ref().expect("loss axis wired");
                assert!((lf.loss - f64::from(pm) / 1000.0).abs() < 1e-12);
            }
            assert_eq!(p.config.seed, p.seed);
        }
    }
}
