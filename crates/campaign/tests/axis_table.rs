//! Pins the axis table ([`tsn_campaign::axis::AXES`]) to the bytes the
//! hand-written per-axis code produced before it: labels, prefix
//! labels, content hashes, the artifact coordinate object and group
//! labels are literal strings recorded from that code; expansion order
//! is a recorded `index hash label` listing; and every builtin must
//! render to its committed `specs/<name>.json`.

use clocksync::scenario::ScenarioKind;
use clocksync::snapshot::warm_prefix_fingerprint;
use std::collections::HashMap;
use std::path::Path;
use tsn_campaign::artifact::BoundsRecord;
use tsn_campaign::axis::{AxisDef, AxisValue, Kind, AXES};
use tsn_campaign::matrix::{content_hash, materialize};
use tsn_campaign::{expand, BaseSpec, CampaignSpec, Coord, Grid, KernelChoice, RunRecord};
use tsn_hyp::SyncClockDiscipline;

const FINGERPRINT: &str = "preset=quick/duration_s=30/warmup_s=10";

fn none_set() -> Coord {
    Coord::new(ScenarioKind::Baseline, 7)
}

fn all_set(election: bool) -> Coord {
    Coord {
        domains: Some(5),
        sync_interval_ms: Some(125),
        kernel: Some(KernelChoice::Diverse),
        fault_rate_per_hour: Some(4),
        discipline: Some(SyncClockDiscipline::FeedForward),
        strategy: Some("trim-edge"),
        compromised: Some(2),
        loss_permille: Some(20),
        partition_s: Some(3),
        election: Some(election),
        announce_interval_ms: Some(500),
        gm_failure_at_s: Some(10),
        rogue_master: Some(1),
        hops: Some(3),
        cross_traffic_pct: Some(30),
        asymmetry_ns: Some(150),
        tc_mode: Some(true),
        topology: Some("ring"),
        adv_offset_ns: Some(20_000),
        fta_f: Some(2),
        ..Coord::new(ScenarioKind::CyberDiverseKernels, 42)
    }
}

fn record(coord: Coord) -> RunRecord {
    RunRecord {
        campaign: "t".to_string(),
        hash: "h".to_string(),
        coord,
        seed: 1,
        counters: clocksync::RunCounters::default(),
        bounds: BoundsRecord {
            d_min_ns: 0,
            d_max_ns: 0,
            reading_error_ns: 0,
            drift_offset_ns: 0,
            pi_ns: 0,
            gamma_ns: 0,
            pi_plus_gamma_ns: 0,
        },
        precision: None,
        fraction_within_bound: 1.0,
        transitions: Vec::new(),
    }
}

/// The `"coord":{…}` member of the coordinate's encoded artifact.
fn coord_json(coord: Coord) -> String {
    let line = record(coord).encode();
    let start = line.find("\"coord\":").expect("coord member");
    let end = line.find(",\"run_seed\"").expect("run_seed member");
    line[start..end].to_string()
}

#[test]
fn none_set_coordinate_renders_the_legacy_bytes() {
    let c = none_set();
    assert_eq!(
        c.label(),
        "scenario=baseline/seed=7/domains=-/sync_ms=-/kernel=-/rate=-/discipline=-/strategy=-/byz=-/loss_pm=-/partition_s=-"
    );
    assert_eq!(c.prefix_label(), "seed=7/domains=-/sync_ms=-/discipline=-");
    assert_eq!(content_hash(FINGERPRINT, &c), "b9b83afae7f42f55");
    assert_eq!(c.group_label(), "baseline");
    assert_eq!(c.derived_seed(), 1190509560084075522);
    assert_eq!(
        coord_json(c),
        r#""coord":{"scenario":"baseline","seed":7,"domains":null,"sync_interval_ms":null,"kernel":null,"fault_rate_per_hour":null,"discipline":null,"strategy":null,"compromised":null,"loss_permille":null,"partition_s":null,"election":null,"announce_interval_ms":null,"gm_failure_at_s":null,"rogue_master":null,"hops":null,"cross_traffic_pct":null,"asymmetry_ns":null,"tc_mode":null,"topology":null,"adv_offset_ns":null,"fta_f":null}"#
    );
}

#[test]
fn all_set_coordinate_renders_the_legacy_bytes() {
    let c = all_set(false);
    assert_eq!(
        c.label(),
        "scenario=cyber_diverse_kernels/seed=42/domains=5/sync_ms=125/kernel=diverse/rate=4/discipline=feed_forward/strategy=trim-edge/byz=2/loss_pm=20/partition_s=3/election=false/announce_ms=500/gm_kill_s=10/rogue=1/hops=3/xload_pct=30/asym_ns=150/tc=true/topo=ring/adv_ns=20000/fta_f=2"
    );
    // An explicit `election=false` keeps the election out of the prefix.
    assert_eq!(
        c.prefix_label(),
        "seed=42/domains=5/sync_ms=125/discipline=feed_forward/fta_f=2/fabric=on/hops=3/xload_pct=30/asym_ns=150/tc=true/topo=ring"
    );
    assert_eq!(content_hash(FINGERPRINT, &c), "2455cdefe18dc9b9");
    assert_eq!(
        c.group_label(),
        "cyber_diverse_kernels M=5 S=125ms kernels=diverse rate=4/h feed_forward adv=trim-edge byz=2 loss=20pm partition=3s election=off announce=500ms gm-kill=10s rogue=1 hops=3 xload=30% asym=150ns tc=on topo=ring adv_ns=20000 f=2"
    );
    assert_eq!(c.derived_seed(), 5842159588646164709);
    assert_eq!(
        coord_json(c),
        r#""coord":{"scenario":"cyber_diverse_kernels","seed":42,"domains":5,"sync_interval_ms":125,"kernel":"diverse","fault_rate_per_hour":4,"discipline":"feed_forward","strategy":"trim-edge","compromised":2,"loss_permille":20,"partition_s":3,"election":false,"announce_interval_ms":500,"gm_failure_at_s":10,"rogue_master":1,"hops":3,"cross_traffic_pct":30,"asymmetry_ns":150,"tc_mode":true,"topology":"ring","adv_offset_ns":20000,"fta_f":2}"#
    );

    let on = all_set(true);
    assert!(on.label().contains("/election=true/announce_ms=500/"));
    assert_eq!(
        on.prefix_label(),
        "seed=42/domains=5/sync_ms=125/discipline=feed_forward/fta_f=2/election=on/announce_ms=500/fabric=on/hops=3/xload_pct=30/asym_ns=150/tc=true/topo=ring"
    );
    assert_eq!(content_hash(FINGERPRINT, &on), "de84a1a1271ffc36");
    assert!(on.group_label().contains(" election=on "));
    assert_eq!(on.derived_seed(), 4502872694101794188);
}

/// Two distinct legal values of an axis.
fn samples(a: &AxisDef) -> [AxisValue; 2] {
    match a.kind {
        Kind::UInt(min, max, _) => {
            assert!(min < max, "{}: degenerate range", a.spec_key);
            [AxisValue::UInt(min), AxisValue::UInt(min + 1)]
        }
        Kind::Bool => [AxisValue::Bool(true), AxisValue::Bool(false)],
        Kind::Name(names) => [AxisValue::Name(names[0]), AxisValue::Name(names[1])],
    }
}

#[test]
fn every_axis_roundtrips_through_spec_and_artifact() {
    for a in AXES {
        let [value, _] = samples(a);

        // Spec: a grid sweeping only this axis renders and parses back.
        let mut grid = Grid {
            seeds: vec![1],
            ..Grid::default()
        };
        (a.grid_push)(&mut grid, value).expect("sample fits the field");
        let spec = CampaignSpec {
            name: "one-axis".to_string(),
            base: BaseSpec::quick(30),
            scenarios: vec![ScenarioKind::Baseline],
            grid,
            bisect: None,
        };
        let text = spec.render();
        assert!(
            text.contains(&format!("\"{}\":[{}", a.spec_key, json_text(value))),
            "{}: {text}",
            a.spec_key
        );
        let back = CampaignSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", a.spec_key));
        assert_eq!(back, spec, "{} did not roundtrip", a.spec_key);
        assert_eq!((a.grid_get)(&back.grid, 0), Some(value));
        assert_eq!(back.total_runs(), 1);

        // Artifact: a coordinate with only this axis active encodes its
        // value under the coord key and decodes back.
        let mut coord = none_set();
        (a.coord_set)(&mut coord, value).expect("sample fits the field");
        assert_eq!((a.coord_get)(&coord), Some(value));
        let line = record(coord).encode();
        assert!(
            line.contains(&format!("\"{}\":{}", a.coord_key, json_text(value))),
            "{}: {line}",
            a.coord_key
        );
        assert_eq!(RunRecord::decode(&line).expect("decodes").coord, coord);

        // Label: the segment carries the value when the axis is active;
        // inactive it renders `-` for the always-rendered axes and
        // nothing for the label-conditional ones.
        let segment = format!("/{}=", a.label_key);
        assert!(coord.label().contains(&format!("{segment}{value}")));
        assert_eq!(
            none_set().label().contains(&format!("{segment}-")),
            a.always,
            "{}",
            a.label_key
        );
        assert_eq!(none_set().label().contains(&segment), a.always);
        // Group labels list active axes only.
        assert_eq!(coord.group_label().split(' ').count(), 2, "{}", a.spec_key);
    }
}

fn json_text(v: AxisValue) -> String {
    match v {
        AxisValue::Name(n) => format!("\"{n}\""),
        other => other.to_string(),
    }
}

/// With every family already active, moving one axis moves the warm
/// prefix (and so the derived seed) iff the table marks it
/// prefix-relevant.
#[test]
fn prefix_relevance_matches_the_table() {
    for a in AXES {
        let [x, y] = samples(a);
        let mut one = all_set(true);
        let mut other = all_set(true);
        (a.coord_set)(&mut one, x).expect("sample fits");
        (a.coord_set)(&mut other, y).expect("sample fits");
        assert_ne!(one.label(), other.label(), "{}", a.spec_key);
        assert_eq!(
            one.prefix_label() != other.prefix_label(),
            a.prefix,
            "{}: {} vs {}",
            a.spec_key,
            one.prefix_label(),
            other.prefix_label()
        );
    }
}

/// The warm prefix is stated twice: `Coord::prefix_label` splits the
/// derived seeds, `warm_prefix_fingerprint` splits the fork groups.
/// Moving one axis on an otherwise inactive coordinate (one seed for
/// both, so only the axis differs) moves the fingerprint iff the table
/// marks the axis prefix-relevant. The coordinate has seven domains, so
/// that both trim-degree samples materialize (N > 3f).
#[test]
fn warm_prefix_fingerprint_agrees_with_the_table() {
    let base = BaseSpec::quick(30);
    for a in AXES {
        let [x, y] = samples(a);
        let fingerprint = |v| {
            let mut coord = Coord {
                domains: Some(7),
                ..none_set()
            };
            (a.coord_set)(&mut coord, v).expect("sample fits");
            let cfg = materialize(&base, coord, 7).expect("sample materializes");
            warm_prefix_fingerprint(&cfg)
        };
        assert_eq!(
            fingerprint(x) != fingerprint(y),
            a.prefix,
            "{}: {x} vs {y}",
            a.spec_key
        );
    }
}

/// In every campaign builtin, runs of one scenario that share a prefix
/// label (and so a derived seed) share a warm-prefix fingerprint, so
/// the runner forks them from one prefix. The scenario is outside the
/// label on purpose: scenarios of one seed are paired comparisons. One
/// scenario, `prior_work_baseline`, changes the world from t = 0 (no
/// mutual GM synchronization), so its fork groups split from the
/// others' where its seeds do not. A frontier's runs are its cells
/// probed on the bisected axis, here at both interval ends.
#[test]
fn builtin_runs_with_one_prefix_label_share_one_fingerprint() {
    for name in CampaignSpec::BUILTINS {
        let mut spec = CampaignSpec::builtin(name).expect("builtin exists");
        if let Some(bisect) = spec.bisect.take() {
            let axis = AxisDef::by_spec_key(bisect.axis).expect("a table axis");
            for end in [bisect.min, bisect.max] {
                (axis.grid_push)(&mut spec.grid, AxisValue::UInt(end)).expect("fits");
            }
        }
        let mut seen: HashMap<(ScenarioKind, String), u64> = HashMap::new();
        for plan in expand(&spec).expect("valid spec") {
            let fingerprint = warm_prefix_fingerprint(&plan.config);
            let first = *seen
                .entry((plan.coord.scenario, plan.coord.prefix_label()))
                .or_insert(fingerprint);
            assert_eq!(first, fingerprint, "{name}: {}", plan.coord.label());
        }
    }
}

#[test]
fn expansion_order_matches_the_recorded_listing() {
    for name in ["adversary-sweep", "fabric-sweep"] {
        let spec = CampaignSpec::builtin(name).expect("builtin exists");
        let listing: String = expand(&spec)
            .expect("valid spec")
            .iter()
            .map(|p| format!("{} {} {}\n", p.index, p.hash, p.coord.label()))
            .collect();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(format!("expand_{}.txt", name.replace('-', "_")));
        let recorded = std::fs::read_to_string(&path).expect("recorded listing");
        assert_eq!(listing, recorded, "{name} enumerates differently");
    }
}

#[test]
fn committed_spec_files_equal_their_builtins() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let file = |name: &str| {
        let path = specs.join(format!("{}.json", name.replace('-', "_")));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    // A builtin *is* its file, parsed; the file must be canonical, so
    // that `campaign spec --builtin` prints it byte for byte.
    for name in CampaignSpec::BUILTINS {
        let text = file(name);
        let spec = CampaignSpec::parse(&text).expect("spec file parses");
        assert_eq!(spec.render(), text, "specs file of {name} is not canonical");
        assert_eq!(CampaignSpec::builtin(name), Some(spec));
    }
}

/// The first five columns of an axis's row in the EXPERIMENTS.md "Axis
/// reference" table (the sixth, the family default, is prose).
fn reference_row(a: &AxisDef) -> String {
    let range = match a.kind {
        Kind::UInt(min, max, _) => format!("{min}..={max}"),
        Kind::Bool => "true / false".to_string(),
        Kind::Name(names) => names.join(" / "),
    };
    let family = a
        .family
        .map_or("—".to_string(), |f| format!("{f:?}").to_lowercase());
    let prefix = if a.prefix { "yes" } else { "no" };
    format!(
        "| `{}` | `{}` | {range} | {family} | {prefix} |",
        a.spec_key, a.label_key
    )
}

#[test]
fn experiments_md_axis_reference_matches_the_table() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md exists");
    let rows: Vec<&str> = doc
        .lines()
        .skip_while(|l| *l != "### Axis reference")
        .filter(|l| l.starts_with("| `"))
        .take(AXES.len())
        .collect();
    assert_eq!(rows.len(), AXES.len(), "one documented row per axis");
    for (a, row) in AXES.iter().zip(rows) {
        let expected = reference_row(a);
        assert!(
            row.starts_with(&expected),
            "EXPERIMENTS.md documents\n  {row}\nbut the axis table says\n  {expected}"
        );
    }
}
