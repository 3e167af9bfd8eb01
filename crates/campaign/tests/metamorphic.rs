//! Metamorphic properties of the campaign engine and the Π* statistics.
//!
//! Metamorphic testing checks *relations between runs* instead of
//! absolute values. Two relations are exact here by construction, so
//! they get byte-for-byte assertions rather than tolerances:
//!
//! * **Axis-permutation invariance** — a run's seed and artifact are
//!   pure functions of its grid *coordinate* ([`tsn_campaign::matrix`]),
//!   never of its enumeration position. Reordering a spec's axis lists
//!   therefore produces the exact same artifact set.
//! * **Time-translation invariance** — the Π* statistics (mean, std,
//!   quantiles, bound-compliance fraction) depend only on sample
//!   values, not on their timestamps. Shifting a whole series in time
//!   leaves every statistic bit-identical.
//! * **No intervention before its instant** — a scenario is
//!   intervention-only, so its runs share the baseline's derived seed; a
//!   cyber run that ends before its first strike is the baseline run.

mod common;

use clocksync::scenario::ScenarioKind;
use common::{artifact_bytes, cold_opts, scratch};
use tsn_campaign::{runner, BaseSpec, CampaignSpec, Grid, RunRecord};
use tsn_metrics::{PrecisionSample, PrecisionSeries};
use tsn_time::Nanos;

fn spec_with_axes(domains: Vec<usize>, seeds: Vec<u64>) -> CampaignSpec {
    CampaignSpec {
        name: "metamorphic".to_string(),
        base: BaseSpec {
            warmup_s: Some(3),
            ..BaseSpec::quick(6)
        },
        scenarios: vec![ScenarioKind::Baseline],
        grid: Grid {
            seeds,
            domains,
            ..Grid::default()
        },
        bisect: None,
    }
}

#[test]
fn axis_permutation_produces_identical_artifacts() {
    let forward = spec_with_axes(vec![4, 5], vec![1, 2]);
    let permuted = spec_with_axes(vec![5, 4], vec![2, 1]);

    let dir_a = scratch("fwd");
    let dir_b = scratch("perm");
    runner::execute(&forward, &cold_opts(&dir_a)).expect("forward campaign");
    runner::execute(&permuted, &cold_opts(&dir_b)).expect("permuted campaign");

    let a = artifact_bytes(&dir_a);
    let b = artifact_bytes(&dir_b);
    assert_eq!(a.len(), 4, "expected 2 domains × 2 seeds");
    assert_eq!(
        a.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        "artifact sets differ"
    );
    for ((name_a, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(bytes_a, bytes_b, "artifact {name_a} differs");
    }

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The paper's strikes land at 21:42 and 31:52, so a cyber run that
/// ends sooner simulates the baseline's world: its record is the
/// baseline run's except for the coordinate and the content hash. This
/// is why `repro-all`, 300 s per run, shows one Π* for the baseline and
/// both cyber scenarios.
#[test]
fn a_cyber_run_that_ends_before_its_first_strike_is_the_baseline_run() {
    let spec = CampaignSpec {
        scenarios: vec![
            ScenarioKind::Baseline,
            ScenarioKind::CyberIdenticalKernels,
            ScenarioKind::CyberDiverseKernels,
        ],
        ..spec_with_axes(vec![], vec![5])
    };
    let dir = scratch("pre-strike");
    let report = runner::execute(&spec, &cold_opts(&dir)).expect("campaign");
    let [baseline, cyber @ ..] = report.records.as_slice() else {
        panic!("no records");
    };
    assert_eq!(cyber.len(), 2);
    for record in cyber {
        assert_ne!(record.coord, baseline.coord);
        let relabeled = RunRecord {
            coord: baseline.coord,
            hash: baseline.hash.clone(),
            ..record.clone()
        };
        assert_eq!(
            relabeled.encode(),
            baseline.encode(),
            "{}",
            record.coord.label()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pi_statistics_are_time_translation_invariant() {
    let mut cfg = clocksync::TestbedConfig::quick(17);
    cfg.duration = Nanos::from_secs(10);
    cfg.warmup = Nanos::from_secs(3);
    cfg.probe_interval = Nanos::from_millis(200);
    let series = clocksync::World::new(cfg).run().series;
    assert!(series.len() > 10, "run produced too few Π* samples");

    // Translate every sample by a constant Δ (one extra warm-up's worth)
    // and compare each statistic bit-for-bit.
    let delta = Nanos::from_secs(3);
    let mut shifted = PrecisionSeries::default();
    for s in series.samples() {
        shifted.push(PrecisionSample {
            at: s.at + delta,
            value: s.value,
            receivers: s.receivers,
        });
    }

    assert_eq!(series.stats(), shifted.stats());
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(series.quantile(q), shifted.quantile(q), "quantile {q}");
    }
    for bound_ns in [1_000, 5_000, 12_636, 50_000] {
        let bound = Nanos::from_nanos(bound_ns);
        assert_eq!(
            series.fraction_within(bound),
            shifted.fraction_within(bound),
            "fraction_within {bound_ns}ns"
        );
    }
    assert_eq!(
        series.max().map(|s| (s.value, s.receivers)),
        shifted.max().map(|s| (s.value, s.receivers)),
    );
}
