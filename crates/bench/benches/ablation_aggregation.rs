//! Ablation ABL1: the aggregation function under a Byzantine grandmaster.
//!
//! Runs the testbed with one compromised GM (POT shifted −24 µs) and
//! compares FTA (f = 1), plain mean, and median by *quality* — the
//! fraction of precision samples within the bound: the FTA and median
//! mask the Byzantine GM, the mean does not (which is why the paper uses
//! an FTA).

use clocksync::{scenario, TestbedConfig};
use tsn_faults::{AttackPlan, CveId, KernelAssignment, Strike, PAPER_POT_OFFSET};
use tsn_fta::AggregationMethod;
use tsn_time::{Nanos, SimTime};

fn config(method: AggregationMethod, seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::paper_default(seed);
    cfg.duration = Nanos::from_secs(120);
    cfg.aggregation.method = method;
    cfg.kernels = KernelAssignment::identical(4);
    cfg.attack = AttackPlan::new(vec![Strike {
        at: SimTime::from_secs(30),
        target_node: 3,
        cve: CveId::Cve2018_18955,
        pot_offset: PAPER_POT_OFFSET,
        strategy: None,
    }]);
    cfg
}

fn variants() -> Vec<(&'static str, AggregationMethod)> {
    vec![
        ("fta_f1", AggregationMethod::FaultTolerantAverage { f: 1 }),
        ("mean", AggregationMethod::Mean),
        ("median", AggregationMethod::Median),
    ]
}

fn main() {
    eprintln!("\n== ABL1 quality: one Byzantine GM (-24 us), 2 min ==");
    for (name, method) in variants() {
        let r = scenario::run(config(method, 7)).result;
        let stats = r.series.stats().expect("samples");
        eprintln!(
            "  {name:<8} within bound: {:.4}   avg = {:>8.0} ns   max = {}",
            r.series.fraction_within(r.bounds.pi_plus_gamma()),
            stats.mean,
            stats.max
        );
    }
    eprintln!();
}
