//! The ablation quality reports (EXPERIMENTS.md): each varies one design
//! choice of the paper's architecture and prints what it does to the
//! measured precision.
//!
//! * ABL1 — the aggregation function under one Byzantine grandmaster
//!   (POT shifted −24 µs): FTA (f = 1) and median mask it, the plain
//!   mean does not, which is why the paper uses an FTA (2 min, seed 7).
//! * ABL4a — the hypervisor monitor period versus takeover behaviour
//!   under dense faults (10 min, seed 17).
//! * ABL4b — the CLOCK_SYNCTIME discipline: feedback, as in the paper's
//!   prototype, versus the feed-forward design its §III-C proposes
//!   (30 min fault-free, seeds 17, 18, 19).
//! * ABL5 — the paper's future work: unikernel clock-sync VMs (boot in
//!   seconds, far fewer transient faults) versus full Linux VMs, by how
//!   much grandmaster downtime exposure shrinks (20 min, seed 19).
//!
//! ABL2 and ABL3 are campaigns (`campaign run --builtin abl2-domains`,
//! `--builtin abl3-sync-interval`); ABL6 is the `congested_network`
//! example. `--minutes` sets every report's duration and `--seed` every
//! report's seed (ABL4b averages it and the next two).
//!
//! ```sh
//! cargo run --release --example ablations -- [--minutes N] [--seed N]
//! ```

use clocksync::repro::ReproArgs;
use clocksync::{TestbedConfig, World};
use tsn_faults::{
    AttackPlan, CveId, InjectorConfig, KernelAssignment, Strike, TransientFaultConfig,
    PAPER_POT_OFFSET,
};
use tsn_fta::AggregationMethod;
use tsn_hyp::SyncClockDiscipline;
use tsn_metrics::ExperimentEvent;
use tsn_time::{Nanos, SimTime};

/// `cfg`'s duration in whole minutes, for the report headers.
fn minutes(cfg: &TestbedConfig) -> f64 {
    cfg.duration.as_secs_f64() / 60.0
}

/// Dense fault injection over `cfg`'s duration: a GM shutdown every
/// `gm_period_s`, `per_hour` random VM shutdowns per hour, each down
/// for `downtime`.
fn dense_faults(
    cfg: &mut TestbedConfig,
    gm_period_s: i64,
    per_hour: (u32, u32),
    downtime: (Nanos, Nanos),
) {
    cfg.fault_injection = Some(InjectorConfig {
        duration: cfg.duration,
        gm_shutdown_period: Nanos::from_secs(gm_period_s),
        random_per_hour_min: per_hour.0,
        random_per_hour_max: per_hour.1,
        downtime_min: downtime.0,
        downtime_max: downtime.1,
        ..InjectorConfig::paper_default()
    });
}

fn abl1_aggregation(args: &ReproArgs) {
    let mut cfg = TestbedConfig::paper_default(args.seed(7));
    cfg.duration = args.duration(2);
    cfg.kernels = KernelAssignment::identical(4);
    cfg.attack = AttackPlan::new(vec![Strike {
        at: SimTime::from_secs(30),
        target_node: 3,
        cve: CveId::Cve2018_18955,
        pot_offset: PAPER_POT_OFFSET,
        strategy: None,
    }]);
    let m = minutes(&cfg);
    println!("\n== ABL1 quality: one Byzantine GM (-24 us), {m:.0} min ==");
    for (name, method) in [
        ("fta_f1", AggregationMethod::FaultTolerantAverage { f: 1 }),
        ("mean", AggregationMethod::Mean),
        ("median", AggregationMethod::Median),
    ] {
        cfg.aggregation.method = method;
        let r = World::new(cfg.clone()).run();
        let stats = r.series.stats().expect("samples");
        println!(
            "  {name:<8} within bound: {:.4}   avg = {:>8.0} ns   max = {}",
            r.series.fraction_within(r.bounds.pi_plus_gamma()),
            stats.mean,
            stats.max
        );
    }
    println!();
}

fn abl4_monitor(args: &ReproArgs) {
    let mut cfg = TestbedConfig::paper_default(args.seed(17));
    cfg.duration = args.duration(10);
    let (s20, s40) = (Nanos::from_secs(20), Nanos::from_secs(40));
    dense_faults(&mut cfg, 150, (4, 8), (s20, s40));
    let m = minutes(&cfg);
    println!("\n== ABL4a quality: monitor period ({m:.0} min, dense faults) ==");
    for period in [62i64, 125, 500] {
        cfg.monitor.period = Nanos::from_millis(period);
        cfg.monitor.freshness_timeout = Nanos::from_millis(period * 4);
        let r = World::new(cfg.clone()).run();
        let stats = r.series.stats().expect("samples");
        println!(
            "  monitor {period:>3} ms: takeovers = {:>2}  avg = {:>6.0} ns  max = {:>10}  within = {:.4}",
            r.counters.takeovers,
            stats.mean,
            format!("{}", stats.max),
            r.series.fraction_within(r.bounds.pi_plus_gamma())
        );
    }
    println!("  (detection latency is nearly free: the affine STSHMEM page free-runs");
    println!("   accurately across the gap; the promoted VM's clock quality dominates)");

    // The discipline comparison needs longer windows so the clock-read
    // spike statistics are meaningful (fault-free, 3 seeds).
    let (seed, duration) = (args.seed(17), args.duration(30));
    let m = duration.as_secs_f64() / 60.0;
    println!("\n== ABL4b quality: CLOCK_SYNCTIME discipline ({m:.0} min, fault-free, 3 seeds) ==");
    for (label, discipline) in [
        ("feedback", SyncClockDiscipline::Feedback),
        ("feed-forward", SyncClockDiscipline::FeedForward),
    ] {
        let mut worst = Nanos::ZERO;
        let mut sum = 0.0;
        let mut spiky = 0usize;
        let mut total = 0usize;
        for seed in seed..seed + 3 {
            let mut cfg = TestbedConfig::paper_default(seed);
            cfg.duration = duration;
            cfg.sync_clock_discipline = discipline;
            let r = World::new(cfg).run();
            let stats = r.series.stats().expect("samples");
            worst = worst.max(stats.max);
            sum += stats.mean;
            spiky += r
                .series
                .samples()
                .iter()
                .filter(|s| s.value > Nanos::from_micros(2))
                .count();
            total += stats.count;
        }
        println!(
            "  {label:<13} avg = {:>6.0} ns  worst spike = {:>10}  samples > 2 us: {:.3} %",
            sum / 3.0,
            format!("{worst}"),
            100.0 * spiky as f64 / total as f64
        );
    }
    println!();
}

fn abl5_unikernel(args: &ReproArgs) {
    let mut cfg = TestbedConfig::paper_default(args.seed(19));
    cfg.duration = args.duration(20);
    let m = minutes(&cfg);
    println!(
        "\n== ABL5 quality: Linux VMs vs unikernel clock-sync VMs ({m:.0} min, dense faults) =="
    );
    let unikernel = TransientFaultConfig {
        tx_timestamp_timeout_prob: 1e-5,
        deadline_miss_prob: 1e-5,
    };
    for (name, downtime, transient) in [
        ("linux", (45, 120), TransientFaultConfig::default()),
        ("unikernel", (2, 5), unikernel),
    ] {
        let downtime = (Nanos::from_secs(downtime.0), Nanos::from_secs(downtime.1));
        dense_faults(&mut cfg, 200, (2, 6), downtime);
        cfg.transient = transient;
        let r = World::new(cfg.clone()).run();
        let stats = r.series.stats().expect("samples");
        let rejoins = r
            .events
            .count(|e| matches!(e, ExperimentEvent::GmResumed { .. }));
        println!(
            "  {:<9} GM failures = {:>2}  rejoins = {:>2}  no-quorum intervals = {:>4}  avg = {:>6.0} ns  max = {:>10}  tx timeouts = {}",
            name,
            r.counters.gm_failures,
            rejoins,
            r.counters.no_quorum,
            stats.mean,
            format!("{}", stats.max),
            r.counters.tx_timestamp_timeouts,
        );
    }
    println!();
}

fn main() {
    let args = ReproArgs::parse();
    abl1_aggregation(&args);
    abl4_monitor(&args);
    abl5_unikernel(&args);
}
