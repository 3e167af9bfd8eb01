//! Ablation ABL4: hypervisor monitor period versus takeover behavior,
//! plus the CLOCK_SYNCTIME discipline (feedback, as in the paper's
//! prototype, versus the feed-forward design its §III-C proposes).

use clocksync::{scenario, TestbedConfig};
use tsn_faults::InjectorConfig;
use tsn_hyp::SyncClockDiscipline;
use tsn_time::Nanos;

fn config(monitor_ms: i64, discipline: SyncClockDiscipline, seed: u64) -> TestbedConfig {
    let duration = Nanos::from_secs(600);
    let mut cfg = TestbedConfig::paper_default(seed);
    cfg.duration = duration;
    cfg.monitor.period = Nanos::from_millis(monitor_ms);
    cfg.monitor.freshness_timeout = Nanos::from_millis(monitor_ms * 4);
    cfg.sync_clock_discipline = discipline;
    cfg.fault_injection = Some(InjectorConfig {
        duration,
        gm_shutdown_period: Nanos::from_secs(150),
        random_per_hour_min: 4,
        random_per_hour_max: 8,
        downtime_min: Nanos::from_secs(20),
        downtime_max: Nanos::from_secs(40),
        ..InjectorConfig::paper_default()
    });
    cfg
}

fn main() {
    eprintln!("\n== ABL4a quality: monitor period (10 min, dense faults) ==");
    for period in [62i64, 125, 500] {
        let r = scenario::run(config(period, SyncClockDiscipline::Feedback, 17)).result;
        let stats = r.series.stats().expect("samples");
        eprintln!(
            "  monitor {period:>3} ms: takeovers = {:>2}  avg = {:>6.0} ns  max = {:>10}  within = {:.4}",
            r.counters.takeovers,
            stats.mean,
            format!("{}", stats.max),
            r.series.fraction_within(r.bounds.pi_plus_gamma())
        );
    }
    eprintln!("  (detection latency is nearly free: the affine STSHMEM page free-runs");
    eprintln!("   accurately across the gap; the promoted VM's clock quality dominates)");

    // The discipline comparison needs longer windows so the clock-read
    // spike statistics are meaningful (30 min, fault-free, 3 seeds).
    eprintln!("\n== ABL4b quality: CLOCK_SYNCTIME discipline (30 min, fault-free, 3 seeds) ==");
    for (label, discipline) in [
        ("feedback", SyncClockDiscipline::Feedback),
        ("feed-forward", SyncClockDiscipline::FeedForward),
    ] {
        let mut worst = Nanos::ZERO;
        let mut sum = 0.0;
        let mut spiky = 0usize;
        let mut total = 0usize;
        for seed in [17u64, 18, 19] {
            let mut cfg = TestbedConfig::paper_default(seed);
            cfg.duration = Nanos::from_secs(1800);
            cfg.sync_clock_discipline = discipline;
            let r = scenario::run(cfg).result;
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
        eprintln!(
            "  {label:<13} avg = {:>6.0} ns  worst spike = {:>10}  samples > 2 us: {:.3} %",
            sum / 3.0,
            format!("{worst}"),
            100.0 * spiky as f64 / total as f64
        );
    }
    eprintln!();
}
