//! Ablation ABL5 — the paper's future work, quantified: unikernel
//! clock-sync VMs (Unikraft) versus full Linux VMs.
//!
//! §IV: "they combine predominant performance concerning runtime
//! overhead and boot times with a small memory footprint aiding failure
//! recovery." We model a unikernel clock-sync VM as (a) booting in
//! seconds instead of the better part of two minutes and (b) exhibiting
//! far fewer transient software-stack faults (minimal code base, no igb
//! timestamp-timeout pathology). The quality report shows how much
//! grandmaster *downtime exposure* — the window in which one domain is
//! missing from the FTA — shrinks.

use clocksync::{scenario, TestbedConfig};
use tsn_faults::{InjectorConfig, TransientFaultConfig};
use tsn_metrics::ExperimentEvent;
use tsn_time::Nanos;

#[derive(Clone, Copy)]
struct Profile {
    name: &'static str,
    downtime_min: Nanos,
    downtime_max: Nanos,
    transient: TransientFaultConfig,
}

fn profiles() -> Vec<Profile> {
    vec![
        Profile {
            name: "linux",
            downtime_min: Nanos::from_secs(45),
            downtime_max: Nanos::from_secs(120),
            transient: TransientFaultConfig::default(),
        },
        Profile {
            name: "unikernel",
            downtime_min: Nanos::from_secs(2),
            downtime_max: Nanos::from_secs(5),
            transient: TransientFaultConfig {
                tx_timestamp_timeout_prob: 1e-5,
                deadline_miss_prob: 1e-5,
            },
        },
    ]
}

fn config(p: Profile, seed: u64) -> TestbedConfig {
    let duration = Nanos::from_secs(1200);
    let mut cfg = TestbedConfig::paper_default(seed);
    cfg.duration = duration;
    cfg.transient = p.transient;
    cfg.fault_injection = Some(InjectorConfig {
        duration,
        gm_shutdown_period: Nanos::from_secs(200),
        random_per_hour_min: 2,
        random_per_hour_max: 6,
        downtime_min: p.downtime_min,
        downtime_max: p.downtime_max,
        ..InjectorConfig::paper_default()
    });
    cfg
}

fn main() {
    eprintln!("\n== ABL5 quality: Linux VMs vs unikernel clock-sync VMs (20 min, dense faults) ==");
    for p in profiles() {
        let r = scenario::run(config(p, 19)).result;
        let stats = r.series.stats().expect("samples");
        let rejoins = r
            .events
            .count(|e| matches!(e, ExperimentEvent::GmResumed { .. }));
        eprintln!(
            "  {:<9} GM failures = {:>2}  rejoins = {:>2}  no-quorum intervals = {:>4}  avg = {:>6.0} ns  max = {:>10}  tx timeouts = {}",
            p.name,
            r.counters.gm_failures,
            rejoins,
            r.counters.no_quorum,
            stats.mean,
            format!("{}", stats.max),
            r.counters.tx_timestamp_timeouts,
        );
    }
    eprintln!();
}
