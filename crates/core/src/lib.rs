//! # clocksync
//!
//! A faithful, laptop-scale reproduction of *IEEE 802.1AS Multi-Domain
//! Aggregation for Virtualized Distributed Real-Time Systems* (Ruh,
//! Steiner, Fohler — DSN-S 2023): cyber-resilient clock synchronization
//! built from fault-tolerant dependent clocks and gPTP multi-domain
//! aggregation with a fault-tolerant average (FTA).
//!
//! The paper's hardware testbed (Intel Atom ECDs, I210 NICs, integrated
//! TSN switches, the ACRN hypervisor) is replaced by a deterministic
//! discrete-event simulation; see `DESIGN.md` for the substitution table.
//!
//! * [`TestbedConfig`] — the full experiment configuration
//!   ([`TestbedConfig::paper_default`] reproduces §III-A1);
//! * [`testbed::Testbed`] — everything simulated, built from the
//!   configuration (topology of Fig. 2, clocks, gPTP engines, FTSHMEM
//!   aggregation, hypervisor nodes, links, fault schedule);
//! * [`World`] — the simulation world: the event queue that drives the
//!   testbed, plus faults, attacker, probes and the passive observers;
//! * [`scenario`] — the paper's experiments as named layers over a
//!   configuration ([`scenario::ScenarioKind`]);
//! * [`repro`] — the argument parser and printers the figure
//!   regenerators (the `examples/`) share; its flag parser is also the
//!   `campaign` binary's.
//!
//! # Quickstart
//!
//! ```
//! use clocksync::{TestbedConfig, World};
//! use tsn_time::Nanos;
//!
//! let mut cfg = TestbedConfig::quick(42);
//! cfg.duration = Nanos::from_secs(30);
//! let result = World::new(cfg).run();
//! // Synchronized: measured precision stays within the derived bound.
//! let bound = result.bounds.pi_plus_gamma();
//! assert!(result.series.fraction_within(bound) > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod counters;
mod densemap;
mod interventions;
pub mod node;
mod probe;
pub mod repro;
pub mod scenario;
pub mod snapshot;
pub mod testbed;
mod world;

pub use config::{
    BackgroundTraffic, CorruptPublisher, HypMonitorMode, PartitionWindow, TestbedConfig,
    MIN_SYNC_INTERVAL,
};
pub use probe::RunResult;
pub use world::{RunCounters, World};

pub use tsn_snapshot::WorldSnapshot;

pub use tsn_election as election;
pub use tsn_fabric as fabric;
pub use tsn_faults as faults;
pub use tsn_fta as fta;
pub use tsn_gptp as gptp;
pub use tsn_hyp as hyp;
pub use tsn_metrics as metrics;
pub use tsn_netsim as netsim;
pub use tsn_oracle as oracle;
pub use tsn_time as time;
pub use tsn_trace as trace;

/// Tests of the [`repro`] argument parser and shape-check line.
#[cfg(test)]
mod tests {
    use crate::repro::*;
    use std::path::PathBuf;
    use tsn_time::Nanos;

    #[test]
    fn shape_check_line_prints_the_max_or_says_the_window_is_empty() {
        let bound = Nanos::from_nanos(12_000);
        assert_eq!(
            shape_check_line("before attack", Some(Nanos::from_nanos(950)), bound),
            format!(
                "  before attack:    max = {}  (within bound: true)",
                Nanos::from_nanos(950)
            )
        );
        assert!(
            shape_check_line("strike 2 breaks", Some(Nanos::from_nanos(12_001)), bound)
                .ends_with("(within bound: false)")
        );
        assert_eq!(
            shape_check_line("strike 1 masked", None, bound),
            "  strike 1 masked:  n/a (run shorter than the window)"
        );
    }

    fn parse(args: &[&str]) -> Result<ReproParse, String> {
        ReproArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let ReproParse::Args(a) = parse(&[]).unwrap() else {
            panic!("expected args");
        };
        assert_eq!((a.seed, a.seed(7)), (None, 7));
        assert_eq!(a.minutes, None);
        assert_eq!(a.duration(60), Nanos::from_secs(3600));
        assert_eq!(a.out, PathBuf::from("target/repro"));
    }

    #[test]
    fn parses_all_flags() {
        let ReproParse::Args(a) =
            parse(&["--seed", "99", "--minutes", "3", "--out", "/tmp/x"]).unwrap()
        else {
            panic!("expected args");
        };
        assert_eq!(a.seed(7), 99);
        assert_eq!(a.minutes, Some(3));
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.duration(60), Nanos::from_secs(180));
        assert_eq!(
            parse(&["--seed", "1", "--seed", "2"]).unwrap_err(),
            "--seed given twice"
        );
    }

    #[test]
    fn malformed_values_error_instead_of_silently_defaulting() {
        assert_eq!(
            parse(&["--seed", "banana"]).unwrap_err(),
            "malformed value \"banana\" for --seed"
        );
        assert_eq!(
            parse(&["--minutes", "-3"]).unwrap_err(),
            "malformed value \"-3\" for --minutes"
        );
        assert_eq!(
            parse(&["--minutes", "0"]).unwrap_err(),
            "--minutes must be positive"
        );
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(
            parse(&["--frobnicate"]).unwrap_err(),
            "unknown argument \"--frobnicate\""
        );
        // A bare number was the examples' old positional duration.
        assert_eq!(parse(&["4"]).unwrap_err(), "unknown argument \"4\"");
    }

    #[test]
    fn help_is_recognized() {
        assert!(matches!(parse(&["--help"]).unwrap(), ReproParse::Help));
        assert!(matches!(parse(&["-h"]).unwrap(), ReproParse::Help));
    }
}
