//! Observer parity, proved once for the passive channel: a world runs
//! the same under every set of armed observers.
//!
//! Included as a module by the test files that hold its cases
//! (`tests/oracle.rs`, `tests/trace.rs`).

use clocksync::scenario::ScenarioKind;
use clocksync::{RunResult, TestbedConfig, World};
use tsn_campaign::{Coord, RunPlan, RunRecord};
use tsn_time::SimTime;

/// Runs `cfg` under each observer set — none, the oracle, the trace,
/// both — and asserts they are one run: equal state hashes at the
/// midpoint and at the end, and equal run-record bytes. Returns the
/// result of the run with both observers armed.
pub fn assert_observers_do_not_perturb(cfg: &TestbedConfig) -> RunResult {
    let plan = RunPlan {
        index: 0,
        coord: Coord::new(ScenarioKind::Baseline, cfg.seed),
        seed: cfg.seed,
        hash: String::new(),
        config: cfg.clone(),
    };
    let run = |oracle: bool, trace: bool| {
        let mut world = World::new(cfg.clone());
        if oracle {
            world.enable_oracle();
        }
        if trace {
            world.enable_trace();
        }
        let end = world.end_time();
        world.run_until(SimTime::from_nanos(end.as_nanos() / 2));
        let mid_hash = world.state_hash();
        world.run_until(end);
        let end_hash = world.state_hash();
        let result = world.into_result();
        assert_eq!(result.trace.is_some(), trace);
        let record = RunRecord::new("parity", &plan, &result).encode();
        ((mid_hash, end_hash, record), result)
    };
    let (plain, _) = run(false, false);
    for (oracle, trace) in [(true, false), (false, true)] {
        let (observed, _) = run(oracle, trace);
        let set = format!("oracle={oracle} trace={trace}");
        assert_eq!(
            observed.0, plain.0,
            "{set} perturbed the state by the midpoint"
        );
        assert_eq!(observed.1, plain.1, "{set} perturbed the state by the end");
        assert_eq!(observed.2, plain.2, "{set} perturbed the run record");
    }
    let (both, result) = run(true, true);
    assert_eq!(both, plain, "oracle and trace together perturbed the run");
    result
}
