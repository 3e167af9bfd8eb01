//! Campaign-level acceptance of the dynamic BMCA election: the failover
//! and rogue-master behaviour must be readable from the **on-disk
//! artifacts** (records, traces), the election oracles must stay silent
//! under `--check`, and election runs must be byte-identical between
//! cold and forked execution.

mod common;

use common::{artifact_bytes, cold_opts, opts, scratch};
use tsn_campaign::{runner, BaseSpec, CampaignSpec, Grid, RunnerOptions};

/// One seed, election on, GM 0 killed 8 s after warm-up, with and
/// without a rogue master: two runs sharing a warm prefix.
fn election_spec(name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        base: BaseSpec {
            preset: tsn_campaign::Preset::Quick,
            duration_s: Some(22),
            warmup_s: Some(6),
        },
        scenarios: vec![clocksync::scenario::ScenarioKind::Baseline],
        grid: Grid {
            seeds: vec![5],
            election: vec![true],
            announce_interval_ms: vec![250],
            gm_failure_at_s: vec![8],
            rogue_master: vec![0, 1],
            ..Grid::default()
        },
        bisect: None,
    }
}

/// Scans a Chrome-trace JSON text for an instant event `name` whose
/// args object contains every `needles` fragment.
fn trace_has_event(trace: &str, name: &str, needles: &[&str]) -> bool {
    let pat = format!("\"name\":\"{name}\"");
    let mut from = 0;
    while let Some(i) = trace[from..].find(&pat) {
        let at = from + i;
        from = at + pat.len();
        if needles.is_empty() {
            return true;
        }
        let Some(args_at) = trace[at..].find("\"args\":{") else {
            continue;
        };
        let args_start = at + args_at;
        let Some(args_end) = trace[args_start..].find('}') else {
            continue;
        };
        let args = &trace[args_start..args_start + args_end];
        if needles.iter().all(|n| args.contains(n)) {
            return true;
        }
    }
    false
}

#[test]
fn election_failover_is_in_artifacts_and_oracles_stay_silent() {
    let spec = election_spec("election-accept");
    let dir = scratch("accept");
    let trace_dir = scratch("accept-trace");
    let opts = RunnerOptions {
        check: true,
        trace: Some(trace_dir.clone()),
        ..cold_opts(&dir)
    };
    let report = runner::execute(&spec, &opts).expect("campaign runs");
    assert_eq!(report.executed, 2);
    // The at-most-one-master and convergence oracles observed the whole
    // kill + rogue campaign and found nothing to report.
    assert!(
        report.violations.is_empty(),
        "election oracles fired: {:?}",
        report.violations
    );

    // Everything below reads from disk only.
    let records = runner::load(&spec, &dir).expect("artifacts load");
    assert_eq!(records.len(), 2);
    let el = clocksync::election::ElectionConfig::default();
    let bound_ns = el.convergence_bound().as_nanos() as u64;
    for r in &records {
        assert_eq!(r.coord.election, Some(true));
        assert!(r.counters.announce_tx > 0, "no Announce traffic recorded");
        assert!(
            r.counters.elected_gm_changes >= 1,
            "GM kill caused no recorded election churn"
        );
        assert!(
            r.counters.reconvergence_ns > 0 && r.counters.reconvergence_ns <= bound_ns,
            "re-election latency {} ns outside (0, {bound_ns}] bound",
            r.counters.reconvergence_ns
        );
    }
    // The rogue run additionally recorded the capture succeeding.
    let rogue = records
        .iter()
        .find(|r| r.coord.rogue_master == Some(1))
        .expect("rogue run present");
    assert_eq!(rogue.counters.strikes_succeeded, 1);
    assert!(
        rogue.counters.elected_gm_changes
            >= records
                .iter()
                .find(|r| r.coord.rogue_master == Some(0))
                .expect("clean run present")
                .counters
                .elected_gm_changes,
        "rogue capture did not add election churn"
    );

    // The trace names the second-best node (node 1, per the deterministic
    // priority ladder) as the re-elected master of the killed domain 0.
    let trace = std::fs::read_to_string(trace_dir.join(format!("trace-{}.json", rogue.hash)))
        .expect("trace artifact exists");
    assert!(
        trace_has_event(&trace, "elected", &["\"domain\":0", "\"winner\":1"]),
        "trace lacks the domain-0 re-election of node 1"
    );
    assert!(
        trace_has_event(&trace, "vm_failure", &[]),
        "trace lacks the scheduled GM kill"
    );
    assert!(
        trace_has_event(&trace, "promoted", &["\"domain\":0"]),
        "trace lacks the domain-0 promotion"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn election_runs_fork_byte_identically() {
    let spec = election_spec("election-fork");
    let cold_dir = scratch("cold");
    let fork_dir = scratch("fork");
    let cold = runner::execute(&spec, &cold_opts(&cold_dir)).expect("cold campaign");
    assert_eq!(cold.executed, 2);
    let forked = runner::execute(&spec, &opts(&fork_dir)).expect("forked campaign");
    // The kill and the rogue strike are post-warmup interventions, so
    // both runs share one Announce-traffic warm prefix.
    assert_eq!(forked.forked_groups, 1);
    assert!(forked.prefix_events_skipped > 0);

    assert_eq!(
        artifact_bytes(&cold_dir),
        artifact_bytes(&fork_dir),
        "forked election artifacts differ from cold artifacts"
    );

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&fork_dir);
}
