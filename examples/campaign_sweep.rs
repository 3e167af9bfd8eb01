//! A programmatic campaign: sweep clock discipline across seeds and
//! compare the two arms.
//!
//! ```sh
//! cargo run --release --example campaign_sweep
//! ```

use clocksync::scenario::ScenarioKind;
use tsn_campaign::{runner, summary, BaseSpec, CampaignSpec, Grid, RunnerOptions};
use tsn_hyp::SyncClockDiscipline;

fn main() {
    let spec = CampaignSpec {
        name: "example-discipline-sweep".to_string(),
        base: BaseSpec::quick(45),
        scenarios: vec![ScenarioKind::Baseline],
        grid: Grid {
            seeds: vec![1, 2, 3, 4],
            disciplines: vec![
                SyncClockDiscipline::Feedback,
                SyncClockDiscipline::FeedForward,
            ],
            ..Grid::default()
        },
        bisect: None,
    };
    let dir = std::path::PathBuf::from("target/campaigns").join(&spec.name);
    println!(
        "running {} ({} runs) into {} ...",
        spec.name,
        spec.total_runs(),
        dir.display()
    );
    let report = runner::execute(&spec, &RunnerOptions::new(dir)).expect("campaign runs");
    println!(
        "{} executed, {} resumed, {} thread(s)",
        report.executed, report.skipped, report.threads
    );
    let groups = summary::summarize(&report.records);
    print!("{}", summary::render(&groups));

    // The paper attributes its precision spikes to the feedback-based
    // clock discipline; the sweep quantifies the difference.
    let p95 = |d: SyncClockDiscipline| {
        groups
            .iter()
            .find(|g| g.key.discipline == Some(d))
            .and_then(|g| g.pi_star_p95.as_ref())
            .map(|s| s.mean)
            .unwrap_or(f64::NAN)
    };
    println!(
        "cross-seed mean p95(Pi*): feedback {:.0} ns vs feed-forward {:.0} ns",
        p95(SyncClockDiscipline::Feedback),
        p95(SyncClockDiscipline::FeedForward)
    );
}
