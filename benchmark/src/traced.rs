//! The traced run (`--trace 1`): one extra execution with every
//! outside observer on, then the probes, then the layer table.
//!
//! Per workload: set-up → warm-up → one plain execution (the untraced
//! reference) → one traced execution with `enable_trace_capped(0)` for
//! exact pop/activity counts at flat memory and harness spans around
//! every call into a layer → one execution under the counting
//! allocator (on its own, because counting costs a third of the wall
//! and would drown the tracer's own overhead) → on World workloads one
//! with the invariant oracle armed. End-to-end metrics never come from
//! here; every observed execution's output must equal the plain one's
//! (observer on/off parity), and `trace.overhead_share` /
//! `oracle.overhead_share` say what observing cost.

use crate::metrics::{self, Metrics};
use crate::spans::Spans;
use crate::workloads::{self, Inputs, Observe, Outcome, Workload};
use crate::{alloc, probes, Verdict};
use clocksync::World;
use std::path::Path;
use std::time::Instant;
use tsn_campaign::{matrix, CampaignSpec, RunRecord};

/// `run_until` slices of the traced World execution;
/// `core.slice_drift` is the last one's wall over the first's.
const SLICES: u32 = 6;

/// Pop kinds with a `core.pops.*` metric of their own; every other kind
/// (fault, reboot, strike, gm_kill, link_window, background_tick, and
/// any kind added later) is collected in `core.pops.fault`, so the
/// `core.pops.*` always sum to `core.events`.
const POP_METRICS: [(&str, &str); 10] = [
    ("transmit", "core.pops.transmit"),
    ("port_free", "core.pops.port_free"),
    ("arrive", "core.pops.arrive"),
    ("gm_sync_tick", "core.pops.gm_sync_tick"),
    ("pdelay_tick", "core.pops.pdelay_tick"),
    ("phc2sys_tick", "core.pops.phc2sys_tick"),
    ("monitor_tick", "core.pops.monitor_tick"),
    ("election_tick", "core.pops.election_tick"),
    ("probe_tick", "core.pops.probe_tick"),
    ("wander_tick", "core.pops.wander_tick"),
];

const ACTIVITY_METRICS: [(&str, &str); 10] = [
    ("netsim", "trace.activity.netsim"),
    ("gptp", "trace.activity.gptp"),
    ("fta", "trace.activity.fta"),
    ("servo", "trace.activity.servo"),
    ("hyp", "trace.activity.hyp"),
    ("time", "trace.activity.time"),
    ("faults", "trace.activity.faults"),
    ("measure", "trace.activity.measure"),
    ("election", "trace.activity.election"),
    ("fabric", "trace.activity.fabric"),
];

/// A real artifact of this build for the campaign-layer probes: one
/// 80 s quick-baseline run, recorded the way the runner would.
fn probe_record() -> Result<RunRecord, String> {
    let mut spec = CampaignSpec::builtin("quick-baseline").expect("builtin exists");
    spec.grid.seeds = vec![1];
    let plan = matrix::expand(&spec)
        .map_err(|e| format!("probe spec: {e}"))?
        .swap_remove(0);
    let result = World::new(plan.config.clone()).run();
    Ok(RunRecord::new(&spec.name, &plan, &result))
}

/// The exact counts of the traced execution (source C).
fn counts(m: &mut Metrics, traced: &Outcome) {
    m.set("accuracy.precision_mean_ns", traced.precision_mean_ns);
    m.set("core.events", traced.events as f64);
    if let Some(trace) = &traced.trace {
        let mut other = 0u64;
        for (kind, n) in &trace.pop_kinds {
            match POP_METRICS.iter().find(|(k, _)| k == kind) {
                Some((_, name)) => m.set(name, *n as f64),
                None => other += n,
            }
        }
        m.set("core.pops.fault", other as f64);
        for (sub, n) in &trace.subsystems {
            let (_, name) = ACTIVITY_METRICS
                .iter()
                .find(|(k, _)| *k == sub.name())
                .expect("every trace subsystem has an activity metric");
            m.set(name, *n as f64);
        }
    }
    let c = &traced.counters;
    m.set("netsim.frames_queued", c.frames_queued as f64);
    m.set("gptp.tx_timestamp_timeouts", c.tx_timestamp_timeouts as f64);
    m.set("fta.aggregations", c.aggregations as f64);
    m.set("fta.no_quorum", c.no_quorum as f64);
    m.set("hyp.takeovers", c.takeovers as f64);
    m.set("fabric.frames_forwarded", c.fabric_frames_forwarded as f64);
    m.set("fabric.frames_dropped", c.fabric_frames_dropped as f64);
    m.set("election.announce_tx", c.announce_tx as f64);
    if let Some(campaign) = &traced.campaign {
        m.set(
            "campaign.runner.forked_groups",
            campaign.forked_groups as f64,
        );
        m.set(
            "campaign.runner.prefix_events_skipped",
            campaign.prefix_events_skipped as f64,
        );
    }
}

/// `model.share.*`: exact count x isolated probe cost, over the traced
/// wall. Coarse by construction — the formulas are the documented
/// contract (README.md), `unattributed` is the remainder and is printed
/// as is, even when negative. A campaign's Worlds run behind the
/// runner, where no pop count is visible from outside, so a campaign
/// workload gets an `artifact` row only and its Worlds stay
/// unattributed.
fn model(m: &mut Metrics, workload: Workload, traced: &Outcome) {
    let g = |name: &str| m.get(name);
    let mean = |a: &str, b: &str| (m.get(a) + m.get(b)) / 2.0;
    let arrive = g("core.pops.arrive");
    let ops = traced.attempted as f64;
    let world = [
        (
            "model.share.queue",
            g("core.events") * g("netsim.queue.push_pop_ns"),
        ),
        (
            "model.share.netsim",
            g("core.pops.transmit") * g("netsim.qdisc.enqueue_pop_ns"),
        ),
        (
            // Every arriving PTP frame is decoded once and is half of a
            // Sync/Follow_Up pair handled by a bridge relay or a slave.
            "model.share.gptp",
            arrive * mean("gptp.msg.sync_decode_ns", "gptp.msg.follow_up_decode_ns")
                + arrive / 2.0 * mean("gptp.bridge.relay_ns", "gptp.port.slave_offset_ns")
                + g("core.pops.gm_sync_tick") * g("gptp.port.master_sync_ns")
                + g("core.pops.pdelay_tick") * g("gptp.pdelay.exchange_ns"),
        ),
        (
            "model.share.fta_servo",
            g("fta.aggregations") * g("fta.round_ns"),
        ),
        (
            "model.share.hyp",
            g("core.pops.phc2sys_tick") * g("hyp.phc2sys.tick_ns")
                + g("core.pops.monitor_tick") * g("hyp.monitor.tick_ns"),
        ),
        (
            "model.share.fabric",
            g("fabric.frames_forwarded") * g("fabric.traverse_tc_ns"),
        ),
        (
            // Each Announce reaches the three other nodes.
            "model.share.election",
            g("core.pops.election_tick") * g("election.step_ns")
                + g("election.announce_tx") * 3.0 * g("election.announce_rx_ns"),
        ),
        (
            "model.share.metrics",
            g("core.pops.probe_tick") * g("metrics.precision.push_ns")
                + g("metrics.precision.stats_ns"),
        ),
    ];
    let artifact = match workload {
        Workload::Summarize => {
            ops * (g("campaign.artifact.decode_ns") + g("campaign.summary.push_ns"))
        }
        Workload::CampaignRepro | Workload::CampaignForkSweep => {
            ops * (g("campaign.artifact.encode_ns") + g("campaign.artifact.decode_ns"))
        }
        _ => 0.0,
    };
    let wall_ns = traced.wall_s * 1e9;
    let mut attributed = artifact / wall_ns;
    m.set("model.share.artifact", artifact / wall_ns);
    for (name, ns) in world {
        let share = if workload.is_world() {
            ns / wall_ns
        } else {
            0.0
        };
        m.set(name, share);
        attributed += share;
    }
    m.set("model.share.unattributed", 1.0 - attributed);
}

fn print_layer_table(m: &Metrics, workload: Workload, plain: &Outcome, traced: &Outcome) {
    println!(
        "layer table for {} — count x ISOLATED probe cost / traced wall ({:.4} s; untraced \
         reference {:.4} s). Probes say what an operation costs alone, not in situ.",
        workload.name(),
        traced.wall_s,
        plain.wall_s
    );
    for (name, _, _) in metrics::PER_LAYER
        .iter()
        .filter(|d| d.0.starts_with("model.share."))
    {
        println!("  {:<28} {:>8.2} %", name, m.get(name) * 100.0);
    }
}

/// Wall seconds of running every planned configuration of `spec_text`
/// as a standalone `World`, with no campaign around it.
fn standalone_world_seconds(spec_text: &str) -> Result<f64, String> {
    let spec = CampaignSpec::parse(spec_text).map_err(|e| format!("spec: {e}"))?;
    let plans = matrix::expand(&spec).map_err(|e| format!("expand: {e}"))?;
    let start = Instant::now();
    for plan in plans {
        std::hint::black_box(World::new(plan.config).run());
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Campaign-only measurements that need the finished directory of the
/// traced execution or further executions of the same spec.
fn campaign_extras(
    m: &mut Metrics,
    verdict: &mut Verdict,
    workload: Workload,
    inputs: &Inputs,
    plain: &Outcome,
    traced: &Outcome,
    execute_s: f64,
) -> Result<(), String> {
    let Inputs::Campaign {
        spec_text, root, ..
    } = inputs
    else {
        return Ok(());
    };
    let spec = CampaignSpec::parse(spec_text).map_err(|e| format!("spec: {e}"))?;
    let dir = traced
        .dir
        .as_ref()
        .expect("traced campaign keeps its directory");

    // Re-invoking a finished campaign: every run resumes from its
    // artifact.
    let start = Instant::now();
    let resumed = workloads::execute_campaign(&spec, dir, workload.forks(), 1)?;
    let resume_s = start.elapsed().as_secs_f64();
    if resumed.executed != 0 {
        verdict
            .problems
            .push(format!("resume re-executed {} run(s)", resumed.executed));
    }
    m.set(
        "campaign.runner.resume_ns_per_run",
        resume_s * 1e9 / resumed.skipped.max(1) as f64,
    );

    match workload {
        Workload::CampaignRepro => {
            let worlds_s = standalone_world_seconds(spec_text)?;
            m.set(
                "campaign.runner.overhead_share",
                1.0 - worlds_s / plain.wall_s,
            );
            // Informational: with one core the ratio is 1 by definition.
            let parallel_dir = workloads::fresh_dir(root)?;
            let start = Instant::now();
            workloads::execute_campaign(&spec, &parallel_dir, false, 0)?;
            m.set(
                "campaign.runner.parallel_speedup",
                execute_s / start.elapsed().as_secs_f64(),
            );
        }
        Workload::CampaignForkSweep => {
            // Forking must not change a byte: a cold execution of a
            // slice of the grid (first seed, first two strategies) has
            // to reproduce the forked artifacts of the same runs.
            let mut slice = spec.clone();
            slice.grid.seeds.truncate(1);
            slice.grid.strategies.truncate(2);
            let cold_dir = workloads::fresh_dir(root)?;
            workloads::execute_campaign(&slice, &cold_dir, false, 1)?;
            let mut compared = 0;
            for plan in matrix::expand(&slice).map_err(|e| format!("expand: {e}"))? {
                let name = format!("runs/run-{}.jsonl", plan.hash);
                let cold =
                    std::fs::read(cold_dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
                let forked = std::fs::read(dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
                if cold != forked {
                    verdict.problems.push(format!(
                        "{name}: forked artifact differs from cold execution"
                    ));
                }
                compared += 1;
            }
            println!("fork parity: {compared} cold artifacts byte-identical to the forked ones");
        }
        _ => {}
    }
    Ok(())
}

/// The plain World execution again with the invariant oracle armed.
fn oracle_overhead(inputs: &Inputs, plain: &Outcome, verdict: &mut Verdict) -> Result<f64, String> {
    let mut obs = Observe::plain();
    obs.oracle = true;
    let checked = inputs.execute(&mut obs)?;
    verdict.absorb("oracle-checked execution", &checked);
    Ok(checked.wall_s / plain.wall_s - 1.0)
}

/// Makes `workload`'s traced run and returns the per-layer metrics.
pub fn run(workload: Workload, seed: u64, scratch: &Path) -> Result<(Metrics, Verdict), String> {
    let mut spans = Spans::on();
    let s = spans.begin("setup.inputs");
    let inputs = workloads::setup(workload, seed, scratch)?;
    spans.end(s);
    inputs.warm_up()?;
    let plain = inputs.execute(&mut Observe::plain())?;

    let mut obs = Observe::plain();
    obs.spans = spans;
    obs.world_trace = true;
    obs.slices = SLICES;
    obs.keep_dir = true;
    let s = obs.spans.begin("execute.traced");
    let traced = inputs.execute(&mut obs)?;
    obs.spans.end(s);
    let spans = obs.spans;

    alloc::arm();
    let counted = inputs.execute(&mut Observe::plain());
    let allocs = alloc::disarm();
    let counted = counted?;

    // Same output with every observer on as with all of them off.
    let mut verdict = Verdict::new();
    verdict.absorb("plain execution", &plain);
    verdict.absorb("traced execution", &traced);
    verdict.absorb("allocation-counted execution", &counted);
    println!(
        "info {} {} precision_mean_ns={}",
        workload.name(),
        traced.info,
        traced.precision_mean_ns
    );

    let mut m = Metrics::new(&metrics::PER_LAYER);
    counts(&mut m, &traced);
    if traced.events > 0 {
        m.set(
            "core.ns_per_event",
            plain.wall_s * 1e9 / traced.events as f64,
        );
        m.set("core.events_per_s", traced.events as f64 / plain.wall_s);
    }
    m.set("core.world_new_s", spans.seconds("core.world_new"));
    m.set("core.into_result_s", spans.seconds("core.into_result"));
    let slices = spans.seconds_with_prefix("core.run_until.slice_");
    if let (Some(first), Some(last)) = (slices.first(), slices.last()) {
        m.set("core.slice_drift", last / first);
    }
    m.set("trace.overhead_share", traced.wall_s / plain.wall_s - 1.0);
    if workload.is_world() {
        m.set(
            "oracle.overhead_share",
            oracle_overhead(&inputs, &plain, &mut verdict)?,
        );
    }
    // Per event on a World workload; per run or per record elsewhere.
    let per = if traced.events > 0 {
        traced.events
    } else {
        traced.attempted.max(1)
    };
    m.set("alloc.count_per_event", allocs.count as f64 / per as f64);
    m.set("alloc.bytes_per_run", allocs.bytes as f64);
    m.set(
        "alloc.peak_mib",
        allocs.peak_bytes as f64 / (1024.0 * 1024.0),
    );

    campaign_extras(
        &mut m,
        &mut verdict,
        workload,
        &inputs,
        &plain,
        &traced,
        spans.seconds("campaign.execute"),
    )?;
    m.extend(probes::run_all(workloads::FORK_SPEC, &probe_record()?));
    model(&mut m, workload, &traced);
    print_layer_table(&m, workload, &plain, &traced);

    let trace_file = scratch
        .parent()
        .expect("scratch lives in the build directory")
        .join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace_file, spans.to_json())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    println!("spans written to {}", trace_file.display());
    Ok((m, verdict))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::scenario::ScenarioKind;
    use clocksync::TestbedConfig;

    /// A short traced World run: `core.pops.*` must sum to
    /// `core.events`, whatever kinds the run popped.
    #[test]
    fn pops_sum_to_events() {
        let mut cfg = TestbedConfig::quick(3);
        cfg.warmup = clocksync::time::Nanos::from_secs(2);
        cfg.duration = clocksync::time::Nanos::from_secs(6);
        ScenarioKind::FaultInjection.apply(&mut cfg);
        let inputs = Inputs::World {
            workload: Workload::FaultInjection,
            cfg: Box::new(cfg),
        };
        let mut obs = Observe::plain();
        obs.world_trace = true;
        let traced = inputs.execute(&mut obs).unwrap();
        let mut m = Metrics::new(&metrics::PER_LAYER);
        counts(&mut m, &traced);
        let pops: f64 = metrics::PER_LAYER
            .iter()
            .filter(|d| d.0.starts_with("core.pops."))
            .map(|d| m.get(d.0))
            .sum();
        assert!(traced.events > 0);
        assert_eq!(pops, traced.events as f64);
        assert_eq!(m.get("core.events"), traced.events as f64);
    }
}
