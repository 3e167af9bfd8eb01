//! CLI contract tests: error paths must print a clear message and exit
//! 2 instead of panicking, `summarize` and `diff` read a frontier
//! directory, `campaign figure` shows a recorded run only if it
//! reproduces, and `campaign snapshot`'s save / info / restore / verify
//! loop must close on any run a directory holds, a frontier probe's
//! too.

mod common;

use common::{artifact_bytes, opts, scratch, tree_bytes};
use std::path::Path;
use std::process::{Command, Output};
use tsn_campaign::artifact::ARTIFACT_SCHEMA;
use tsn_campaign::json::Json;

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign binary runs")
}

fn snapshot(args: &[&str]) -> Output {
    campaign(&[&["snapshot"], args].concat())
}

#[test]
fn summarize_of_missing_campaign_exits_two_with_message() {
    let dir = scratch("missing");
    let out = campaign(&["summarize", "--dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "no error message: {stderr}");
}

#[test]
fn summarize_of_empty_campaign_exits_two_with_message() {
    // A campaign directory that exists but holds no completed runs: the
    // manifest is present, the runs directory is empty.
    let dir = scratch("empty");
    std::fs::create_dir_all(dir.join("runs")).unwrap();
    let manifest = format!(
        r#"{{"schema":{ARTIFACT_SCHEMA},"spec":{{"name":"empty","base":{{"preset":"quick"}},"scenarios":["baseline"],"grid":{{"seeds":[1]}}}},"total_runs":1,"runs":[]}}"#
    );
    std::fs::write(dir.join("manifest.json"), manifest).unwrap();

    let out = campaign(&["summarize", "--dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("missing or unreadable artifact") || stderr.contains("no completed runs"),
        "unhelpful message: {stderr}"
    );

    let diff = campaign(&[
        "diff",
        "--baseline",
        dir.to_str().unwrap(),
        "--candidate",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(diff.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn summarize_of_zero_run_manifest_exits_two_instead_of_panicking() {
    // A hand-edited (or truncated) manifest whose spec expands to zero
    // runs used to panic inside `expand`; it must now be a plain error.
    let dir = scratch("zero");
    std::fs::create_dir_all(dir.join("runs")).unwrap();
    let manifest = format!(
        r#"{{"schema":{ARTIFACT_SCHEMA},"spec":{{"name":"zero","base":{{"preset":"quick"}},"scenarios":["baseline"],"grid":{{"seeds":[]}}}},"total_runs":0,"runs":[]}}"#
    );
    std::fs::write(dir.join("manifest.json"), manifest).unwrap();

    let out = campaign(&["summarize", "--dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "summarize panicked: {stderr}");
    assert!(stderr.contains("error:"), "no error message: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory another build wrote is named by its artifact schema,
/// with the remedy, before its spec is read: every command that reads a
/// directory back opens it the same way. Its spec carries the keys of
/// the family schema 8 dropped, which would otherwise be the error.
#[test]
fn a_directory_of_another_artifact_schema_is_named_as_such() {
    let family = common::RETIRED_FAMILY;
    let dir = scratch("schema-7");
    std::fs::create_dir_all(dir.join("runs")).unwrap();
    let manifest = format!(
        r#"{{"schema":7,"spec":{{"schema":1,"name":"old","base":{{"preset":"quick","duration_s":4}},"scenarios":["baseline"],"grid":{{"seeds":[1],"{family}_nodes":[],"{family}_topology":[]}}}},"total_runs":1,"runs":[]}}"#
    );
    std::fs::write(dir.join("manifest.json"), manifest).unwrap();
    let d = dir.to_str().unwrap();
    let expected = format!(
        "{d} holds artifact schema 7; this build reads {ARTIFACT_SCHEMA}; \
         `campaign run` into it re-runs every run"
    );
    let hash = "0123456789abcdef";
    let commands: [&[&str]; 4] = [
        &["summarize", "--dir", d],
        &["diff", "--baseline", d, "--candidate", d],
        &["figure", "--dir", d],
        &["snapshot", "verify", "--dir", d, "--run", hash],
    ];
    for args in commands {
        let out = campaign(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {expected}\n")),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every subcommand uses the regenerators' flag parser
/// (`clocksync::repro::Flags`), so each says the same thing; every flag
/// error exits 2 with `error: <text>` and the usage.
#[test]
fn flag_errors_keep_each_binarys_wording() {
    type Bin = fn(&[&str]) -> Output;
    let cases: [(Bin, &[&str], &str); 10] = [
        (
            campaign,
            &["run", "--frobnicate"],
            "unknown argument \"--frobnicate\"",
        ),
        (campaign, &["run", "--dir"], "--dir needs a value"),
        (campaign, &["summarize", "--help"], "help requested"),
        (
            campaign,
            &["run", "--builtin", "quick-baseline", "--threads", "two"],
            "malformed value \"two\" for --threads",
        ),
        (
            campaign,
            &[
                "run",
                "--builtin",
                "quick-baseline",
                "--threads",
                "1",
                "--threads",
                "2",
            ],
            "--threads given twice",
        ),
        (campaign, &["list", "--json"], "unknown argument \"--json\""),
        (
            snapshot,
            &["info", "--frobnicate"],
            "unknown argument \"--frobnicate\"",
        ),
        (snapshot, &["info", "--file"], "--file needs a value"),
        (snapshot, &["verify", "--help"], "help requested"),
        (snapshot, &["verify", "--run"], "--run needs a value"),
    ];
    for (bin, args, message) in cases {
        let out = bin(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {message}\nusage:\n")),
            "{args:?}: {stderr}"
        );
    }
}

/// One way to run: the `frontier` and `resume` verbs and the `--fork`
/// and `--no-fork` flags are gone, as is the `profile` verb, and each
/// is an error with the usage.
#[test]
fn removed_verbs_and_fork_flags_exit_two_with_usage() {
    let cases: [(&[&str], &str); 5] = [
        (
            &["frontier", "--builtin", "frontier-sweep"],
            "unknown subcommand \"frontier\"",
        ),
        (
            &["resume", "--builtin", "quick-baseline"],
            "unknown subcommand \"resume\"",
        ),
        (
            &["run", "--builtin", "quick-baseline", "--fork"],
            "unknown argument \"--fork\"",
        ),
        (
            &["run", "--builtin", "frontier-sweep", "--no-fork"],
            "unknown argument \"--no-fork\"",
        ),
        (
            &["profile", "--trace", "x"],
            "unknown subcommand \"profile\"",
        ),
    ];
    for (args, message) in cases {
        let out = campaign(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {message}\nusage:\n")),
            "{args:?}: {stderr}"
        );
    }
    let help = String::from_utf8(campaign(&["--help"]).stdout).unwrap();
    for gone in [
        "campaign frontier",
        "campaign resume",
        "--fork",
        "--no-fork",
        "campaign profile",
    ] {
        assert!(!help.contains(gone), "USAGE still lists {gone}: {help}");
    }
}

/// Campaigns and frontiers share one builtin list, in which `run` finds
/// a spec by name: no name may be listed twice, and each names the spec
/// it resolves to (whose `bisect` block makes it a frontier or not).
#[test]
fn campaign_and_frontier_builtin_names_are_disjoint() {
    use tsn_campaign::CampaignSpec;
    let names = CampaignSpec::BUILTINS;
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "{name} is listed twice");
        let spec = CampaignSpec::builtin(name).expect("builtin exists");
        assert_eq!(spec.name, *name);
    }
}

/// A spec file with a `bisect` block is a frontier: `run --spec` of the
/// frontier-sweep file writes exactly the directory `run --builtin
/// frontier-sweep` writes, prints the same document, and refuses
/// `--trace` (the tracer arms campaign runs only).
#[test]
fn run_takes_a_frontier_spec_by_name_or_by_file() {
    let root = scratch("run-frontier");
    let (by_name, by_file) = (root.join("by-name"), root.join("by-file"));
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/frontier_sweep.json");
    let run = |how: &str, what: &str, dir: &Path| {
        let out = campaign(&["run", how, what, "--dir", dir.to_str().unwrap(), "--quiet"]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let named = run("--builtin", "frontier-sweep", &by_name);
    let filed = run("--spec", file.to_str().unwrap(), &by_file);
    assert!(
        named.starts_with("campaign frontier-sweep: ")
            && named.contains("\nresilience frontier `frontier-sweep`"),
        "{named}"
    );
    assert_eq!(
        named.replace(by_name.to_str().unwrap(), "DIR"),
        filed.replace(by_file.to_str().unwrap(), "DIR")
    );
    for name in ["manifest.json", "frontier.json"] {
        assert_eq!(
            std::fs::read(by_name.join(name)).unwrap(),
            std::fs::read(by_file.join(name)).unwrap(),
            "{name}"
        );
    }
    assert!(artifact_bytes(&by_name) == artifact_bytes(&by_file));
    let entries = std::fs::read_dir(&by_name).unwrap().count();
    assert_eq!(entries, 3, "manifest.json, runs/ and frontier.json");

    let traced = campaign(&[
        "run",
        "--builtin",
        "frontier-sweep",
        "--dir",
        by_name.to_str().unwrap(),
        "--trace",
        root.join("trace").to_str().unwrap(),
    ]);
    assert_eq!(traced.status.code(), Some(2), "{traced:?}");
    assert!(!root.join("trace").exists());
    let _ = std::fs::remove_dir_all(&root);
}

/// `campaign run` on a spec that must be rejected before any run
/// starts: exit 2 with a plain `error:` message, never a panic, and no
/// campaign directory. Returns the stderr text.
fn rejected_spec_stderr(tag: &str, spec: &str) -> String {
    rejected_spec_stderr_with(tag, spec, &[])
}

/// [`rejected_spec_stderr`] with `extra` arguments to `campaign run`.
fn rejected_spec_stderr_with(tag: &str, spec: &str, extra: &[&str]) -> String {
    let dir = scratch(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("bad.json");
    std::fs::write(&spec_path, spec).unwrap();
    let campaign_dir = dir.join("campaign");
    let mut args = vec![
        "run",
        "--spec",
        spec_path.to_str().unwrap(),
        "--dir",
        campaign_dir.to_str().unwrap(),
        "--quiet",
    ];
    args.extend(extra);
    let out = campaign(&args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
    assert!(!stderr.contains("panicked"), "run panicked: {stderr}");
    assert!(stderr.contains("error:"), "no error message: {stderr}");
    assert!(!campaign_dir.exists(), "{spec}: a run was started");
    let _ = std::fs::remove_dir_all(&dir);
    stderr
}

#[test]
fn run_with_malformed_spec_exits_two_with_message() {
    // A spec that parses as JSON but fails validation (domain count
    // outside 4..=16 breaks the FTA's N > 3f requirement) must be a
    // plain exit-2 error at the CLI, never a panic inside `expand`.
    let stderr = rejected_spec_stderr(
        "malformed",
        r#"{"schema":1,"name":"bad","base":{"preset":"quick"},"scenarios":["baseline"],"grid":{"seeds":[1],"domains":[2]}}"#,
    );
    assert!(
        stderr.contains("domains axis value 2 outside the supported 4..=16 (FTA needs N > 3f)"),
        "error does not name the offending field: {stderr}"
    );
    // A repeated seed, scenario or axis value expands to runs with one
    // content hash, which two workers would race to write: rejected at
    // any thread count, naming the list.
    let cases = [
        (
            r#""scenarios":["baseline"],"grid":{"seeds":[1,1]}"#,
            "grid.seeds",
        ),
        (
            r#""scenarios":["baseline","baseline"],"grid":{"seeds":[1]}"#,
            "scenarios",
        ),
        (
            r#""scenarios":["baseline"],"grid":{"seeds":[1],"domains":[4,5,4]}"#,
            "grid.domains",
        ),
    ];
    for (body, list) in cases {
        let spec = format!(
            r#"{{"schema":1,"name":"twice","base":{{"preset":"quick","duration_s":4}},{body}}}"#
        );
        for threads in ["1", "2"] {
            let stderr = rejected_spec_stderr_with("twice", &spec, &["--threads", threads]);
            assert!(
                stderr.contains(&format!("{list} repeats the value")),
                "{stderr}"
            );
        }
    }
}

/// A key nothing reads is an error naming its path, at every level of
/// a spec. A misspelt key, or one of a retired axis, used to be
/// ignored, and the spec ran as if it were absent.
#[test]
fn run_with_unknown_spec_key_exits_two_naming_the_key() {
    // The spec file of the builtin that swept the retired family.
    let family = common::RETIRED_FAMILY;
    let retired = format!(
        r#"{{"schema":1,"name":"{family}-sweep","base":{{"preset":"quick","duration_s":15,"warmup_s":5}},"scenarios":["baseline"],"grid":{{"seeds":[3,4],"domains":[],"sync_interval_ms":[],"kernels":[],"fault_rate_per_hour":[],"disciplines":[],"strategies":[],"compromised":[],"loss_permille":[],"partition_s":[],"election":[],"announce_interval_ms":[],"gm_failure_at_s":[],"rogue_master":[],"hops":[],"cross_traffic_pct":[],"asymmetry_ns":[],"tc_mode":[],"topology":[],"adv_offset_ns":[],"fta_f":[],"{family}_nodes":[256,1024],"{family}_topology":["line","ring","tree","fat-tree"]}}}}"#
    );
    let base = r#""base":{"preset":"quick","duration_s":5}"#;
    let grid = r#""grid":{"seeds":[1]}"#;
    let bisect = r#""bisect":{"axis":"adv_offset_ns","min":1000,"max":64000,"resolution":684,"budget_per_cell":12,"budget":3}"#;
    let cases = [
        (retired, format!("grid.{family}_nodes")),
        (
            format!(
                r#"{{"name":"typo",{base},"scenarios":["baseline"],"grid":{{"seeds":[1],"hopz":[3]}}}}"#
            ),
            "grid.hopz".to_string(),
        ),
        (
            format!(
                r#"{{"name":"typo","base":{{"preset":"quick","durration_s":5}},"scenarios":["baseline"],{grid}}}"#
            ),
            "base.durration_s".to_string(),
        ),
        (
            format!(r#"{{"name":"typo",{base},"scenarios":["baseline"],{grid},"extra":1}}"#),
            "extra".to_string(),
        ),
        (
            format!(r#"{{"name":"typo",{base},"scenarios":["baseline"],{grid},{bisect}}}"#),
            "bisect.budget".to_string(),
        ),
    ];
    for (spec, path) in cases {
        let stderr = rejected_spec_stderr("unknown-key", &spec);
        assert!(
            stderr.contains(&format!("{path}: unknown key")),
            "{spec}: {stderr}"
        );
    }
}

/// Regression: a `partition_s` axis without an explicit `duration_s`
/// used to pass validation by silently assuming 60 s; it is a spec
/// error now, surfaced as a plain exit-2 message at the CLI.
#[test]
fn run_with_partition_axis_and_no_duration_exits_two() {
    let stderr = rejected_spec_stderr(
        "partition",
        r#"{"schema":1,"name":"bad","base":{"preset":"quick"},"scenarios":["baseline"],"grid":{"seeds":[1],"partition_s":[5]}}"#,
    );
    assert!(
        stderr.contains("duration_s"),
        "error does not name the missing field: {stderr}"
    );
}

/// Regression: numeric axes had no upper bound, so values near
/// `u64::MAX` wrapped through `as i64` — panicking deep in the
/// election, config and time crates, or (for `gm_failure_at_s`) passing
/// validation as −1 and scheduling a kill before t = 0. Every numeric
/// axis now carries an explicit range in the axis table, checked before
/// any cast: one case per axis, just past its maximum and at
/// `u64::MAX`, must exit 2 naming the axis and its range.
#[test]
fn run_with_out_of_range_axis_value_exits_two_naming_axis_and_range() {
    use tsn_campaign::axis::{Kind, AXES};

    let mut numeric_axes = 0;
    for a in AXES {
        let Kind::UInt(min, max, _) = a.kind else {
            continue;
        };
        numeric_axes += 1;
        for value in [max + 1, u64::MAX] {
            let stderr = rejected_spec_stderr(
                &format!("range-{}", a.spec_key),
                &format!(
                    r#"{{"schema":1,"name":"bad","base":{{"preset":"quick","duration_s":6,"warmup_s":3}},"scenarios":["baseline"],"grid":{{"seeds":[1],"{}":[{value}]}}}}"#,
                    a.spec_key
                ),
            );
            assert!(
                stderr.contains(&format!(
                    "{} axis value {value} outside the supported {min}..={max}",
                    a.spec_key
                )),
                "error does not name the axis and its range: {stderr}"
            );
        }
    }
    assert_eq!(numeric_axes, 14);
}

/// `--trace` writes one Chrome trace-event file per executed run, while
/// the run artifacts stay byte-identical to an untraced campaign — the
/// tracer observes, it never steers.
#[test]
fn run_with_trace_emits_valid_traces_and_identical_artifacts() {
    let dir = scratch("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("tiny.json");
    std::fs::write(
        &spec_path,
        r#"{"schema":1,"name":"tiny","base":{"preset":"quick","duration_s":6,"warmup_s":3},"scenarios":["baseline"],"grid":{"seeds":[1,2]}}"#,
    )
    .unwrap();
    let spec = spec_path.to_str().unwrap().to_string();

    let traced_dir = dir.join("traced");
    let plain_dir = dir.join("plain");
    let trace_dir = dir.join("traces");
    let traced = campaign(&[
        "run",
        "--spec",
        &spec,
        "--dir",
        traced_dir.to_str().unwrap(),
        "--quiet",
        "--trace",
        trace_dir.to_str().unwrap(),
    ]);
    assert_eq!(traced.status.code(), Some(0), "{traced:?}");

    let plain = campaign(&[
        "run",
        "--spec",
        &spec,
        "--dir",
        plain_dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(plain.status.code(), Some(0), "{plain:?}");

    // Artifact bytes are unchanged by tracing.
    let artifacts = artifact_bytes(&traced_dir);
    assert_eq!(
        artifacts,
        artifact_bytes(&plain_dir),
        "--trace changed artifact bytes"
    );

    // One schema-valid Chrome trace per run, named by the run's hash.
    for (name, _) in &artifacts {
        let hash = name
            .strip_prefix("run-")
            .and_then(|n| n.strip_suffix(".jsonl"))
            .expect("artifact name shape");
        let trace_path = trace_dir.join(format!("trace-{hash}.json"));
        let text = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("missing trace {}: {e}", trace_path.display()));
        let v = Json::parse(&text).expect("trace file is valid JSON");
        assert!(v.get("displayTimeUnit").is_some());
        let events = v
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "empty trace for {hash}");
        for ev in events {
            for field in ["ph", "name", "pid", "tid"] {
                assert!(ev.get(field).is_some(), "event missing {field}: {ev:?}");
            }
        }
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("fta_round")),
            "trace for {hash} has no FTA rounds"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_with_check_is_clean_and_leaves_artifacts_untouched() {
    // `--check` arms the invariant oracle: a healthy campaign passes
    // (exit 0, explicit confirmation) and the artifacts it writes are
    // byte-identical to an unchecked campaign — the oracle observes, it
    // never steers.
    let dir = scratch("check");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("tiny.json");
    std::fs::write(
        &spec_path,
        r#"{"schema":1,"name":"tiny","base":{"preset":"quick","duration_s":6,"warmup_s":3},"scenarios":["baseline"],"grid":{"seeds":[1]}}"#,
    )
    .unwrap();
    let spec = spec_path.to_str().unwrap().to_string();

    let checked_dir = dir.join("checked");
    let plain_dir = dir.join("plain");
    let checked = campaign(&[
        "run",
        "--spec",
        &spec,
        "--dir",
        checked_dir.to_str().unwrap(),
        "--quiet",
        "--check",
    ]);
    assert_eq!(checked.status.code(), Some(0), "{checked:?}");
    let stdout = String::from_utf8_lossy(&checked.stdout);
    assert!(
        stdout.contains("check: no invariant violations"),
        "no clean-check confirmation: {stdout}"
    );
    // The counts line comes before the summary and the verdict after it.
    assert!(
        stdout.starts_with("campaign tiny: 1 run(s) total"),
        "{stdout}"
    );
    let summary = stdout.find("## baseline").expect("summary");
    assert!(
        summary < stdout.find("check:").expect("verdict"),
        "{stdout}"
    );

    let plain = campaign(&[
        "run",
        "--spec",
        &spec,
        "--dir",
        plain_dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(plain.status.code(), Some(0), "{plain:?}");

    assert_eq!(
        artifact_bytes(&checked_dir),
        artifact_bytes(&plain_dir),
        "--check changed artifact bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_with_tiny_trace_cap_reports_truncation_and_fails_check() {
    // A cap far below a real run's event count forces the bounded sink
    // to drop events. Truncation must be loud: a stderr warning on a
    // plain run, a per-run drop count in the trace file, and a nonzero
    // exit under `--check`.
    let dir = scratch("trace-cap");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("tiny.json");
    std::fs::write(
        &spec_path,
        r#"{"schema":1,"name":"tiny","base":{"preset":"quick","duration_s":6,"warmup_s":3},"scenarios":["baseline"],"grid":{"seeds":[1]}}"#,
    )
    .unwrap();
    let spec = spec_path.to_str().unwrap().to_string();

    // --trace-cap without --trace is a usage error.
    let orphan = campaign(&[
        "run",
        "--spec",
        &spec,
        "--dir",
        dir.join("orphan").to_str().unwrap(),
        "--quiet",
        "--trace-cap",
        "10",
    ]);
    assert_eq!(orphan.status.code(), Some(2), "{orphan:?}");

    let trace_dir = dir.join("traces");
    let run_dir = dir.join("capped");
    let capped = campaign(&[
        "run",
        "--spec",
        &spec,
        "--dir",
        run_dir.to_str().unwrap(),
        "--quiet",
        "--trace",
        trace_dir.to_str().unwrap(),
        "--trace-cap",
        "10",
    ]);
    // Without --check the campaign still succeeds, but warns.
    assert_eq!(capped.status.code(), Some(0), "{capped:?}");
    let stderr = String::from_utf8_lossy(&capped.stderr);
    assert!(
        stderr.contains("dropped") && stderr.contains("truncated"),
        "no truncation warning: {stderr}"
    );

    // The run's trace file, the only file in the directory, carries its
    // drop count.
    let [(_, trace)] = &tree_bytes(&trace_dir)[..] else {
        panic!("one trace file");
    };
    let dropped = Json::parse(std::str::from_utf8(trace).unwrap())
        .unwrap()
        .get("otherData")
        .and_then(|d| d.get("dropped"))
        .and_then(Json::as_u64)
        .expect("otherData.dropped");
    assert!(dropped > 0, "drop count lost");

    // Under --check a truncated trace is a failure.
    let checked = campaign(&[
        "run",
        "--spec",
        &spec,
        "--dir",
        dir.join("checked").to_str().unwrap(),
        "--quiet",
        "--check",
        "--trace",
        dir.join("traces-checked").to_str().unwrap(),
        "--trace-cap",
        "10",
    ]);
    assert_eq!(
        checked.status.code(),
        Some(1),
        "truncated trace must fail --check: {checked:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file a traced campaign writes is a function of its spec: the
/// trace and run directories of a one- and a two-worker campaign are
/// byte-identical, with nothing excluded.
#[test]
fn traced_campaign_directories_are_a_function_of_the_spec() {
    let dir = scratch("trace-pure");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("tiny.json");
    std::fs::write(
        &spec_path,
        r#"{"schema":1,"name":"tiny","base":{"preset":"quick","duration_s":6,"warmup_s":3},"scenarios":["baseline"],"grid":{"seeds":[1,2]}}"#,
    )
    .unwrap();
    let traced = |threads: &str| {
        let (run_dir, trace_dir) = (
            dir.join(format!("runs-{threads}")),
            dir.join(format!("traces-{threads}")),
        );
        let out = campaign(&[
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--dir",
            run_dir.to_str().unwrap(),
            "--quiet",
            "--threads",
            threads,
            "--trace",
            trace_dir.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        (tree_bytes(&run_dir), tree_bytes(&trace_dir))
    };
    let one_worker = traced("1");
    assert_eq!(traced("2"), one_worker);
    assert_eq!(one_worker.1.len(), 2, "one trace file per run only");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A frontier directory is its spec plus its artifacts: `summarize`
/// replays the bisection and prints exactly the document `run` wrote, and `diff` compares two directories bracket by bracket — also
/// when a probe panicked and left its cell `failed`.
#[test]
fn summarize_and_diff_replay_a_frontier_directory() {
    use clocksync::scenario::ScenarioKind;
    use tsn_campaign::axis::MAGNITUDE_AXIS;
    use tsn_campaign::RunnerOptions;
    use tsn_campaign::{frontier, BaseSpec, Bisect, CampaignSpec, Coord, Grid, Preset};

    let spec = CampaignSpec {
        name: "frontier-cli".to_string(),
        base: BaseSpec {
            preset: Preset::Quick,
            duration_s: Some(6),
            warmup_s: Some(3),
        },
        scenarios: vec![ScenarioKind::Baseline],
        grid: Grid {
            seeds: vec![1],
            strategies: vec!["colluding"],
            compromised: vec![2, 1],
            ..Grid::default()
        },
        bisect: Some(Bisect {
            axis: MAGNITUDE_AXIS,
            min: 1_000,
            max: 64_000,
            resolution: 8_000,
            budget_per_cell: 6,
        }),
    };
    let root = scratch("frontier");
    let (clean, copy, panicked) = (root.join("clean"), root.join("copy"), root.join("panicked"));
    let (doc, report) = frontier::execute(&spec, &opts(&clean)).expect("clean frontier");
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    // The copy is the spec plus the artifacts: nothing reads frontier.json.
    std::fs::create_dir_all(copy.join("runs")).unwrap();
    std::fs::copy(clean.join("manifest.json"), copy.join("manifest.json")).unwrap();
    for (name, bytes) in artifact_bytes(&clean) {
        std::fs::write(copy.join("runs").join(name), bytes).unwrap();
    }

    let summarize = |dir: &Path, json: bool| {
        let mut args = vec!["summarize", "--dir", dir.to_str().unwrap()];
        if json {
            args.push("--json");
        }
        let out = campaign(&args);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let written = |dir: &Path| std::fs::read_to_string(dir.join("frontier.json")).unwrap();
    assert_eq!(summarize(&clean, true), written(&clean));
    assert_eq!(summarize(&clean, false), doc.render_text());

    let diff = |baseline: &Path, candidate: &Path| {
        campaign(&[
            "diff",
            "--baseline",
            baseline.to_str().unwrap(),
            "--candidate",
            candidate.to_str().unwrap(),
        ])
    };
    let parity = diff(&clean, &copy);
    assert_eq!(parity.status.code(), Some(0), "{parity:?}");

    // The unbreakable cell's probe at the axis maximum panics.
    let victim = Coord {
        strategy: Some("colluding"),
        compromised: Some(1),
        adv_offset_ns: Some(64_000),
        ..Coord::new(ScenarioKind::Baseline, 1)
    };
    let opts = RunnerOptions {
        panic_label: Some(victim.label()),
        ..opts(&panicked)
    };
    let (_, failed) = frontier::execute(&spec, &opts).expect("the exploration finishes");
    assert_eq!(failed.failed.len(), 1);
    assert!(summarize(&panicked, false).contains("failed"));
    assert_eq!(summarize(&panicked, true), written(&panicked));

    let regression = diff(&clean, &panicked);
    assert_eq!(regression.status.code(), Some(1), "{regression:?}");
    let stdout = String::from_utf8_lossy(&regression.stdout);
    assert!(
        stdout.contains("baseline adv=colluding byz=1 f=1: outcome changed"),
        "{stdout}"
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// `run --check` into a directory whose runs are recorded re-executes
/// them armed rather than resuming them, so the claims read the FTA
/// accounting again; a record that is not what its run encodes (one
/// counter edited) fails the command, naming the run, and stays as it
/// is.
#[test]
fn run_check_re_executes_recorded_runs_and_refuses_an_edited_record() {
    let dir = scratch("check-again");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = r#"{"name":"check-again","base":{"preset":"quick","duration_s":1950,"warmup_s":5},"scenarios":["cyber_diverse_kernels"],"grid":{"seeds":[1,2]}}"#;
    let path = dir.join("spec.json");
    std::fs::write(&path, spec).unwrap();
    let plans = tsn_campaign::expand(&tsn_campaign::CampaignSpec::parse(spec).unwrap()).unwrap();
    let d = dir.to_str().unwrap();
    let check = || {
        let out = campaign(&[
            "run",
            "--spec",
            path.to_str().unwrap(),
            "--dir",
            d,
            "--quiet",
            "--check",
        ]);
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr))
    };
    // The first run executes both runs; the second finds them recorded.
    for _ in 0..2 {
        let (code, stdout, stderr) = check();
        assert_eq!(code, Some(0), "{stdout}{stderr}");
        assert!(
            stdout.contains("2 run(s) total, 2 executed, 0 resumed"),
            "{stdout}"
        );
        assert!(
            stdout.contains("PASS diverse-masked: 2/2 runs strike (1, 1); 2/2 runs trim"),
            "{stdout}"
        );
    }

    let hash = &plans[1].hash;
    let artifact = dir.join("runs").join(format!("run-{hash}.jsonl"));
    let mut record = tsn_campaign::RunRecord::decode(&std::fs::read_to_string(&artifact).unwrap())
        .expect("the record decodes");
    record.counters.vm_failures += 1;
    let edited = record.encode();
    std::fs::write(&artifact, &edited).unwrap();
    let (code, _, stderr) = check();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("record-reproduces violated at run {hash}")),
        "{stderr}"
    );
    assert_eq!(std::fs::read_to_string(&artifact).unwrap(), edited);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A short campaign spec: the quick preset, a 4 s run after a 2 s
/// warm-up, seeds 7 and 8, with `grid` merged into the grid.
fn short_spec(name: &str, grid: &str) -> String {
    format!(
        r#"{{"name":"{name}","base":{{"preset":"quick","duration_s":4,"warmup_s":2}},"scenarios":["baseline"],"grid":{{"seeds":[7,8]{grid}}}}}"#
    )
}

/// Writes `spec` into `dir` and runs it there; returns the directory
/// and the content hash of each run, in `matrix::expand` order (none
/// for a frontier: its runs are the probes it chose).
fn run_spec(dir: &Path, spec: &str) -> (String, Vec<String>) {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, spec).unwrap();
    let d = dir.to_str().unwrap();
    let run = campaign(&[
        "run",
        "--spec",
        path.to_str().unwrap(),
        "--dir",
        d,
        "--quiet",
    ]);
    assert!(run.status.success(), "{run:?}");
    let parsed = tsn_campaign::CampaignSpec::parse(spec).unwrap();
    if parsed.bisect.is_some() {
        return (d.to_string(), Vec::new());
    }
    let plans = tsn_campaign::expand(&parsed).unwrap();
    (d.to_string(), plans.into_iter().map(|p| p.hash).collect())
}

#[test]
fn snapshot_save_info_restore_verify_round_trip() {
    let dir = scratch("snap");
    let (d, hashes) = run_spec(&dir, &short_spec("snap", ""));
    let file = dir.join("w.snap");
    let file = file.to_str().unwrap();
    let run = ["--dir", d.as_str(), "--run", hashes[0].as_str()];

    let save = snapshot(&[&["save"], &run[..], &["--at", "2", "--out", file]].concat());
    assert!(save.status.success(), "{:?}", save);

    let info = snapshot(&["info", "--file", file]);
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("state_hash"), "no state hash: {text}");

    let restore = snapshot(&[&["restore", "--file", file], &run[..]].concat());
    assert!(restore.status.success(), "{:?}", restore);

    // Restoring into another run's configuration is refused (exit 2).
    let other = ["--dir", d.as_str(), "--run", hashes[1].as_str()];
    let wrong = snapshot(&[&["restore", "--file", file], &other[..]].concat());
    assert_eq!(wrong.status.code(), Some(2), "{wrong:?}");

    let verify = snapshot(&[&["verify"], &run[..], &["--epoch-s", "1"]].concat());
    assert!(verify.status.success(), "{:?}", verify);
    let text = String::from_utf8_lossy(&verify.stdout);
    assert!(text.contains("no divergence"), "unexpected: {text}");

    // A hash the directory holds no record of names the directory.
    let missing = ["--dir", d.as_str(), "--run", "0123456789abcdef"];
    let out = snapshot(&[&["verify"], &missing[..]].concat());
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{d} has no run \"0123456789abcdef\"")),
        "{stderr}"
    );

    // A run is named only by its directory and hash: the old config
    // flags, and the spec flags that named a run before, are unknown
    // arguments.
    for flag in [
        "--builtin",
        "--spec",
        "--preset",
        "--scenario",
        "--seed",
        "--duration-s",
        "--warmup-s",
    ] {
        let out = snapshot(
            &[
                &["save"],
                &run[..],
                &[flag, "7", "--at", "2", "--out", file],
            ]
            .concat(),
        );
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown argument {flag:?}\n")),
            "{stderr}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A time flag outside the run is refused before anything runs (exit 2,
/// naming the flag and its range): an `--at` whose nanoseconds overflow
/// (it used to wrap to a checkpoint at 0.272 s), an `--epoch-s` that
/// overflowed `SimTime` (a panic), and the zero and negative epochs
/// that used to run as 1 s.
#[test]
fn snapshot_time_flags_outside_the_run_are_refused_by_name() {
    let dir = scratch("snap-flags");
    let (d, hashes) = run_spec(&dir, &short_spec("snap-flags", ""));
    let file = dir.join("w.snap");
    let run = ["--dir", d.as_str(), "--run", hashes[0].as_str()];
    let out = ["--out", file.to_str().unwrap()];
    for (args, refusal) in [
        (
            &[&["save"], &run[..], &["--at", "18446744074"], &out[..]].concat(),
            "--at 18446744074 outside the supported 0..=6",
        ),
        (
            &[&["verify"], &run[..], &["--epoch-s", "10000000000"]].concat(),
            "--epoch-s 10000000000 outside the supported 1..=6",
        ),
        (
            &[&["verify"], &run[..], &["--epoch-s", "0"]].concat(),
            "--epoch-s 0 outside the supported 1..=6",
        ),
        (
            &[&["verify"], &run[..], &["--epoch-s", "-7"]].concat(),
            "--epoch-s -7 outside the supported 1..=6",
        ),
    ] {
        let refused = snapshot(args);
        assert_eq!(refused.status.code(), Some(2), "{args:?}: {refused:?}");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(
            stderr.starts_with(&format!("error: {refusal} ")),
            "{stderr}"
        );
    }
    assert!(!file.exists(), "a refused save wrote a checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `campaign snapshot verify` reaches worlds that only a grid axis can
/// configure: dynamic BMCA election, and a multi-hop switch fabric.
#[test]
fn snapshot_verify_reaches_election_and_fabric_runs() {
    let dir = scratch("snap-axes");
    for (tag, grid) in [
        ("election", r#","election":[true]"#),
        ("fabric", r#","hops":[3]"#),
    ] {
        let (d, hashes) = run_spec(&dir.join(tag), &short_spec("snap-axes", grid));
        let run = ["--dir", d.as_str(), "--run", hashes[0].as_str()];
        let verify = snapshot(&[&["verify"], &run[..], &["--epoch-s", "1"]].concat());
        assert!(verify.status.success(), "{grid}: {verify:?}");
        let text = String::from_utf8_lossy(&verify.stdout);
        assert!(text.contains("no divergence"), "{grid}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot stamped with an earlier state schema is refused with an
/// actionable message (exit 2), not decoded on a guess.
#[test]
fn snapshot_restore_of_old_state_schema_names_versions_and_remedy() {
    let dir = scratch("snap-v4");
    let (d, hashes) = run_spec(&dir, &short_spec("snap-v4", ""));
    let file = dir.join("w.snap");
    let run = ["--dir", d.as_str(), "--run", hashes[0].as_str()];
    let path = file.to_str().unwrap();

    assert!(
        snapshot(&[&["save"], &run[..], &["--at", "1", "--out", path]].concat())
            .status
            .success()
    );

    let mut snap = clocksync::WorldSnapshot::decode(&std::fs::read(&file).unwrap()).unwrap();
    assert_eq!(snap.state_version, clocksync::snapshot::WORLD_STATE_VERSION);
    snap.state_version = 4;
    std::fs::write(&file, snap.encode()).unwrap();

    let restore = snapshot(&[&["restore", "--file", path], &run[..]].concat());
    assert_eq!(restore.status.code(), Some(2), "{restore:?}");
    let stderr = String::from_utf8_lossy(&restore.stderr);
    let reads = format!("reads version {}", clocksync::snapshot::WORLD_STATE_VERSION);
    for needle in [
        "state schema version 4",
        reads.as_str(),
        "campaign snapshot save",
    ] {
        assert!(stderr.contains(needle), "no {needle:?} in: {stderr}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Any hash a command prints re-enters its run: a frontier probe is in
/// no campaign matrix, yet the witness `frontier.json` names for a
/// broken bracket end is addressed by directory and hash like any run.
#[test]
fn a_frontier_witness_re_enters_through_its_directory() {
    let dir = scratch("witness");
    let spec = r#"{"name":"witness","base":{"preset":"quick","duration_s":6,"warmup_s":3},"scenarios":["baseline"],"grid":{"seeds":[1],"strategies":["colluding"],"compromised":[2]},"bisect":{"axis":"adv_offset_ns","min":1000,"max":64000,"resolution":8000,"budget_per_cell":6}}"#;
    let (d, _) = run_spec(&dir, spec);
    let doc = Json::parse(&std::fs::read_to_string(dir.join("frontier.json")).unwrap()).unwrap();
    let cells = doc.get("cells").and_then(Json::as_array).unwrap();
    let witness = cells
        .iter()
        .find_map(|c| c.get("witness")?.get("broken")?.as_str())
        .expect("a broken witness");
    let verify = snapshot(&["verify", "--dir", &d, "--run", witness, "--epoch-s", "3"]);
    assert_eq!(verify.status.code(), Some(0), "{verify:?}");
    assert!(String::from_utf8_lossy(&verify.stdout).contains("no divergence"));
    let figure = campaign(&["figure", "--dir", &d, "--run", witness]);
    assert_eq!(figure.status.code(), Some(0), "{figure:?}");
    // Without --run, a frontier names no runs of its own.
    assert_eq!(campaign(&["figure", "--dir", &d]).status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `campaign figure` re-simulates a recorded fault-injection run and
/// prints Fig. 4a, 4b and 5 and TXT2 from it, writing their files under
/// `figures/` with the run's hash; a record that is not what its run
/// encodes (one counter edited) is refused, naming the run.
#[test]
fn figure_shows_a_recorded_run_and_refuses_one_that_does_not_reproduce() {
    let dir = scratch("figure");
    let spec = r#"{"name":"figure","base":{"preset":"quick","duration_s":60,"warmup_s":5},"scenarios":["fault_injection"],"grid":{"seeds":[7]}}"#;
    let (d, hashes) = run_spec(&dir, spec);
    let hash = &hashes[0];
    let out = campaign(&["figure", "--dir", &d]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for heading in [
        "Fig. 4a — fault injection over 0.0 h",
        "fault counts (paper:",
        "Fig. 4b — precision distribution over 0.0 h",
        "maximum measured precision:",
        "events in the window:",
        "exp 2 (fault inject)",
    ] {
        assert!(stdout.contains(heading), "no {heading:?} in: {stdout}");
    }
    for name in [
        "fig4a.csv",
        "fig4a.txt",
        "fig4b.csv",
        "fig4b.txt",
        "fig5.csv",
    ] {
        let (stem, ext) = name.split_once('.').unwrap();
        let path = dir.join("figures").join(format!("{stem}-{hash}.{ext}"));
        assert!(std::fs::metadata(&path).unwrap().len() > 0, "{path:?}");
    }
    assert!(dir.join(format!("figures/fig5_events-{hash}.txt")).exists());

    let path = dir.join("runs").join(format!("run-{hash}.jsonl"));
    let mut record = tsn_campaign::RunRecord::decode(&std::fs::read_to_string(&path).unwrap())
        .expect("the record decodes");
    record.counters.vm_failures += 1;
    std::fs::write(&path, record.encode()).unwrap();
    let out = campaign(&["figure", "--dir", &d, "--run", hash]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("run {hash} (scenario=fault_injection/seed=7/")),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
