//! Golden-file test pinning the `campaign summarize --json` schema.
//!
//! The fixture under `tests/fixtures/golden-campaign/` is a tiny
//! completed campaign (quick preset, 6 s / 3 s warm-up, baseline +
//! cyber scenario, seeds 1–2) committed artifact-for-artifact, and
//! `tests/fixtures/golden_summary.json` is the exact `summarize --json`
//! output it produced when recorded. Summarize only *reads* artifacts —
//! it never re-simulates — so this test fails precisely when the JSON
//! summary schema or rendering changes, which is the event that must be
//! deliberate (downstream tooling parses this output).
//!
//! To regenerate after an intentional schema change:
//!
//! ```text
//! cargo run --release -p tsn-campaign --bin campaign -- summarize --json \
//!   --dir crates/campaign/tests/fixtures/golden-campaign \
//!   > crates/campaign/tests/fixtures/golden_summary.json
//! ```

use std::path::Path;
use std::process::Command;

#[test]
fn summarize_json_matches_golden_file() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "summarize",
            "--json",
            "--dir",
            fixtures.join("golden-campaign").to_str().unwrap(),
        ])
        .output()
        .expect("campaign binary runs");
    assert!(
        out.status.success(),
        "summarize failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let golden = std::fs::read_to_string(fixtures.join("golden_summary.json"))
        .expect("golden_summary.json is committed");
    let actual = String::from_utf8(out.stdout).expect("summary is UTF-8");
    assert_eq!(
        actual, golden,
        "summarize --json output diverged from the golden file; if the \
         schema change is intentional, regenerate it (see module docs)"
    );
}

/// Every committed artifact line decodes, and the record re-encodes to
/// the same bytes: the fixture pins the writer as well as the reader.
#[test]
fn golden_artifacts_decode_and_reencode_identically() {
    let runs = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-campaign/runs");
    let mut lines = 0;
    for entry in std::fs::read_dir(&runs).expect("the fixture's runs/ is committed") {
        let path = entry.expect("directory entry").path();
        let line = std::fs::read_to_string(&path).expect("artifact is UTF-8");
        let record = tsn_campaign::RunRecord::decode(&line)
            .unwrap_or_else(|| panic!("{} does not decode", path.display()));
        assert_eq!(
            record.encode(),
            line,
            "{} re-encodes differently",
            path.display()
        );
        lines += 1;
    }
    assert_eq!(lines, 4, "baseline + cyber × seeds 1–2");
}

#[test]
fn golden_summary_parses_and_has_the_pinned_fields() {
    // Belt and braces: the golden file itself must stay parseable and
    // keep the field names downstream tooling relies on.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let text = std::fs::read_to_string(fixtures.join("golden_summary.json")).unwrap();
    let v = tsn_campaign::json::Json::parse(&text).expect("golden file is valid JSON");
    let groups = v.as_array().expect("top level is an array");
    assert_eq!(groups.len(), 2, "baseline + cyber group");
    for g in groups {
        for key in [
            "group",
            "runs",
            "bound_ns_mean",
            "pi_star_mean_ns",
            "pi_star_p95_ns",
            "pi_star_max_ns",
            "violation_rate",
        ] {
            assert!(g.get(key).is_some(), "group lacks pinned field {key:?}");
        }
        let stats = g.get("pi_star_p95_ns").unwrap();
        for key in ["count", "mean", "std", "min", "max", "p50", "p95", "p99"] {
            assert!(stats.get(key).is_some(), "stats lack pinned field {key:?}");
        }
    }
}
