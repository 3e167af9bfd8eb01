//! Start-up guards: what must hold before a number is worth printing.
//!
//! * the profile guard — the standalone workspace compiles the code the
//!   way `cargo build --release` at the root does;
//! * the behaviour pin — the simulator still pops exactly the number of
//!   events the root `BENCH_baseline.json` records for the pinned
//!   `quick-election-failover` shape;
//! * `VmHWM` parsing for `peak_rss_mib`.

use clocksync::election::ElectionConfig;
use clocksync::time::{Nanos, SimTime};
use clocksync::{TestbedConfig, World};
use std::path::Path;

/// The `[profile.release]` keys that change the machine code measured.
const PROFILE_KEYS: [&str; 4] = ["lto", "codegen-units", "opt-level", "panic"];

/// The values of [`PROFILE_KEYS`] in a manifest's `[profile.release]`
/// table (`None` where a key is not set).
pub fn release_profile(manifest: &str) -> [Option<String>; 4] {
    let mut out = [None, None, None, None];
    let mut in_table = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[profile.release]";
            continue;
        }
        if !in_table {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if let Some(i) = PROFILE_KEYS.iter().position(|k| *k == key.trim()) {
                out[i] = Some(value.trim().trim_matches('"').to_string());
            }
        }
    }
    out
}

/// Fails when the root and benchmark manifests disagree on any of
/// [`PROFILE_KEYS`].
pub fn profiles_match(root_manifest: &str, bench_manifest: &str) -> Result<(), String> {
    let (root, bench) = (
        release_profile(root_manifest),
        release_profile(bench_manifest),
    );
    for (i, key) in PROFILE_KEYS.iter().enumerate() {
        if root[i] != bench[i] {
            return Err(format!(
                "[profile.release] {key} differs: root {:?}, benchmark {:?} — \
                 the benchmark would measure differently compiled code",
                root[i], bench[i]
            ));
        }
    }
    Ok(())
}

/// Reads both manifests from the checkout and applies
/// [`profiles_match`].
pub fn check_profiles(bench_dir: &Path) -> Result<(), String> {
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    profiles_match(
        &read(bench_dir.join("../Cargo.toml"))?,
        &read(bench_dir.join("Cargo.toml"))?,
    )
}

/// The pinned `quick-election-failover` shape of `crates/bench`'s
/// `perf` bin: quick preset, 5 s warm-up + 20 s, election on, GM of
/// node 0 killed at 8 s, seed 7.
pub fn pinned_config() -> TestbedConfig {
    let mut cfg = TestbedConfig::quick(7);
    cfg.warmup = Nanos::from_secs(5);
    cfg.duration = Nanos::from_secs(20);
    cfg.election = Some(ElectionConfig {
        gm_failure_at: Some(Nanos::from_secs(8)),
        gm_failure_node: 0,
        ..Default::default()
    });
    cfg
}

/// Events the pinned shape pops on this build.
pub fn pinned_events() -> u64 {
    let cfg = pinned_config();
    let end = SimTime::ZERO + cfg.warmup + cfg.duration;
    let mut world = World::new(cfg);
    world.run_until(end);
    world.events_processed()
}

/// Pulls an unsigned integer field out of the flat baseline JSON
/// (machine-written by the `perf` bin).
pub fn json_u64_field(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The behaviour pin: compares this build's event count on the pinned
/// shape with the `events` field of the root `BENCH_baseline.json`,
/// read at run time so a behaviour-changing PR can update it without
/// editing the benchmark.
pub fn check_behaviour_pin(bench_dir: &Path) -> Result<u64, String> {
    let path = bench_dir.join("../BENCH_baseline.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let expected = json_u64_field(&text, "events")
        .ok_or_else(|| format!("{} lacks an events field", path.display()))?;
    let events = pinned_events();
    if events != expected {
        return Err(format!(
            "event count {events} != baseline {expected} — simulator behaviour \
             changed; if deliberate, regenerate BENCH_baseline.json"
        ));
    }
    Ok(events)
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &str = "[workspace]\nmembers = []\n\n[profile.dev]\nopt-level = 1\n\n\
                        [profile.release]\nlto = \"fat\" # cross-crate inlining\ncodegen-units = 1\n";

    #[test]
    fn profile_table_is_parsed_and_other_tables_ignored() {
        let p = release_profile(ROOT);
        assert_eq!(p[0].as_deref(), Some("fat"));
        assert_eq!(p[1].as_deref(), Some("1"));
        // opt-level belongs to [profile.dev] here, not to release.
        assert_eq!(p[2], None);
        assert_eq!(p[3], None);
    }

    #[test]
    fn profile_guard_accepts_equal_and_rejects_drift() {
        let same = "[package]\nname = \"b\"\n[profile.release]\ncodegen-units = 1\nlto = \"fat\"\n";
        assert!(profiles_match(ROOT, same).is_ok());
        let thin = "[profile.release]\nlto = \"thin\"\ncodegen-units = 1\n";
        assert!(profiles_match(ROOT, thin).unwrap_err().contains("lto"));
        let abort = "[profile.release]\nlto = \"fat\"\ncodegen-units = 1\npanic = \"abort\"\n";
        assert!(profiles_match(ROOT, abort).unwrap_err().contains("panic"));
        assert!(profiles_match(ROOT, "[package]\n").is_err());
    }

    #[test]
    fn the_two_real_manifests_agree() {
        check_profiles(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    }

    #[test]
    fn vm_hwm_line_is_parsed() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(20.0));
        assert_eq!(vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(vm_hwm_mib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn this_build_pops_the_pinned_event_count() {
        check_behaviour_pin(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    }

    #[test]
    fn baseline_field_is_read() {
        let json = "{\"schema\":1,\"seed\":7,\"events\":129397,\"events_per_sec\":4289560}";
        assert_eq!(json_u64_field(json, "events"), Some(129397));
        assert_eq!(json_u64_field(json, "missing"), None);
    }
}
