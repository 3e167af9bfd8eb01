//! README.md, DESIGN.md and EXPERIMENTS.md name only things that
//! exist: every back-ticked repository path, every `--builtin NAME`,
//! and the target of every `cargo run|bench … --bin|--bench|--example`
//! command. Paths are written relative to the repository root.

use std::path::{Path, PathBuf};
use tsn_campaign::CampaignSpec;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(doc: &str) -> String {
    std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

/// The inline code spans of a document (fenced blocks are not spans).
fn code_spans(doc: &str) -> Vec<&str> {
    let mut fenced = false;
    let mut spans = Vec::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

#[test]
fn every_back_ticked_repository_path_exists() {
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for span in code_spans(&text) {
            let token = span.split_whitespace().next().unwrap_or("");
            let is_path = ["crates/", "tests/", "examples/", "specs/", ".github/"]
                .iter()
                .any(|dir| token.starts_with(dir));
            if !is_path || token.contains(['*', '{', '}', '<', '>']) {
                continue;
            }
            // `path::item` and `path:line` name something inside the file.
            let path = token.split(':').next().unwrap_or(token);
            if !root().join(path).exists() {
                missing.push(format!("{doc}: `{token}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "paths that do not exist from the repository root:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn every_builtin_a_command_names_exists() {
    let mut seen = 0;
    for doc in DOCS {
        let text = read(doc);
        let mut words = text.split_whitespace();
        while let Some(word) = words.next() {
            if word != "--builtin" {
                continue;
            }
            let name: String = words
                .next()
                .unwrap_or("")
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                .collect();
            if name.is_empty() {
                continue; // a placeholder such as `--builtin NAME`
            }
            seen += 1;
            assert!(
                CampaignSpec::BUILTINS.contains(&name.as_str()),
                "{doc}: `--builtin {name}` is not a built-in spec"
            );
        }
    }
    assert!(
        seen >= 5,
        "found only {seen} `--builtin` uses: scanner broken?"
    );
}

/// `(package name, crate directory, manifest text)` of every workspace crate.
fn packages() -> Vec<(String, PathBuf, String)> {
    let mut packages = Vec::new();
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let dir = entry.expect("dir entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("package name")
            .to_string();
        packages.push((name, dir, manifest));
    }
    packages
}

/// Where cargo finds target `name` of `kind` in a crate: the
/// conventional directory, or (the root `examples/` are wired to their
/// crates this way) an explicit `path = "…/<name>.rs"` in the manifest.
fn target_exists(dir: &Path, manifest: &str, kind: &str, name: &str) -> bool {
    let conventional = match kind {
        "--bin" => "src/bin",
        "--bench" => "benches",
        _ => "examples",
    };
    let declared = manifest
        .lines()
        .filter_map(|l| l.strip_prefix("path = \"")?.strip_suffix('"'))
        .find(|p| p.ends_with(&format!("/{name}.rs")));
    dir.join(conventional).join(format!("{name}.rs")).exists()
        || declared.is_some_and(|p| dir.join(p).exists())
}

#[test]
fn every_cargo_command_names_a_target_that_exists() {
    let packages = packages();
    let mut seen = 0;
    for doc in DOCS {
        let text = read(doc);
        let words: Vec<&str> = text.split_whitespace().collect();
        for at in 0..words.len().saturating_sub(1) {
            if !(words[at].ends_with("cargo") && matches!(words[at + 1], "run" | "bench")) {
                continue;
            }
            // The command's own options end at `--`, a comment, the
            // closing back-tick, or prose.
            let (mut package, mut target) = (None, None);
            let mut rest = words[at + 2..].iter();
            while let Some(flag) = rest.next() {
                match *flag {
                    "--release" | "--quiet" => {}
                    "-p" | "--bin" | "--bench" | "--example" | "--features" => {
                        let value = rest.next().unwrap_or(&"");
                        let value = value.split('`').next().unwrap_or("");
                        match *flag {
                            "-p" => package = Some(value),
                            "--features" => {}
                            kind => target = Some((kind, value)),
                        }
                    }
                    _ => break,
                }
            }
            let Some((kind, name)) = target else { continue };
            seen += 1;
            let found = packages
                .iter()
                .filter(|(p, _, _)| package.is_none_or(|wanted| wanted == p))
                .any(|(_, dir, manifest)| target_exists(dir, manifest, kind, name));
            assert!(
                found,
                "{doc}: `cargo {} {} {kind} {name}` names no target file",
                words[at + 1],
                package.map_or(String::new(), |p| format!("-p {p}")),
            );
        }
    }
    assert!(
        seen >= 20,
        "found only {seen} cargo commands: scanner broken?"
    );
}
