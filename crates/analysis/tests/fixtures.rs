//! Negative tests for the analyzer gate: each seeded fixture tree under
//! `fixtures/` must fail the real binary with **exactly one** active
//! finding, at the expected span — proving the gate actually fires —
//! and the repository itself must pass it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run_analyzer(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analysis"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("invariant: the analysis binary was built alongside this test")
}

/// Active (non-allowed) finding lines from a run's stdout.
fn active_findings(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains(": [") && !l.ends_with("(allowed)"))
        .map(str::to_string)
        .collect()
}

/// One fixture = one failing run with one active finding at one span.
fn assert_single_finding(name: &str, expected_prefix: &str) {
    let out = run_analyzer(&fixture(name), &[]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "fixture `{name}` must fail the gate; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let findings = active_findings(&out);
    assert_eq!(
        findings.len(),
        1,
        "fixture `{name}` must produce exactly one active finding, got {findings:#?}"
    );
    assert!(
        findings[0].starts_with(expected_prefix),
        "fixture `{name}`: expected span `{expected_prefix}…`, got `{}`",
        findings[0]
    );
}

#[test]
fn seeded_unsorted_map_leak_fails_the_gate_at_its_line() {
    assert_single_finding("map_leak", "crates/mc/src/lib.rs:16: [map-iter]");
}

/// A trait impl's `for` and a `for<'a>` bound sit between the file's
/// start and its one real loop; the leak in between must still be seen.
#[test]
fn a_leak_after_impl_for_fails_the_gate_at_its_line() {
    assert_single_finding("impl_for", "crates/mc/src/lib.rs:30: [map-iter]");
}

/// A model helper taking `dyn Rng64` fails the gate; the same type in
/// the shared-stream executor does not.
#[test]
fn seeded_dyn_rng_helper_fails_the_gate_at_its_line() {
    assert_single_finding("dyn_rng", "crates/models/src/lib.rs:18: [lint] [dyn-rng]");
}

/// A marker whose site the pass no longer flags — the map became a
/// `BTreeMap` — fails the gate on the marker's own line; the live marker
/// beside it and a doc comment spelling the grammar do not.
#[test]
fn seeded_stale_marker_fails_the_gate_at_its_line() {
    assert_single_finding("stale_allow", "crates/mc/src/lib.rs:21: [stale-allow]");
}

#[test]
fn seeded_rank_table_drift_fails_the_gate_in_the_docs() {
    assert_single_finding("drift", "docs/CONCURRENCY.md:6: [rank-table]");
}

#[test]
fn seeded_fixture_writes_machine_readable_findings() {
    let json_path = std::env::temp_dir().join("analysis-fixture-map-leak.json");
    let out = run_analyzer(
        &fixture("map_leak"),
        &[
            "--json",
            json_path.to_str().expect("invariant: utf-8 temp path"),
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let doc = std::fs::read_to_string(&json_path).expect("JSON findings file written");
    let _ = std::fs::remove_file(&json_path);
    assert!(doc.contains("\"version\": 1"), "{doc}");
    assert!(doc.contains("\"active\": 1"), "{doc}");
    assert!(doc.contains("\"pass\": \"map-iter\""), "{doc}");
    assert!(doc.contains("\"file\": \"crates/mc/src/lib.rs\""), "{doc}");
    assert!(doc.contains("\"line\": 16"), "{doc}");
}

/// The gate the fixtures prove can fire must not fire on the repository
/// itself: the checked-in tree is clean modulo audited allows.
#[test]
fn repository_tree_passes_the_gate() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let out = run_analyzer(&repo_root, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(active_findings(&out).is_empty(), "stdout:\n{stdout}");
    assert!(stdout.contains("analysis clean"), "stdout:\n{stdout}");
}
