//! The analyzer driver:
//! `cargo run -p analysis -- [--root DIR] [--json PATH] [--write-docs]`.
//!
//! Walks `crates/*/src/**/*.rs` and `src/**/*.rs` under the root and runs
//! the four passes (see the library docs and `docs/ANALYSIS.md`):
//!
//! 1. the conformance **lint** over every file;
//! 2. the **rank-table** extractor — duplicate-rank detection plus a
//!    drift check against `docs/CONCURRENCY.md` (`--write-docs`
//!    regenerates the block in place instead of reporting drift);
//! 3. the **map-iter** determinism audit over the result-affecting
//!    crates (`mc`, `core`, `fingerprint`, `sql`, `vg`);
//! 4. the **unreached** scan for `pub` items nothing outside their own
//!    tests names, reading `tests/`, `examples/` and `crates/*/tests` as
//!    reach;
//!
//! and then reports every `lint:allow` / `analysis:allow` marker that
//! excused none of their findings (`stale-allow`).
//!
//! Lock order itself is proven at runtime by the rank checker in
//! `prophet_mc::sync` under `--features check`.
//!
//! Output is one line per finding in `file:line: [pass] message` form —
//! the shape `.github/problem-matchers/analysis.json` matches — plus a
//! summary. `--json PATH` additionally writes the machine-readable
//! findings document the CI gate asserts on. Exit status: 0 clean, 1 on
//! any active (non-allowed) finding, 2 on usage/IO errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use analysis::findings::{render_json, Finding};
use analysis::{determinism, lint_findings, ranktable, stale_allow_findings, unreached};

/// Crates whose outputs must not depend on hash-iteration order.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/mc/src/",
    "crates/core/src/",
    "crates/fingerprint/src/",
    "crates/sql/src/",
    "crates/vg/src/",
];

const DOCS_PATH: &str = "docs/CONCURRENCY.md";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut write_docs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root requires a directory"),
            },
            "--json" => match args.next() {
                Some(file) => json_path = Some(PathBuf::from(file)),
                None => return usage("--json requires a file"),
            },
            "--write-docs" => write_docs = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut paths = Vec::new();
    collect_sources(&root, &mut paths);
    paths.sort();
    if paths.is_empty() {
        eprintln!(
            "error: no source files under {} — wrong --root?",
            root.display()
        );
        return ExitCode::from(2);
    }

    // Read everything up front: the rank-table and unreached passes are
    // whole-program.
    let mut reader_paths = Vec::new();
    collect_readers(&root, &mut reader_paths);
    let (files, readers) = match (read_all(&root, &paths), read_all(&root, &reader_paths)) {
        (Ok(files), Ok(readers)) => (files, readers),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("error: reading {err}");
            return ExitCode::from(2);
        }
    };

    let mut findings: Vec<Finding> = Vec::new();

    // ---- pass 1: conformance lint
    for (rel, src) in &files {
        findings.extend(lint_findings(rel, src));
    }

    // ---- pass 2: rank table (duplicates + docs drift / regeneration)
    let table = ranktable::extract(&files);
    findings.extend(ranktable::duplicate_findings(&table));
    let docs_file = root.join(DOCS_PATH);
    match std::fs::read_to_string(&docs_file) {
        Ok(docs) => {
            if write_docs {
                match ranktable::rewrite_docs(&docs, &table) {
                    Some(rewritten) => {
                        if rewritten != docs {
                            if let Err(err) = std::fs::write(&docs_file, &rewritten) {
                                eprintln!("error: writing {DOCS_PATH}: {err}");
                                return ExitCode::from(2);
                            }
                            println!("{DOCS_PATH}: rank table regenerated");
                        }
                    }
                    None => {
                        findings.extend(ranktable::drift_finding(DOCS_PATH, &docs, &table));
                    }
                }
            } else {
                findings.extend(ranktable::drift_finding(DOCS_PATH, &docs, &table));
            }
        }
        Err(err) => {
            // The docs are part of the contract; a missing file is drift.
            findings.push(Finding::new(
                "rank-table",
                DOCS_PATH,
                1,
                format!("cannot read the concurrency docs: {err}"),
            ));
        }
    }

    // ---- pass 3: determinism audit
    for (rel, src) in &files {
        if DETERMINISM_SCOPE.iter().any(|p| rel.starts_with(p)) {
            determinism::audit(rel, src, &mut findings);
        }
    }

    // ---- pass 4: unreached `pub` items; tests and examples are reach
    unreached::audit(&files, &readers, &mut findings);

    // ---- markers that excused nothing above
    let stale: Vec<Finding> = files
        .iter()
        .flat_map(|(rel, src)| stale_allow_findings(rel, src, &findings))
        .collect();
    findings.extend(stale);

    findings.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
    for f in &findings {
        println!("{f}");
    }

    if let Some(json_path) = &json_path {
        let doc = render_json(&findings, files.len());
        if let Err(err) = std::fs::write(json_path, doc) {
            eprintln!("error: writing {}: {err}", json_path.display());
            return ExitCode::from(2);
        }
    }

    let active = findings.iter().filter(|f| !f.allowed).count();
    let allowed = findings.len() - active;
    if active > 0 {
        println!(
            "analysis: {active} active finding(s), {allowed} allowed across {} files",
            files.len()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "analysis clean: {} files, {} rank(s) in the table, {allowed} allowed finding(s)",
            files.len(),
            table.entries.len()
        );
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\nusage: analysis [--root DIR] [--json PATH] [--write-docs]");
    ExitCode::from(2)
}

/// `.rs` files under `<root>/src` and `<root>/crates/*/src`, recursively.
fn collect_sources(root: &Path, out: &mut Vec<PathBuf>) {
    collect_rs(&root.join("src"), out);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            collect_rs(&entry.path().join("src"), out);
        }
    }
}

/// `(workspace-relative path, source)` of every file in `paths`, or the
/// first file that cannot be read and why.
fn read_all(root: &Path, paths: &[PathBuf]) -> Result<Vec<(String, String)>, String> {
    paths
        .iter()
        .map(|path| {
            let rel = rel_path(root, path);
            match std::fs::read_to_string(path) {
                Ok(src) => Ok((rel, src)),
                Err(err) => Err(format!("{rel}: {err}")),
            }
        })
        .collect()
}

/// `.rs` files under `<root>/tests`, `<root>/examples` and
/// `<root>/crates/*/tests`: read for the `unreached` pass, not analyzed.
fn collect_readers(root: &Path, out: &mut Vec<PathBuf>) {
    collect_rs(&root.join("tests"), out);
    collect_rs(&root.join("examples"), out);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            collect_rs(&entry.path().join("tests"), out);
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
