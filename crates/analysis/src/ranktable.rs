//! The rank-table extractor: rebuild the workspace lock-rank table from
//! source and hold `docs/CONCURRENCY.md` to it.
//!
//! Every rank-table entry in the workspace is a literal
//! `LockRank::new(<rank>, "<name>")` bound to a scalar `const`
//! (`pub const STORE_TABLE: LockRank = LockRank::new(50, …)`). This pass
//! scans every source file for exactly that shape, so the extracted table
//! *is* the code's table — no hand-maintained mirror to rot.
//!
//! The markdown renderer emits the table between
//! `<!-- rank-table:begin -->` / `<!-- rank-table:end -->` markers in
//! `docs/CONCURRENCY.md`; the default run diffs the generated block
//! against the checked-in one and reports drift as a finding, and
//! `--write-docs` rewrites the block in place. Duplicate rank numbers
//! across distinct consts are reported too — the runtime checker treats
//! equal ranks as an inversion, so an accidental reuse is a bug even if
//! the two locks are never nested today.

use crate::findings::Finding;
use crate::lex::{ident_at, lex, punct_at, strip_test_regions, Tok, TokKind};

/// One named rank-table entry extracted from source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankEntry {
    /// The `const` identifier (`STORE_TABLE`, `ENGINE_METRICS`, …).
    pub const_name: String,
    pub rank: u16,
    /// The human lock name from the `LockRank::new` literal.
    pub lock_name: String,
    /// Workspace-relative defining file.
    pub file: String,
    pub line: usize,
}

/// The extracted table, sorted by rank.
#[derive(Debug, Default)]
pub struct RankTable {
    pub entries: Vec<RankEntry>,
}

impl RankTable {
    /// Look up a const name (`STORE_TABLE`, `ENGINE_METRICS`, …).
    pub fn by_const(&self, name: &str) -> Option<&RankEntry> {
        self.entries.iter().find(|e| e.const_name == name)
    }
}

/// Scan `files` (path, source) for rank-table consts.
pub fn extract(files: &[(String, String)]) -> RankTable {
    let mut entries = Vec::new();
    for (path, src) in files {
        let toks = strip_test_regions(lex(src).toks);
        extract_file(path, &toks, &mut entries);
    }
    entries.sort_by(|a, b| (a.rank, &a.const_name).cmp(&(b.rank, &b.const_name)));
    RankTable { entries }
}

fn extract_file(path: &str, toks: &[Tok], out: &mut Vec<RankEntry>) {
    let mut i = 0usize;
    while i < toks.len() {
        // `const NAME : LockRank = LockRank::new(N, "name") ;`
        if ident_at(toks, i) == Some("const") {
            let Some(name) = ident_at(toks, i + 1) else {
                i += 1;
                continue;
            };
            let name = name.to_string();
            let line = toks[i + 1].line;
            let mut j = i + 2;
            if !punct_at(toks, j, ':') || ident_at(toks, j + 1) != Some("LockRank") {
                i += 1;
                continue;
            }
            // The first `LockRank::new(N, "name")` literal in the
            // initializer, up to the terminating `;`.
            let mut found: Option<(u16, String)> = None;
            while found.is_none() && j < toks.len() && !punct_at(toks, j, ';') {
                if ident_at(toks, j) == Some("new")
                    && punct_at(toks, j + 1, '(')
                    && crate::lex::pathed_from(toks, j, "LockRank")
                {
                    let num = match toks.get(j + 2).map(|t| &t.kind) {
                        Some(TokKind::Num(n)) => n.parse::<u16>().ok(),
                        _ => None,
                    };
                    let label = match toks.get(j + 4).map(|t| &t.kind) {
                        Some(TokKind::Str(s)) if punct_at(toks, j + 3, ',') => Some(s.clone()),
                        _ => None,
                    };
                    found = num.zip(label);
                }
                j += 1;
            }
            if let Some((rank, lock_name)) = found {
                out.push(RankEntry {
                    const_name: name,
                    rank,
                    lock_name,
                    file: path.to_string(),
                    line,
                });
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Duplicate-rank findings: the runtime checker treats equal ranks as an
/// inversion, so two consts sharing a number is a table bug.
pub fn duplicate_findings(table: &RankTable) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, a) in table.entries.iter().enumerate() {
        for b in &table.entries[i + 1..] {
            if a.rank == b.rank {
                out.push(Finding::new(
                    "rank-table",
                    &b.file,
                    b.line,
                    format!(
                        "rank {} of `{}` is also `{}`'s ({}:{}) — every lock needs a \
                         distinct rank or the runtime checker will refuse legal nestings",
                        b.rank, b.const_name, a.const_name, a.file, a.line
                    ),
                ));
            }
        }
    }
    out
}

pub const BEGIN_MARKER: &str = "<!-- rank-table:begin (generated by `cargo run -p analysis -- --write-docs`; do not edit by hand) -->";
pub const END_MARKER: &str = "<!-- rank-table:end -->";

/// Render the markdown block that belongs between the markers.
pub fn render_markdown(table: &RankTable) -> String {
    let mut out = String::new();
    out.push_str("| rank | lock | const | defined in |\n");
    out.push_str("|-----:|------|-------|------------|\n");
    for e in &table.entries {
        out.push_str(&format!(
            "| {} | `{}` | `{}` | `{}` |\n",
            e.rank, e.lock_name, e.const_name, e.file
        ));
    }
    out
}

/// Replace the marker-delimited block in `docs`, or `None` if the
/// markers are missing/misordered.
pub fn rewrite_docs(docs: &str, table: &RankTable) -> Option<String> {
    let begin = docs.find(BEGIN_MARKER)?;
    let end_at = docs.find(END_MARKER)?;
    if end_at < begin {
        return None;
    }
    let mut out = String::with_capacity(docs.len());
    out.push_str(&docs[..begin + BEGIN_MARKER.len()]);
    out.push('\n');
    out.push_str(&render_markdown(table));
    out.push_str(&docs[end_at..]);
    Some(out)
}

/// Drift check: a finding when the checked-in block differs from the
/// generated one (or the markers are missing).
pub fn drift_finding(docs_path: &str, docs: &str, table: &RankTable) -> Option<Finding> {
    let Some(rewritten) = rewrite_docs(docs, table) else {
        return Some(Finding::new(
            "rank-table",
            docs_path,
            1,
            format!(
                "missing `{BEGIN_MARKER}` / `{END_MARKER}` markers — the rank table must \
                 be the generated block"
            ),
        ));
    };
    if rewritten != docs {
        // Point at the first differing line inside the docs.
        let line = docs
            .lines()
            .zip(rewritten.lines())
            .position(|(a, b)| a != b)
            .map(|n| n + 1)
            .unwrap_or(1);
        return Some(Finding::new(
            "rank-table",
            docs_path,
            line,
            "lock-rank table drifted from source — run \
             `cargo run -p analysis -- --write-docs` and commit the result"
                .into(),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(src: &str) -> RankTable {
        extract(&[("crates/x/src/sync.rs".into(), src.into())])
    }

    #[test]
    fn extracts_scalar_consts_only() {
        let src = r#"
            pub const TABLE: LockRank = LockRank::new(50, "store table");
            pub const SLOTS: [LockRank; 2] = [
                LockRank::new(60, "slot 0"),
                LockRank::new(61, "slot 1"),
            ];
        "#;
        let table = table_of(src);
        assert_eq!(table.entries.len(), 1, "a rank array is not in the table");
        let entry = table.by_const("TABLE").unwrap();
        assert_eq!(entry.rank, 50);
        assert_eq!(entry.lock_name, "store table");
    }

    #[test]
    fn table_is_sorted_by_rank_across_files() {
        let table = extract(&[
            (
                "b.rs".into(),
                "pub const HI: LockRank = LockRank::new(90, \"hi\");".into(),
            ),
            (
                "a.rs".into(),
                "pub const LO: LockRank = LockRank::new(10, \"lo\");".into(),
            ),
        ]);
        let ranks: Vec<u16> = table.entries.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, [10, 90]);
    }

    #[test]
    fn duplicate_ranks_are_findings() {
        let src = r#"
            pub const A: LockRank = LockRank::new(30, "a");
            pub const B: LockRank = LockRank::new(30, "b");
        "#;
        let dupes = duplicate_findings(&table_of(src));
        assert_eq!(dupes.len(), 1);
        assert!(dupes[0].message.contains('A') && dupes[0].message.contains('B'));
    }

    #[test]
    fn rank_inside_test_module_is_invisible() {
        let src = r#"
            pub const A: LockRank = LockRank::new(30, "a");
            #[cfg(test)]
            mod tests {
                pub const FAKE: LockRank = LockRank::new(30, "fake");
            }
        "#;
        let table = table_of(src);
        assert_eq!(table.entries.len(), 1);
        assert!(duplicate_findings(&table).is_empty());
    }

    #[test]
    fn docs_round_trip_and_drift() {
        let table = table_of("pub const A: LockRank = LockRank::new(10, \"a lock\");");
        let docs = format!("# Title\n\n{BEGIN_MARKER}\nstale\n{END_MARKER}\n\ntail\n");
        let drift = drift_finding("docs/CONCURRENCY.md", &docs, &table);
        assert!(drift.is_some(), "stale block must drift");
        let rewritten = rewrite_docs(&docs, &table).unwrap();
        assert!(rewritten.contains("| 10 | `a lock` | `A` |"));
        assert!(drift_finding("docs/CONCURRENCY.md", &rewritten, &table).is_none());
        // Idempotent.
        assert_eq!(rewrite_docs(&rewritten, &table).unwrap(), rewritten);
    }

    #[test]
    fn missing_markers_is_a_finding() {
        let table = table_of("pub const A: LockRank = LockRank::new(10, \"a\");");
        let f = drift_finding("docs/CONCURRENCY.md", "no markers here", &table).unwrap();
        assert!(f.message.contains("markers"));
    }
}
