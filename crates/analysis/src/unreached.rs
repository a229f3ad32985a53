//! The `unreached` pass: flag a `pub` item whose name occurs nowhere but
//! its own definition, its own `#[cfg(test)]` code and `crates/bench`.
//!
//! Such an item is surface no product path, integration test or example
//! uses — the perf harness under `crates/bench` is frozen with the
//! benchmark, so reaching only it does not count. The pass is a name
//! scan over the same token layer as every other pass:
//!
//! * **reach** is every identifier outside `#[cfg(test)]` regions of the
//!   analyzed files (`src/`, `crates/*/src` minus `crates/bench`), plus
//!   every identifier of `tests/`, `examples/` and `crates/*/tests`,
//!   which are read but not analyzed;
//! * a **definition** is `pub` (unrestricted) followed by an item keyword
//!   and a name, outside test regions of an analyzed file;
//! * a definition whose name has no occurrence besides itself is a
//!   finding. A name shared by two items reaches both: the scan errs
//!   toward silence.
//!
//! Seams kept on purpose take `// analysis:allow(unreached): reason`.

use std::collections::HashMap;

use crate::findings::Finding;
use crate::lex::{ident_at, lex, punct_at, strip_test_regions, Lexed, Tok};

/// Item keywords a `pub` definition may open with (after `const`/`unsafe`
/// qualifiers on `fn`).
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Run the pass. `analyzed` is every `(path, source)` the driver walked;
/// `readers` the same for `tests/` and `examples/`.
pub fn audit(
    analyzed: &[(String, String)],
    readers: &[(String, String)],
    findings: &mut Vec<Finding>,
) {
    let mut reach: HashMap<String, usize> = HashMap::new();
    let mut count = |toks: &[Tok]| {
        for i in 0..toks.len() {
            if let Some(name) = ident_at(toks, i) {
                *reach.entry(name.to_owned()).or_default() += 1;
            }
        }
    };
    for (_, src) in readers {
        count(&lex(src).toks);
    }
    let mut files: Vec<(&str, Lexed, Vec<Tok>)> = Vec::new();
    for (path, src) in analyzed {
        if path.starts_with("crates/bench/") {
            continue;
        }
        let lexed = lex(src);
        let toks = strip_test_regions(lexed.toks.clone());
        count(&toks);
        files.push((path, lexed, toks));
    }
    for (path, lexed, toks) in &files {
        for (line, name) in definitions(toks) {
            if reach.get(name) == Some(&1) {
                findings.push(Finding {
                    allowed: lexed.allows("unreached", line),
                    ..Finding::new(
                        "unreached",
                        path,
                        line,
                        format!("`pub` item `{name}` is reached by nothing but its own tests"),
                    )
                });
            }
        }
    }
}

/// `(line, name)` of every unrestricted `pub` item in `toks`.
fn definitions(toks: &[Tok]) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("pub") || punct_at(toks, i + 1, '(') {
            continue;
        }
        let mut j = i + 1;
        while matches!(ident_at(toks, j), Some("const" | "unsafe" | "async"))
            && ident_at(toks, j + 1).is_some_and(|k| ITEM_KEYWORDS.contains(&k))
        {
            j += 1;
        }
        if ident_at(toks, j).is_some_and(|k| ITEM_KEYWORDS.contains(&k)) {
            if let Some(name) = ident_at(toks, j + 1) {
                out.push((toks[j + 1].line, name));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unreached(analyzed: &[(&str, &str)], readers: &[&str]) -> Vec<(String, usize, bool)> {
        let analyzed: Vec<(String, String)> = analyzed
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let readers: Vec<(String, String)> = readers
            .iter()
            .map(|s| ("tests/t.rs".to_string(), s.to_string()))
            .collect();
        let mut found = Vec::new();
        audit(&analyzed, &readers, &mut found);
        found
            .into_iter()
            .map(|f| (f.message, f.line, f.allowed))
            .collect()
    }

    #[test]
    fn an_item_only_its_own_tests_name_is_flagged() {
        let src = "pub fn lonely() {}\n\
                   pub fn used() {}\n\
                   fn caller() { used(); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { super::lonely(); } }";
        let found = unreached(&[("crates/mc/src/a.rs", src)], &[]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].0.contains("`lonely`"));
        assert_eq!(found[0].1, 1);
    }

    #[test]
    fn tests_and_examples_reach_but_bench_does_not() {
        let src = "pub struct Api;\npub const fn only_bench() -> u8 { 0 }";
        let bench = "fn main() { prophet::only_bench(); }";
        let found = unreached(
            &[
                ("crates/core/src/lib.rs", src),
                ("crates/bench/src/main.rs", bench),
            ],
            &["use prophet::Api;"],
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].0.contains("`only_bench`"));
    }

    #[test]
    fn restricted_visibility_and_reexports_are_not_items() {
        let src = "pub(crate) fn inner() {}\npub use other::thing;\npub mod m;";
        let found = unreached(&[("crates/core/src/lib.rs", src)], &[]);
        assert_eq!(found.len(), 1, "only the module: {found:?}");
        assert!(found[0].0.contains("`m`"));
    }

    #[test]
    fn the_marker_allows_a_seam() {
        let src = "// analysis:allow(unreached): a documented seam\npub fn seam() {}";
        let found = unreached(&[("crates/core/src/lib.rs", src)], &[]);
        assert_eq!(found, [(found[0].0.clone(), 2, true)]);
    }
}
