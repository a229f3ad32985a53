//! The determinism audit: flag iteration over hash-ordered containers in
//! result-affecting crates.
//!
//! The paper's mapping guarantee (§4: a decision must not depend on
//! thread timing — and by extension, on anything nondeterministic)
//! extends to `HashMap`/`HashSet` iteration order, which varies run to
//! run under `RandomState`. An unsorted map walk that feeds a published
//! result — an ordering of jobs, a serialized listing, a float
//! accumulation — is a silent determinism leak even on one thread.
//!
//! The pass is intentionally shallow: per file, it learns which names
//! are hash containers (typed field/param/let declarations,
//! `HashMap::new()`-style constructions, `.collect::<HashMap<…>>()`
//! turbofish), then flags every iteration over those names —
//! `.iter()`, `.keys()`, `.values()`, `.drain(…)`, `for … in &map`, and
//! friends — unless the site visibly restores order or feeds an
//! order-insensitive sink:
//!
//! * the same statement — or the one immediately following, the
//!   idiomatic `let mut v = …collect(); v.sort();` shape — mentions a
//!   `sort*` call or collects into a `BTreeMap`/`BTreeSet` (ordered
//!   downstream);
//! * the chain ends in a sink whose result cannot depend on order —
//!   `count`, `len`, `any`, `all`, `min`/`max` and their `_by(_key)`
//!   forms — or re-collects into another hash container (order never
//!   escapes). `sum` is deliberately **not** a sink: float addition is
//!   order-sensitive, and that is exactly the class of leak this pass
//!   exists to catch;
//! * an explicit `// analysis:allow(map-iter): reason` marker — for
//!   sites whose order-insensitivity lives beyond the statement (e.g. a
//!   loop body that only inserts into another map). Allowed sites still
//!   travel in the JSON findings for audit.
//!
//! `BTreeMap`/`BTreeSet` names are never flagged.

use std::collections::HashMap;

use crate::findings::Finding;
use crate::lex::{ident_at, lex, punct_at, strip_test_regions, Tok, TokKind};

/// Iterator-producing methods whose order reaches the caller.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain sinks whose result cannot depend on visit order.
const ORDER_INSENSITIVE_SINKS: &[&str] = &[
    "count",
    "len",
    "any",
    "all",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "is_empty",
    "contains",
    "contains_key",
];

/// Run the pass over one file, appending findings.
pub fn audit(path: &str, src: &str, findings: &mut Vec<Finding>) {
    let lexed = lex(src);
    let toks = strip_test_regions(lexed.toks.clone());
    let maps = collect_map_names(&toks);
    if maps.is_empty() {
        return;
    }

    let mut i = 0usize;
    while i < toks.len() {
        // `name.iter()` / `guard.keys()` / `m.drain(..)` …
        if punct_at(&toks, i, '.') {
            if let Some(m) = ident_at(&toks, i + 1) {
                if ITER_METHODS.contains(&m) && punct_at(&toks, i + 2, '(') {
                    if let Some(name) = receiver_name(&toks, i) {
                        if let Some(kind) = maps.get(&name) {
                            flag(path, &lexed, &toks, i + 1, &name, kind, m, findings);
                        }
                    }
                }
            }
            i += 1;
            continue;
        }
        // `for pat in [&][mut] name {`
        if ident_at(&toks, i) == Some("for") {
            if let Some(j) = loop_header_in(&toks, i) {
                // Expression tokens between `in` and `{`.
                let mut expr = Vec::new();
                let mut k = j + 1;
                while k < toks.len() && !punct_at(&toks, k, '{') {
                    expr.push(k);
                    k += 1;
                }
                // Bare `[&][mut] [self.]name` (method chains are caught
                // above).
                let idents: Vec<&str> = expr
                    .iter()
                    .filter_map(|&t| ident_at(&toks, t))
                    .filter(|s| *s != "mut" && *s != "self")
                    .collect();
                if idents.len() == 1 && expr.len() <= 5 {
                    let name = idents[0];
                    if let Some(kind) = maps.get(name) {
                        let at = *expr.last().unwrap();
                        flag(path, &lexed, &toks, at, name, kind, "for-in", findings);
                    }
                }
                // Resume just past `in`: method chains in the header
                // (`for … in m.iter()`) still go through the `.` scan.
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// The `in` of the loop header whose `for` sits at `at`, or `None` when
/// this `for` opens no loop: the `for` of `impl Trait for Type` (an
/// `impl` earlier in the same item header) or a higher-ranked `for<'a>`
/// bound. The pattern may hold braces (`for P { x, y } in v {`), so the
/// scan passes balanced `{…}` groups and gives up at a `;` or at a `}`
/// that closes the enclosing block.
fn loop_header_in(toks: &[Tok], at: usize) -> Option<usize> {
    if punct_at(toks, at + 1, '<') {
        return None;
    }
    // Back to the start of the item or statement, skipping `(…)` and
    // `[…]` groups (`impl Foo<[u8; 4]> for Bar`).
    let mut depth = 0usize;
    let mut k = at;
    while k > 0 {
        k -= 1;
        match &toks[k].kind {
            TokKind::Punct(')') | TokKind::Punct(']') => depth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') => depth = depth.saturating_sub(1),
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') if depth == 0 => break,
            TokKind::Ident(s) if depth == 0 && s == "impl" => return None,
            _ => {}
        }
    }
    let mut depth = 0usize;
    for (j, tok) in toks.iter().enumerate().skip(at + 1) {
        match &tok.kind {
            TokKind::Ident(s) if depth == 0 && s == "in" => return Some(j),
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') if depth == 0 => return None,
            TokKind::Punct('}') => depth -= 1,
            TokKind::Punct(';') => return None,
            _ => {}
        }
    }
    None
}

/// The receiver ident of the method whose dot sits at `dot`, hopping one
/// trailing `()`/`[]` group (`self.slots.lock().keys()` → not resolved —
/// the *guard* must be named — but `slots[i].iter()` → `slots`).
fn receiver_name(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut j = dot - 1;
    if punct_at(toks, j, ']') {
        let mut depth = 0usize;
        loop {
            if punct_at(toks, j, ']') {
                depth += 1;
            } else if punct_at(toks, j, '[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    ident_at(toks, j).map(str::to_string)
}

/// Record one iteration site unless the statement visibly restores order
/// or sinks order-insensitively.
#[allow(clippy::too_many_arguments)]
fn flag(
    path: &str,
    lexed: &crate::lex::Lexed,
    toks: &[Tok],
    at: usize,
    name: &str,
    kind: &str,
    method: &str,
    findings: &mut Vec<Finding>,
) {
    let line = toks[at].line;
    // Scan the enclosing statement, forward and back — plus the statement
    // immediately after it, so the canonical collect-then-sort pair
    // (`let mut v = …collect(); v.sort();`) needs no annotation.
    let (lo, hi) = statement_span(toks, at);
    let next_hi = if punct_at(toks, hi, ';') {
        statement_span(toks, hi + 1).1.min(toks.len())
    } else {
        hi
    };
    let mut sorted = false;
    let mut insensitive = false;
    for t in &toks[lo..next_hi] {
        if let TokKind::Ident(s) = &t.kind {
            if s.starts_with("sort") || s == "BTreeMap" || s == "BTreeSet" {
                sorted = true;
            }
        }
    }
    // Sinks and hash re-collections only count *after* the iteration.
    for t in &toks[at..hi] {
        if let TokKind::Ident(s) = &t.kind {
            if ORDER_INSENSITIVE_SINKS.contains(&s.as_str()) || s == "HashMap" || s == "HashSet" {
                insensitive = true;
            }
        }
    }
    if sorted || insensitive {
        return;
    }
    let allowed = lexed.allows("map-iter", line);
    findings.push(Finding {
        allowed,
        ..Finding::new(
            "map-iter",
            path,
            line,
            format!(
                "`{method}` over `{name}` ({kind}) observes nondeterministic hash order — \
                 sort the result, use a BTreeMap, or annotate \
                 `// analysis:allow(map-iter): reason`"
            ),
        )
    });
}

/// Token span of the statement containing `at`: back to the previous
/// `;`/`{`/`}` and forward to the next.
fn statement_span(toks: &[Tok], at: usize) -> (usize, usize) {
    let mut lo = at;
    while lo > 0 {
        match &toks[lo - 1].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
            _ => lo -= 1,
        }
    }
    let mut hi = at;
    while hi < toks.len() {
        match &toks[hi].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
            _ => hi += 1,
        }
    }
    (lo, hi)
}

/// Learn which idents in this file are hash containers: returns
/// name → "HashMap"/"HashSet".
fn collect_map_names(toks: &[Tok]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for i in 0..toks.len() {
        let Some(which) = ident_at(toks, i).filter(|s| *s == "HashMap" || *s == "HashSet") else {
            continue;
        };
        // Type position: `name: …HashMap<…` (fields, params, ascriptions)
        // — find the nearest preceding single-colon ident, hopping
        // reference/smart-pointer wrappers. A *sequence* of maps
        // (`Vec<HashMap<…>>`, `&[HashMap<…>]`) is not a map: its own
        // iteration order is the sequence's, so crossing `Vec`/`[` on the
        // way back cancels the learn.
        if punct_at(toks, i + 1, '<') {
            let lo = i.saturating_sub(16);
            let mut j = i;
            let mut sequence_of = false;
            while j > lo {
                j -= 1;
                match &toks[j].kind {
                    TokKind::Punct(';')
                    | TokKind::Punct('}')
                    | TokKind::Punct('(')
                    | TokKind::Punct(',') => break,
                    TokKind::Punct('[') => sequence_of = true,
                    TokKind::Ident(s) if s == "Vec" || s == "VecDeque" => sequence_of = true,
                    TokKind::Punct(':')
                        if !punct_at(toks, j + 1, ':')
                            && !punct_at(toks, j.wrapping_sub(1), ':') =>
                    {
                        if !sequence_of {
                            if let Some(name) = ident_at(toks, j - 1) {
                                out.insert(name.to_string(), which.to_string());
                            }
                        }
                        break;
                    }
                    _ => {}
                }
            }
        }
        // Construction: `let [mut] name = HashMap::new()` / `with_capacity`.
        if punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') {
            if let Some(name) = let_binding_before(toks, i) {
                out.insert(name, which.to_string());
            }
        }
        // Turbofish collect: `let name = ….collect::<HashMap<…>>()`.
        if punct_at(toks, i.wrapping_sub(1), '<')
            && ident_at(toks, i.wrapping_sub(4)) == Some("collect")
        {
            if let Some(name) = let_binding_before(toks, i) {
                out.insert(name, which.to_string());
            }
        }
    }
    out
}

/// The `let [mut] name` opening the statement containing `at`, if any.
fn let_binding_before(toks: &[Tok], at: usize) -> Option<String> {
    let mut j = at;
    let lo = at.saturating_sub(64);
    while j > lo {
        j -= 1;
        match &toks[j].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => return None,
            TokKind::Ident(s) if s == "let" => {
                let k = if ident_at(toks, j + 1) == Some("mut") {
                    j + 2
                } else {
                    j + 1
                };
                return ident_at(toks, k).map(str::to_string);
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        audit("crates/x/src/code.rs", src, &mut f);
        f
    }

    fn active(src: &str) -> Vec<Finding> {
        run(src).into_iter().filter(|f| !f.allowed).collect()
    }

    #[test]
    fn field_iteration_is_flagged() {
        let src = r#"
            struct S { index: HashMap<u64, Vec<u32>> }
            impl S {
                fn dump(&self) -> Vec<u64> {
                    self.index.keys().copied().collect()
                }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`index`"));
        assert_eq!(f[0].pass, "map-iter");
    }

    /// The engine's internal tables spell their hasher out
    /// (`HashMap<K, V, FastBuild>`): a deterministic hasher still leaves
    /// iteration order an accident of the hash, so the walk is flagged.
    #[test]
    fn a_map_with_a_custom_hasher_is_still_a_map() {
        let src = r#"
            struct Inflight { slots: OrderedMutex<HashMap<u64, u32, FastBuild>> }
            struct S { index: HashMap<u64, u32, FastBuild> }
            impl S {
                fn dump(&self) -> Vec<u64> {
                    self.index.keys().copied().collect()
                }
                fn cancel_all(inflight: &Inflight) {
                    let mut slots = inflight.slots.lock();
                    for (k, _) in slots.drain() { cancel(k); }
                }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("`keys` over `index`"), "{f:?}");
        assert!(f[1].message.contains("`drain` over `slots`"), "{f:?}");
    }

    #[test]
    fn sort_in_the_next_statement_suppresses() {
        let src = r#"
            struct S { index: HashMap<u64, u32> }
            impl S {
                fn dump(&self) -> Vec<u64> {
                    let mut v: Vec<u64> = self.index.keys().copied().collect();
                    v.sort_unstable();
                    v
                }
            }
        "#;
        assert!(active(src).is_empty(), "{:?}", active(src));
        // …but a sort two statements later does not: the window is the
        // canonical collect-then-sort pair only.
        let late = r#"
            struct S { index: HashMap<u64, u32> }
            impl S {
                fn dump(&self) -> Vec<u64> {
                    let mut v: Vec<u64> = self.index.keys().copied().collect();
                    let n = v.len();
                    v.sort_unstable();
                    v.truncate(n);
                    v
                }
            }
        "#;
        assert_eq!(active(late).len(), 1);
    }

    #[test]
    fn sequences_of_maps_are_not_maps() {
        let src = r#"
            fn f(probes: &[HashMap<String, u32>]) -> usize {
                let owned: Vec<HashMap<String, u32>> = probes.to_vec();
                for (i, p) in owned.into_iter().enumerate() {
                    use_probe(i, p);
                }
                probes.iter().map(|p| p.len()).max().unwrap_or(0)
            }
        "#;
        assert!(active(src).is_empty(), "{:?}", active(src));
    }

    #[test]
    fn same_statement_sort_suppresses() {
        let src = r#"
            fn f(m: HashMap<u64, u32>) -> Vec<u64> {
                let mut v: Vec<u64> = m.keys().copied().collect(); v.sort();
                v
            }
        "#;
        // `;` splits the statements — keep them on distinct spans.
        let joined = r#"
            fn f(m: HashMap<u64, u32>) -> Vec<u64> {
                sorted_vec(m.keys().copied().collect())
            }
        "#;
        assert!(active(joined).is_empty());
        let _ = src;
    }

    #[test]
    fn order_insensitive_sink_is_clean() {
        let src = r#"
            fn f(m: HashMap<u64, u32>) -> usize {
                m.values().filter(|v| **v > 3).count()
            }
        "#;
        assert!(active(src).is_empty());
    }

    #[test]
    fn sum_is_not_a_sink() {
        let src = r#"
            fn f(m: HashMap<u64, f64>) -> f64 {
                m.values().sum()
            }
        "#;
        assert_eq!(active(src).len(), 1);
    }

    #[test]
    fn recollecting_into_hash_is_clean() {
        let src = r#"
            fn f(m: HashMap<u64, u32>) -> HashSet<u64> {
                m.keys().copied().collect::<HashSet<_>>()
            }
        "#;
        assert!(active(src).is_empty());
    }

    #[test]
    fn for_loop_over_ref_is_flagged() {
        let src = r#"
            fn f(m: &HashMap<u64, u32>, out: &mut Vec<u64>) {
                for (k, _) in m {
                    out.push(*k);
                }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("for-in"));
    }

    #[test]
    fn impl_for_and_higher_ranked_for_open_no_loop() {
        // Neither `for` may swallow the tokens up to the loop's `in`.
        let src = r#"
            struct S { m: HashMap<u64, f64> }
            impl std::fmt::Debug for S {
                fn fmt(&self, f: &mut Formatter<'_>) -> Result { Ok(()) }
            }
            fn apply<F>(f: F) where F: for<'a> Fn(&'a u64) {}
            impl S {
                fn total(&self) -> f64 { self.m.values().sum() }
                fn lengths(v: &[u64]) { for x in v { use_it(x); } }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`values`"), "{f:?}");
    }

    #[test]
    fn struct_pattern_loop_header_is_audited() {
        let src = r#"
            fn f(m: &HashMap<u64, u32>, out: &mut Vec<u64>) {
                for Pair { k, .. } in m {
                    out.push(k);
                }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("for-in"));
    }

    #[test]
    fn allow_marker_downgrades_to_allowed() {
        let src = r#"
            fn f(m: &HashMap<u64, u32>, out: &mut HashMap<u64, u32>) {
                // analysis:allow(map-iter): body only inserts into another map
                for (k, v) in m.iter() {
                    out.insert(*k, *v);
                }
            }
        "#;
        assert!(active(src).is_empty());
        assert_eq!(run(src).iter().filter(|f| f.allowed).count(), 1);
    }

    #[test]
    fn btree_is_never_flagged() {
        let src = r#"
            fn f(m: &BTreeMap<u64, u32>) -> Vec<u64> {
                m.keys().copied().collect()
            }
        "#;
        assert!(active(src).is_empty());
    }

    #[test]
    fn let_construction_is_tracked() {
        let src = r#"
            fn f(items: &[u64]) -> Vec<u64> {
                let mut seen = HashMap::new();
                for i in items { seen.insert(*i, ()); }
                seen.keys().copied().collect()
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`seen`"));
    }

    #[test]
    fn test_regions_are_invisible() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f(m: &HashMap<u64, u32>) -> Vec<u64> {
                    m.keys().copied().collect()
                }
            }
        "#;
        assert!(active(src).is_empty());
    }
}
