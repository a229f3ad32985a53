//! The static lock-order verifier: the compile-time complement of the
//! runtime rank checker in `prophet_mc::sync`.
//!
//! The runtime checker (`OrderedMutex`/`OrderedRwLock` under
//! `--features check`) only proves the rank discipline over paths a test
//! actually executes; an inversion on an unexercised path ships
//! silently. This pass proves the discipline over *all* source paths in
//! the scoped crates, with three layers:
//!
//! 1. **Lock map** — every `OrderedMutex::new(rank, …)` /
//!    `OrderedRwLock::new(rank, …)` definition site is parsed and its
//!    rank expression resolved against the extracted
//!    [rank table](crate::ranktable). The binding name (struct field or
//!    `let`) plus the field's declared inner type tie acquisition sites
//!    (`self.table.read()`, `slots[i].lock()`…) back to ranks.
//! 2. **Guard model** — each function body is walked linearly with a
//!    scope stack: `let`-bound guards hold their rank until `drop(g)` or
//!    scope end; expression temporaries hold to the end of their
//!    statement. Acquiring a rank ≤ any held rank is a finding.
//! 3. **May-hold fixpoint** — a per-function call graph (plain calls,
//!    `self.`/`Self::` calls, and distinctively-named method calls) is
//!    closed transitively into `may_acquire(f)`: every rank `f` or its
//!    callees can take. A call made while holding rank R is a finding if
//!    the callee may acquire any rank ≤ R, reported with the full call
//!    path down to the acquiring function.
//!
//! # Soundness policy
//!
//! The pass is deliberately *lightweight* — token-level, no type
//! inference — so it trades a documented sliver of coverage for running
//! on every push in milliseconds:
//!
//! * method calls whose names collide with std collection/iterator
//!   vocabulary (`insert`, `get`, `clear`, …, the `AMBIENT` list) are
//!   not resolved into the call graph: resolving `map.insert(…)` to
//!   `SharedBasisStore::insert` would drown the report in false paths.
//!   Such calls remain covered by the runtime checker and by this pass's
//!   *intra*-function walk of the callee itself;
//! * an acquisition whose receiver cannot be tied to a known lock is its
//!   own finding (`unresolved`), so the lock map must stay complete —
//!   unknown locks fail the gate instead of silently escaping;
//! * per-site escapes are explicit: `// analysis:allow(lock-order):
//!   reason` — used where ascending order is proven by construction in a
//!   way the token model cannot see, and audited like any other allow.
//!
//! `docs/ANALYSIS.md` carries the full architecture discussion.

use std::collections::{HashMap, HashSet};

use crate::findings::Finding;
use crate::lex::{ident_at, lex, punct_at, skip_group, strip_test_regions, Lexed, Tok, TokKind};
use crate::ranktable::RankTable;

/// A contiguous rank span. Every rank-table lock is `lo == hi`; an
/// acquisition the lock map cannot resolve spans everything
/// (`0..=u16::MAX`), so it conflicts with whatever is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankRange {
    pub lo: u16,
    pub hi: u16,
    pub name: String,
}

impl RankRange {
    fn describe(&self) -> String {
        if self.lo == self.hi {
            format!("`{}` (rank {})", self.name, self.lo)
        } else {
            format!("`{}` (ranks {}–{})", self.name, self.lo, self.hi)
        }
    }
}

/// Method names never resolved into the call graph: std
/// collection/iterator/option vocabulary that would otherwise alias
/// workspace functions of the same name (`insert`, `clear`, …) into
/// every call site. See the module docs' soundness policy.
const AMBIENT: &[&str] = &[
    "new",
    "default",
    "clone",
    "insert",
    "get",
    "get_mut",
    "remove",
    "take",
    "replace",
    "push",
    "pop",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "clear",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "drain",
    "entry",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "map",
    "filter",
    "fold",
    "collect",
    "join",
    "next",
    "min",
    "max",
    "sum",
    "count",
    "get_or_insert_with",
    "unwrap_or_else",
    "unwrap_or",
    "to_vec",
    "to_string",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "send",
    "recv",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "abs",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "finish",
    "field",
    "wait",
    "notify_all",
    "notify_one",
    "lock",
    "read",
    "write",
    "flush",
    "rank",
    "name",
    "is_some",
    "is_none",
    "ok",
    "err",
    "expect",
    "unwrap",
    "and_then",
    "or_else",
    "position",
    "find",
    "any",
    "all",
    "rev",
    "zip",
    "enumerate",
    "chain",
    "split_off",
    "retain",
    "resize",
    "reserve",
    "with_capacity",
    "capacity",
    "first",
    "last",
    "swap",
    "entries",
    "observe",
];

/// Rust keywords that look like call heads (`if (…)`, `while (…)`,
/// `match (…)`, `return (…)`, …) and must not resolve as functions.
const KEYWORDS: &[&str] = &[
    "if",
    "else",
    "while",
    "for",
    "match",
    "return",
    "loop",
    "fn",
    "let",
    "impl",
    "struct",
    "enum",
    "trait",
    "mod",
    "use",
    "pub",
    "const",
    "static",
    "move",
    "mut",
    "ref",
    "in",
    "as",
    "where",
    "dyn",
    "box",
    "unsafe",
    "async",
    "await",
    "break",
    "continue",
    "crate",
    "self",
    "Self",
    "super",
    "type",
    "assert",
    "debug_assert",
];

// --------------------------------------------------------- per-file maps

/// A file's lock-name map plus its lexed, test-stripped tokens.
struct FileInfo {
    path: String,
    toks: Vec<Tok>,
    allowed: Lexed,
    /// ident → rank range, from definition sites and typed field decls.
    locks: HashMap<String, RankRange>,
}

/// One function item.
struct FnInfo {
    file: usize,
    name: String,
    /// Token range of the body, *inside* the braces.
    body: (usize, usize),
}

/// The assembled model: files, functions, and the per-function facts the
/// checker and fixpoint run on.
pub struct LockModel {
    files: Vec<FileInfo>,
    fns: Vec<FnInfo>,
    /// fn name → indices into `fns` (collisions possible; resolution
    /// rules decide which apply per call site).
    by_name: HashMap<String, Vec<usize>>,
    /// Cross-file fallback: binding names whose definition sites all
    /// agree on one range (a struct may be *declared* with its
    /// `OrderedMutex` field in one file and *constructed* in another).
    /// Ambiguous names — `state` is rank 10 in the scheduler and 40 in
    /// the store — are deliberately absent.
    global_locks: HashMap<String, RankRange>,
    /// Findings raised while building the model (unresolved rank
    /// expressions and the like).
    pub build_findings: Vec<Finding>,
}

/// One step of a function body walk.
enum Event {
    Acquire {
        range: RankRange,
        line: usize,
        /// `None`: expression temporary (released at statement end);
        /// `Some(idents)`: a `let`-bound guard (released at `drop` of any
        /// of the idents or at scope end of the binding's depth).
        binding: Option<(Vec<String>, usize)>,
    },
    Drop {
        ident: String,
    },
    /// Scope close back *to* `depth`: release bindings deeper than it.
    CloseScope {
        depth: usize,
    },
    /// Statement boundary: release temporaries.
    EndStmt,
    Call {
        name: String,
        line: usize,
        /// `self.x()` / `Self::x()`: resolve within the defining file only.
        same_file: bool,
        /// Method/path call (ambient filter applies) vs plain call.
        method: bool,
    },
}

/// Build the model over `files` (path, source). Files named `sync.rs`
/// are excluded wholesale: they implement the primitives this pass
/// reasons about, and their internal raw-lock plumbing is the runtime
/// checker's own responsibility.
pub fn build(files: &[(String, String)], table: &RankTable) -> LockModel {
    let mut model = LockModel {
        files: Vec::new(),
        fns: Vec::new(),
        by_name: HashMap::new(),
        global_locks: HashMap::new(),
        build_findings: Vec::new(),
    };
    for (path, src) in files {
        if path.rsplit('/').next() == Some("sync.rs") {
            continue;
        }
        let lexed = lex(src);
        let toks = strip_test_regions(lexed.toks.clone());
        let mut info = FileInfo {
            path: path.clone(),
            toks,
            allowed: Lexed {
                toks: Vec::new(),
                allowed: lexed.allowed,
            },
            locks: HashMap::new(),
        };
        collect_locks(&mut info, table, &mut model.build_findings);
        let file_idx = model.files.len();
        collect_fns(&info, file_idx, &mut model.fns, &mut model.by_name);
        model.files.push(info);
    }
    // Cross-file fallback map: keep only names every defining file agrees
    // on.
    let mut agree: HashMap<String, Option<RankRange>> = HashMap::new();
    for f in &model.files {
        for (name, range) in &f.locks {
            match agree.get(name) {
                None => {
                    agree.insert(name.clone(), Some(range.clone()));
                }
                Some(Some(r)) if r == range => {}
                _ => {
                    agree.insert(name.clone(), None);
                }
            }
        }
    }
    model.global_locks = agree
        .into_iter()
        .filter_map(|(k, v)| v.map(|r| (k, r)))
        .collect();
    model
}

/// Definition-site + typed-field collection for one file.
fn collect_locks(info: &mut FileInfo, table: &RankTable, findings: &mut Vec<Finding>) {
    let toks = &info.toks;
    // (field name, inner type ident) from typed field declarations, to be
    // joined against definition sites' value types.
    let mut typed_fields: Vec<(String, String)> = Vec::new();
    // (rank range, value type ident) per definition site.
    let mut def_values: Vec<(RankRange, Option<String>)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let Some(name) = ident_at(toks, i) else {
            i += 1;
            continue;
        };
        if name != "OrderedMutex" && name != "OrderedRwLock" {
            i += 1;
            continue;
        }
        // Type position: `OrderedMutex<Inner>` → record (field, Inner).
        if punct_at(toks, i + 1, '<') {
            if let Some(inner) = ident_at(toks, i + 2) {
                if let Some(field) = binding_before(toks, i) {
                    typed_fields.push((field, inner.to_string()));
                }
            }
            i += 1;
            continue;
        }
        // Definition site: `OrderedMutex::new(<rank expr>, <value>)`.
        if !(punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
            && ident_at(toks, i + 3) == Some("new")
            && punct_at(toks, i + 4, '('))
        {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let (range, after_rank) = match parse_rank_expr(toks, i + 5, table) {
            Some(parsed) => parsed,
            None => {
                findings.push(Finding::new(
                    "lock-order",
                    &info.path,
                    line,
                    "cannot resolve this lock's rank expression against the rank table — \
                     use a named `LockRank` const"
                        .into(),
                ));
                i += 5;
                continue;
            }
        };
        // First ident of the value argument: the inner type hint.
        let value_ty = ident_at(toks, after_rank + 1).map(str::to_string);
        def_values.push((range.clone(), value_ty));
        if let Some(binding) = binding_before(toks, i) {
            info.locks.insert(binding, range);
        }
        i = after_rank + 1;
    }

    // Join typed fields to definition sites by inner type: this is what
    // ties `table: Arc<OrderedRwLock<Table>>` to an
    // `OrderedRwLock::new(rank::STORE_TABLE, Table::default())`
    // construction bound to a differently-named local.
    for (field, inner) in typed_fields {
        if info.locks.contains_key(&field) {
            continue;
        }
        let matches: Vec<&RankRange> = def_values
            .iter()
            .filter(|(_, ty)| ty.as_deref() == Some(inner.as_str()))
            .map(|(r, _)| r)
            .collect();
        if let Some(first) = matches.first() {
            if matches.iter().all(|r| *r == *first) {
                info.locks.insert(field, (*first).clone());
            }
        }
    }
}

/// Resolve the rank expression starting at `i` (just past the opening
/// paren): either an inline `LockRank::new(N, "name")` or a path ending
/// in a rank const (`rank::STORE_TABLE`, `ENGINE_METRICS`). Returns the
/// range and the index of the `,` ending the expression.
fn parse_rank_expr(toks: &[Tok], i: usize, table: &RankTable) -> Option<(RankRange, usize)> {
    // Inline literal (tests, fixtures).
    if ident_at(toks, i) == Some("LockRank")
        && punct_at(toks, i + 1, ':')
        && punct_at(toks, i + 2, ':')
        && ident_at(toks, i + 3) == Some("new")
        && punct_at(toks, i + 4, '(')
    {
        if let (Some(TokKind::Num(n)), Some(TokKind::Str(s))) = (
            toks.get(i + 5).map(|t| &t.kind),
            toks.get(i + 7).map(|t| &t.kind),
        ) {
            let n = n.parse::<u16>().ok()?;
            let close = skip_group(toks, i + 4); // past the inner `)`
            if punct_at(toks, close, ',') {
                return Some((
                    RankRange {
                        lo: n,
                        hi: n,
                        name: s.clone(),
                    },
                    close,
                ));
            }
        }
        return None;
    }
    // Path form: collect idents to the `,` (depth 0).
    let mut j = i;
    let mut last_ident: Option<String> = None;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct(',') => break,
            TokKind::Punct('(') | TokKind::Punct('[') => {
                j = skip_group(toks, j);
                continue;
            }
            TokKind::Punct(')') => return None,
            TokKind::Ident(s) => last_ident = Some(s.clone()),
            _ => {}
        }
        j += 1;
    }
    let const_name = last_ident?;
    let entry = table.by_const(&const_name)?;
    let range = RankRange {
        lo: entry.rank,
        hi: entry.rank,
        name: entry.lock_name.clone(),
    };
    Some((range, j))
}

/// The binding a definition at `i` initializes: scan backwards (bounded,
/// stopping at statement boundaries) for the nearest `ident :` struct
/// field / `let ident` pattern.
fn binding_before(toks: &[Tok], i: usize) -> Option<String> {
    let lo = i.saturating_sub(48);
    let mut j = i;
    while j > lo {
        j -= 1;
        match &toks[j].kind {
            TokKind::Punct(';') | TokKind::Punct('}') => return None,
            // Single colon (not `::`) preceded by an ident: field or
            // `let name: Type`.
            TokKind::Punct(':')
                if !punct_at(toks, j + 1, ':') && !punct_at(toks, j.wrapping_sub(1), ':') =>
            {
                if let Some(name) = ident_at(toks, j - 1) {
                    if !KEYWORDS.contains(&name) {
                        return Some(name.to_string());
                    }
                }
            }
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

/// Function-item extraction for one file.
fn collect_fns(
    info: &FileInfo,
    file_idx: usize,
    fns: &mut Vec<FnInfo>,
    by_name: &mut HashMap<String, Vec<usize>>,
) {
    let toks = &info.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else {
            i += 1;
            continue;
        };
        let name = name.to_string();
        let mut j = i + 2;
        // Generics: `<…>` with `->` arrows inside `Fn() -> T` bounds.
        if punct_at(toks, j, '<') {
            let mut depth = 0isize;
            while j < toks.len() {
                if punct_at(toks, j, '<') {
                    depth += 1;
                } else if punct_at(toks, j, '>') && !punct_at(toks, j.wrapping_sub(1), '-') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !punct_at(toks, j, '(') {
            i += 1;
            continue;
        }
        let params_end = skip_group(toks, j);
        // Forward to the body `{` or a `;` (trait method without body).
        let mut k = params_end;
        let mut body = None;
        while k < toks.len() {
            match &toks[k].kind {
                TokKind::Punct(';') => break,
                TokKind::Punct('{') => {
                    body = Some((k + 1, skip_group(toks, k).saturating_sub(1)));
                    break;
                }
                _ => k += 1,
            }
        }
        if let Some(body) = body {
            let idx = fns.len();
            fns.push(FnInfo {
                file: file_idx,
                name: name.clone(),
                body,
            });
            by_name.entry(name).or_default().push(idx);
        }
        // Continue from past the params so nested fns are found too; the
        // event walk skips nested `fn` items to avoid double attribution.
        i = params_end;
    }
}

// ------------------------------------------------------------ event walk

/// One open `let` binding during a body walk.
struct LetCtx {
    idents: Vec<String>,
    depth: usize,
    /// Still scanning the pattern/type, i.e. the `=` has not passed yet.
    before_eq: bool,
    /// An `if let` / `while let`: the binding lives in the *body* scope,
    /// not the enclosing one.
    cond: bool,
}

/// Walk one function body into events. `locks` is the file's lock map.
fn walk_body(
    info: &FileInfo,
    global: &HashMap<String, RankRange>,
    body: (usize, usize),
    events: &mut Vec<Event>,
) {
    let toks = &info.toks;
    let (start, end) = body;
    let mut depth = 0usize;
    let mut let_stack: Vec<LetCtx> = Vec::new();
    // Locals that *refer* to a lock without acquiring it
    // (`let slot = &self.slots[i];`, `for s in self.slots.iter()`):
    // resolved like the lock itself at their acquisition sites.
    let mut aliases: HashMap<String, RankRange> = HashMap::new();
    let mut i = start;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                // An `if let`/`while let` binding scope starts at its body.
                if let_stack
                    .last()
                    .is_some_and(|l| l.cond && l.depth == depth && !l.before_eq)
                {
                    let_stack.pop();
                }
                depth += 1;
                events.push(Event::EndStmt);
                i += 1;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                events.push(Event::EndStmt);
                events.push(Event::CloseScope { depth });
                // A `let … = match { … }` arm close does not end the let.
                i += 1;
            }
            TokKind::Punct(';') => {
                events.push(Event::EndStmt);
                if let_stack.last().is_some_and(|l| l.depth == depth) {
                    let_stack.pop();
                }
                i += 1;
            }
            TokKind::Punct('=') => {
                // `=` (not `==`, `=>`, `<=`…): the active let's pattern is
                // complete.
                if !punct_at(toks, i + 1, '=')
                    && !punct_at(toks, i + 1, '>')
                    && !punct_at(toks, i.wrapping_sub(1), '=')
                    && !punct_at(toks, i.wrapping_sub(1), '<')
                    && !punct_at(toks, i.wrapping_sub(1), '>')
                    && !punct_at(toks, i.wrapping_sub(1), '!')
                    && !punct_at(toks, i.wrapping_sub(1), '+')
                    && !punct_at(toks, i.wrapping_sub(1), '-')
                    && !punct_at(toks, i.wrapping_sub(1), '*')
                    && !punct_at(toks, i.wrapping_sub(1), '/')
                {
                    if let Some(last) = let_stack.last_mut() {
                        last.before_eq = false;
                    }
                }
                i += 1;
            }
            TokKind::Ident(s) if s == "let" => {
                let cond = matches!(ident_at(toks, i.wrapping_sub(1)), Some("if" | "while"));
                // Collect pattern idents up to `=` (or `;` for `let x;`).
                let mut idents = Vec::new();
                let mut j = i + 1;
                while j < end {
                    match &toks[j].kind {
                        TokKind::Punct('=') | TokKind::Punct(';') => break,
                        TokKind::Punct(':') if !punct_at(toks, j + 1, ':') => {
                            // Type ascription: skip to `=`/`;` at depth 0.
                            let mut angle = 0isize;
                            while j < end {
                                match &toks[j].kind {
                                    TokKind::Punct('<') => angle += 1,
                                    TokKind::Punct('>') => angle -= 1,
                                    TokKind::Punct('=') | TokKind::Punct(';') if angle <= 0 => {
                                        break
                                    }
                                    _ => {}
                                }
                                j += 1;
                            }
                            break;
                        }
                        TokKind::Ident(id) if id != "mut" && id != "ref" => {
                            idents.push(id.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                // Alias detection: if the initializer mentions a known
                // lock but never acquires one, the bound name is a
                // reference to the lock itself.
                if punct_at(toks, j, '=') {
                    if let Some(range) =
                        initializer_lock_ref(info, global, &aliases, toks, j + 1, end, cond)
                    {
                        for id in &idents {
                            aliases.insert(id.clone(), range.clone());
                        }
                    }
                }
                let_stack.push(LetCtx {
                    idents,
                    depth,
                    before_eq: true,
                    cond,
                });
                i = j;
            }
            TokKind::Ident(s) if s == "for" => {
                // `for pat in <expr> {`: alias the loop variable when the
                // expression refers to a known lock without acquiring it.
                let mut idents = Vec::new();
                let mut j = i + 1;
                while j < end && ident_at(toks, j) != Some("in") {
                    if let TokKind::Ident(id) = &toks[j].kind {
                        if id != "mut" && id != "ref" {
                            idents.push(id.clone());
                        }
                    }
                    j += 1;
                }
                if ident_at(toks, j) == Some("in") {
                    if let Some(range) =
                        initializer_lock_ref(info, global, &aliases, toks, j + 1, end, true)
                    {
                        for id in &idents {
                            aliases.insert(id.clone(), range.clone());
                        }
                    }
                }
                // A guard acquired in the loop header
                // (`for x in m.lock().drain(..)`) lives for the whole
                // loop: bind it to the body scope like an `if let`.
                let_stack.push(LetCtx {
                    idents,
                    depth,
                    before_eq: false,
                    cond: true,
                });
                i = j + 1;
            }
            TokKind::Ident(s) if s == "fn" => {
                // Nested fn item: skip — it is extracted as its own
                // function and must not pollute this walk.
                let mut j = i + 1;
                while j < end && !punct_at(toks, j, '{') && !punct_at(toks, j, ';') {
                    j += 1;
                }
                i = if punct_at(toks, j, '{') {
                    skip_group(toks, j)
                } else {
                    j + 1
                };
            }
            TokKind::Ident(s) if s == "drop" && punct_at(toks, i + 1, '(') => {
                if let Some(id) = ident_at(toks, i + 2) {
                    if punct_at(toks, i + 3, ')') {
                        events.push(Event::Drop {
                            ident: id.to_string(),
                        });
                    }
                }
                i += 1;
            }
            TokKind::Punct('.')
                if matches!(ident_at(toks, i + 1), Some("lock" | "read" | "write"))
                    && punct_at(toks, i + 2, '(')
                    && punct_at(toks, i + 3, ')') =>
            {
                let line = toks[i + 1].line;
                let recv = receiver_before(toks, i, start);
                match recv.as_deref() {
                    Some("self") => {
                        // `self.read()`: a method call on the type, not a
                        // lock acquisition — emitted as a same-file call.
                        events.push(Event::Call {
                            name: ident_at(toks, i + 1).unwrap().to_string(),
                            line,
                            same_file: true,
                            method: false,
                        });
                    }
                    _ => {
                        let range = recv
                            .as_deref()
                            .and_then(|r| info.locks.get(r))
                            .cloned()
                            .or_else(|| recv.as_deref().and_then(|r| aliases.get(r)).cloned())
                            .or_else(|| recv.as_deref().and_then(|r| global.get(r)).cloned())
                            .or_else(|| {
                                statement_lock_hint(info, global, &aliases, toks, i, start)
                            });
                        let binding = let_stack.last().filter(|l| !l.before_eq).map(|l| {
                            (l.idents.clone(), if l.cond { l.depth + 1 } else { l.depth })
                        });
                        match range {
                            Some(range) => events.push(Event::Acquire {
                                range,
                                line,
                                binding,
                            }),
                            None => events.push(Event::Acquire {
                                range: RankRange {
                                    lo: 0,
                                    hi: u16::MAX,
                                    name: format!(
                                        "<unresolved `{}.{}()`>",
                                        recv.as_deref().unwrap_or("?"),
                                        ident_at(toks, i + 1).unwrap()
                                    ),
                                },
                                line,
                                binding,
                            }),
                        }
                    }
                }
                i += 4;
            }
            TokKind::Ident(name)
                if punct_at(toks, i + 1, '(')
                    && !KEYWORDS.contains(&name.as_str())
                    && !punct_at(toks, i.wrapping_sub(1), '!') =>
            {
                let is_method = punct_at(toks, i.wrapping_sub(1), '.');
                let is_path = punct_at(toks, i.wrapping_sub(1), ':')
                    && punct_at(toks, i.wrapping_sub(2), ':');
                let same_file = (is_method && ident_at(toks, i.wrapping_sub(2)) == Some("self"))
                    || (is_path && ident_at(toks, i.wrapping_sub(3)) == Some("Self"));
                // Macros (`foo!(…)`) were excluded by the `!` check above.
                events.push(Event::Call {
                    name: name.clone(),
                    line: toks[i].line,
                    same_file,
                    method: (is_method || is_path) && !same_file,
                });
                i += 1;
            }
            _ => i += 1,
        }
    }
    events.push(Event::EndStmt);
    events.push(Event::CloseScope { depth: 0 });
}

/// The receiver ident of the `.lock()`-style call whose dot sits at `dot`.
fn receiver_before(toks: &[Tok], dot: usize, lo: usize) -> Option<String> {
    if dot == 0 || dot <= lo {
        return None;
    }
    let mut j = dot - 1;
    // `foo[idx].lock()` / `foo().lock()`: hop over the trailing group.
    while j > lo && (punct_at(toks, j, ']') || punct_at(toks, j, ')')) {
        let close = match toks[j].kind {
            TokKind::Punct(']') => '[',
            _ => '(',
        };
        let mut depth = 0usize;
        loop {
            match &toks[j].kind {
                TokKind::Punct(c) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Punct(c) if *c == (if close == '[' { ']' } else { ')' }) => {
                    depth += 1;
                }
                _ => {}
            }
            if j == lo {
                return None;
            }
            j -= 1;
        }
        if j == lo {
            return None;
        }
        j -= 1; // token before the opening bracket
    }
    ident_at(toks, j).map(str::to_string)
}

/// Fallback receiver resolution: when a closure parameter or chained
/// expression hides the lock (`self.slots.iter().map(|s| s.read())`),
/// look backwards through the enclosing statement for any known lock
/// name.
fn statement_lock_hint(
    info: &FileInfo,
    global: &HashMap<String, RankRange>,
    aliases: &HashMap<String, RankRange>,
    toks: &[Tok],
    at: usize,
    lo: usize,
) -> Option<RankRange> {
    let mut j = at;
    while j > lo {
        j -= 1;
        match &toks[j].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => return None,
            TokKind::Ident(s) => {
                if let Some(range) = info
                    .locks
                    .get(s)
                    .or_else(|| aliases.get(s))
                    .or_else(|| global.get(s))
                {
                    return Some(range.clone());
                }
            }
            _ => {}
        }
    }
    None
}

/// Does the expression starting at `from` *refer* to a known lock
/// without acquiring it? Scans to the statement's end — `;` at relative
/// depth 0, or the body `{` when `stops_at_brace` (if/while-let and for
/// headers). Returns the referenced lock's range for aliasing, or `None`
/// if nothing is referenced or an acquisition happens (the guard path
/// handles those).
fn initializer_lock_ref(
    info: &FileInfo,
    global: &HashMap<String, RankRange>,
    aliases: &HashMap<String, RankRange>,
    toks: &[Tok],
    from: usize,
    end: usize,
    stops_at_brace: bool,
) -> Option<RankRange> {
    let mut depth = 0isize;
    let mut referenced: Option<RankRange> = None;
    let mut j = from;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct(';') if depth == 0 => break,
            TokKind::Punct('{') if depth == 0 && stops_at_brace => break,
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokKind::Punct('.')
                if matches!(ident_at(toks, j + 1), Some("lock" | "read" | "write"))
                    && punct_at(toks, j + 2, '(')
                    && punct_at(toks, j + 3, ')') =>
            {
                return None; // acquires: not a bare reference
            }
            TokKind::Ident(s) if referenced.is_none() => {
                referenced = info
                    .locks
                    .get(s)
                    .or_else(|| aliases.get(s))
                    .or_else(|| global.get(s))
                    .cloned();
            }
            _ => {}
        }
        j += 1;
    }
    referenced
}

// --------------------------------------------------------------- checker

/// Run the inter-procedural check over the model, returning findings.
pub fn check(model: &LockModel) -> Vec<Finding> {
    // Per-function events.
    let mut events: Vec<Vec<Event>> = Vec::with_capacity(model.fns.len());
    for f in &model.fns {
        let mut ev = Vec::new();
        walk_body(&model.files[f.file], &model.global_locks, f.body, &mut ev);
        events.push(ev);
    }

    // Call adjacency + direct acquisitions.
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); model.fns.len()];
    let mut direct: Vec<Vec<RankRange>> = vec![Vec::new(); model.fns.len()];
    for (fi, ev) in events.iter().enumerate() {
        for e in ev {
            match e {
                Event::Acquire { range, .. } if range.name.starts_with('<') => {} // unresolved
                Event::Acquire { range, .. } if !direct[fi].contains(range) => {
                    direct[fi].push(range.clone());
                }
                Event::Call {
                    name,
                    same_file,
                    method,
                    ..
                } => {
                    for c in resolve_call(model, model.fns[fi].file, name, *same_file, *method) {
                        if !callees[fi].contains(&c) {
                            callees[fi].push(c);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // may_acquire fixpoint.
    let mut may: Vec<Vec<RankRange>> = direct.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for fi in 0..model.fns.len() {
            for ci in callees[fi].clone() {
                let add: Vec<RankRange> = may[ci]
                    .iter()
                    .filter(|r| !may[fi].contains(r))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    may[fi].extend(add);
                    changed = true;
                }
            }
        }
    }

    // Per-function linear check.
    let mut findings = Vec::new();
    for (fi, ev) in events.iter().enumerate() {
        check_fn(model, fi, ev, &callees, &direct, &may, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

fn resolve_call(
    model: &LockModel,
    file: usize,
    name: &str,
    same_file: bool,
    method: bool,
) -> Vec<usize> {
    let Some(all) = model.by_name.get(name) else {
        return Vec::new();
    };
    if same_file {
        return all
            .iter()
            .copied()
            .filter(|&i| model.fns[i].file == file)
            .collect();
    }
    if method && AMBIENT.contains(&name) {
        return Vec::new();
    }
    all.clone()
}

#[allow(clippy::too_many_arguments)]
fn check_fn(
    model: &LockModel,
    fi: usize,
    events: &[Event],
    callees: &[Vec<usize>],
    direct: &[Vec<RankRange>],
    may: &[Vec<RankRange>],
    findings: &mut Vec<Finding>,
) {
    let f = &model.fns[fi];
    let info = &model.files[f.file];
    struct Guard {
        idents: Vec<String>,
        range: RankRange,
        depth: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut temps: Vec<RankRange> = Vec::new();

    let held_max = |guards: &[Guard], temps: &[RankRange]| -> Option<RankRange> {
        guards
            .iter()
            .map(|g| &g.range)
            .chain(temps.iter())
            .filter(|r| r.hi != u16::MAX) // unresolved ranges don't cascade
            .max_by_key(|r| r.hi)
            .cloned()
    };

    for e in events {
        match e {
            Event::Acquire {
                range,
                line,
                binding,
            } => {
                let allowed = info.allowed.allows("lock-order", *line);
                if range.hi == u16::MAX {
                    // Unresolved receiver: its own finding, never held.
                    findings.push(Finding {
                        allowed,
                        ..Finding::new(
                            "lock-order",
                            &info.path,
                            *line,
                            format!(
                                "in `{}`: {} — receiver not in the lock map; name the lock \
                                 or annotate the site",
                                f.name, range.name
                            ),
                        )
                    });
                    continue;
                }
                if let Some(top) = held_max(&guards, &temps) {
                    if range.lo <= top.hi {
                        findings.push(Finding {
                            allowed,
                            ..Finding::new(
                                "lock-order",
                                &info.path,
                                *line,
                                format!(
                                    "in `{}`: acquiring {} while holding {} — ranks must \
                                     strictly ascend (docs/CONCURRENCY.md)",
                                    f.name,
                                    range.describe(),
                                    top.describe()
                                ),
                            )
                        });
                    }
                }
                match binding {
                    Some((idents, depth)) => guards.push(Guard {
                        idents: idents.clone(),
                        range: range.clone(),
                        depth: *depth,
                    }),
                    None => temps.push(range.clone()),
                }
            }
            Event::Drop { ident } => {
                guards.retain(|g| !g.idents.iter().any(|i| i == ident));
            }
            Event::CloseScope { depth } => {
                guards.retain(|g| g.depth <= *depth);
            }
            Event::EndStmt => temps.clear(),
            Event::Call {
                name,
                line,
                same_file,
                method,
            } => {
                let Some(top) = held_max(&guards, &temps) else {
                    continue;
                };
                let allowed = info.allowed.allows("lock-order", *line);
                for ci in resolve_call(model, f.file, name, *same_file, *method) {
                    let viol = may[ci].iter().find(|r| r.lo <= top.hi);
                    if let Some(viol) = viol {
                        let path = call_path(model, ci, viol, callees, direct);
                        findings.push(Finding {
                            allowed,
                            ..Finding::new(
                                "lock-order",
                                &info.path,
                                *line,
                                format!(
                                    "in `{}`: calling `{}` while holding {} — the callee may \
                                     acquire {}{}",
                                    f.name,
                                    name,
                                    top.describe(),
                                    viol.describe(),
                                    path
                                ),
                            )
                        });
                        break; // one finding per call site
                    }
                }
            }
        }
    }
}

/// Shortest call path from `from` to a function directly acquiring
/// `target`, rendered as ` via a → b → c`.
fn call_path(
    model: &LockModel,
    from: usize,
    target: &RankRange,
    callees: &[Vec<usize>],
    direct: &[Vec<RankRange>],
) -> String {
    if direct[from].contains(target) {
        return String::new();
    }
    let mut prev: HashMap<usize, usize> = HashMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen: HashSet<usize> = HashSet::from([from]);
    while let Some(cur) = queue.pop_front() {
        for &next in &callees[cur] {
            if !seen.insert(next) {
                continue;
            }
            prev.insert(next, cur);
            if direct[next].contains(target) {
                let mut chain = vec![next];
                let mut at = next;
                while let Some(&p) = prev.get(&at) {
                    chain.push(p);
                    at = p;
                }
                chain.reverse();
                let names: Vec<&str> = chain.iter().map(|&i| model.fns[i].name.as_str()).collect();
                return format!(" via `{}`", names.join(" → "));
            }
            queue.push_back(next);
        }
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranktable;

    const RANKS: &str = r#"
        pub const LOW: LockRank = LockRank::new(10, "low lock");
        pub const MID: LockRank = LockRank::new(40, "mid lock");
        pub const HIGH: LockRank = LockRank::new(90, "high lock");
        pub const ARR: LockRank = LockRank::new(50, "arr lock");
    "#;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![
            ("crates/x/src/sync_ranks.rs".to_string(), RANKS.to_string()),
            ("crates/x/src/code.rs".to_string(), src.to_string()),
        ];
        let table = ranktable::extract(&files);
        let model = build(&files, &table);
        let mut f = model.build_findings.clone();
        f.extend(check(&model));
        f
    }

    fn active(src: &str) -> Vec<Finding> {
        run(src).into_iter().filter(|f| !f.allowed).collect()
    }

    const STRUCT: &str = r#"
        struct S {
            low: OrderedMutex<u32>,
            mid: OrderedMutex<u32>,
            high: OrderedMutex<u32>,
        }
        impl S {
            fn new() -> S {
                S {
                    low: OrderedMutex::new(LOW, 0),
                    mid: OrderedMutex::new(MID, 0),
                    high: OrderedMutex::new(HIGH, 0),
                }
            }
        }
    "#;

    #[test]
    fn ascending_acquisition_is_clean() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn ok(&self) {{
                    let a = self.low.lock();
                    let b = self.mid.lock();
                    *self.high.lock() += *a + *b;
                }}
            }}"
        );
        assert_eq!(active(&src), Vec::new());
    }

    #[test]
    fn direct_inversion_is_a_finding_with_both_names() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn bad(&self) {{
                    let h = self.high.lock();
                    let l = self.low.lock();
                }}
            }}"
        );
        let f = active(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("low lock") && f[0].message.contains("high lock"));
        assert_eq!(f[0].pass, "lock-order");
    }

    #[test]
    fn guard_drop_releases_the_rank() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn ok(&self) {{
                    let h = self.high.lock();
                    drop(h);
                    let l = self.low.lock();
                }}
            }}"
        );
        assert_eq!(active(&src), Vec::new());
    }

    #[test]
    fn scope_end_releases_the_rank() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn ok(&self) {{
                    {{
                        let h = self.high.lock();
                    }}
                    let l = self.low.lock();
                }}
            }}"
        );
        assert_eq!(active(&src), Vec::new());
    }

    #[test]
    fn temporary_releases_at_statement_end() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn ok(&self) {{
                    *self.high.lock() += 1;
                    let l = self.low.lock();
                }}
            }}"
        );
        assert_eq!(active(&src), Vec::new());
    }

    #[test]
    fn equal_rank_reacquisition_is_a_finding() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn bad(&self) {{
                    let a = self.mid.lock();
                    let b = self.mid.lock();
                }}
            }}"
        );
        let f = active(&src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn call_path_inversion_is_reported_with_the_path() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn leaf(&self) {{
                    let l = self.low.lock();
                }}
                fn middle(&self) {{
                    self.leaf();
                }}
                fn bad(&self) {{
                    let h = self.high.lock();
                    self.middle();
                }}
            }}"
        );
        let f = active(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("leaf") && f[0].message.contains("middle"),
            "path missing: {}",
            f[0].message
        );
    }

    #[test]
    fn ascending_call_is_clean() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn leaf(&self) {{
                    let h = self.high.lock();
                }}
                fn ok(&self) {{
                    let l = self.low.lock();
                    self.leaf();
                }}
            }}"
        );
        assert_eq!(active(&src), Vec::new());
    }

    #[test]
    fn allow_marker_suppresses_but_still_reports() {
        let src = format!(
            "{STRUCT}
            impl S {{
                fn excused(&self) {{
                    let h = self.high.lock();
                    // analysis:allow(lock-order): test fixture
                    let l = self.low.lock();
                }}
            }}"
        );
        let all = run(&src);
        assert!(active(&src).is_empty());
        assert_eq!(all.iter().filter(|f| f.allowed).count(), 1);
    }

    #[test]
    fn array_lock_conflicts_with_itself() {
        let src = r#"
            struct S { arr: [OrderedRwLock<u32>; 2] }
            impl S {
                fn new() -> S {
                    S { arr: std::array::from_fn(|_| OrderedRwLock::new(ARR, 0)) }
                }
                fn bad(&self) {
                    let a = self.arr[0].write();
                    let b = self.arr[1].write();
                }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("arr lock"), "{}", f[0].message);
    }

    /// The rank table holds scalar consts only, so a lock ranked out of a
    /// `[LockRank; N]` fails the gate at its definition site.
    #[test]
    fn rank_array_slot_is_an_unresolved_rank() {
        let src = r#"
            pub const SLOTS: [LockRank; 2] =
                [LockRank::new(60, "slot 0"), LockRank::new(61, "slot 1")];
            struct S { slots: Vec<OrderedRwLock<u32>> }
            impl S {
                fn new() -> S {
                    S { slots: (0..2).map(|i| OrderedRwLock::new(SLOTS[i], 0)).collect() }
                }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("cannot resolve"), "{}", f[0].message);
    }

    #[test]
    fn closure_receiver_resolves_through_the_statement() {
        let src = r#"
            struct S { arr: [OrderedRwLock<u32>; 2], high: OrderedMutex<u32> }
            impl S {
                fn new() -> S {
                    S {
                        arr: std::array::from_fn(|_| OrderedRwLock::new(ARR, 0)),
                        high: OrderedMutex::new(HIGH, 0),
                    }
                }
                fn ok(&self) {
                    let guards: Vec<_> = self.arr.iter().map(|s| s.read()).collect();
                    *self.high.lock() += 1;
                }
                fn bad(&self) {
                    let h = self.high.lock();
                    let guards: Vec<_> = self.arr.iter().map(|s| s.read()).collect();
                }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("high lock"), "{}", f[0].message);
    }

    #[test]
    fn unresolved_receiver_is_its_own_finding() {
        let src = r#"
            struct S;
            impl S {
                fn mystery(&self, thing: &Foo) {
                    let g = thing.mystery_lock.lock();
                }
            }
        "#;
        let f = active(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("not in the lock map"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn test_regions_are_invisible() {
        let src = format!(
            "{STRUCT}
            #[cfg(test)]
            mod tests {{
                fn bad(s: &super::S) {{
                    let h = s.high.lock();
                    let l = s.low.lock();
                }}
            }}"
        );
        assert_eq!(active(&src), Vec::new());
    }
}
