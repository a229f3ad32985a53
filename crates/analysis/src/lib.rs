//! Multi-pass static analyzer for the workspace: the conformance lint,
//! the rank-table extractor, and the determinism audit. See
//! `docs/ANALYSIS.md` for the architecture.
//!
//! `cargo run -p analysis --` walks every `.rs` file under `crates/*/src`
//! and `src/`, tokenizes it once through [`mod@lex`] (comments, strings —
//! cooked, raw, byte — char literals and lifetimes are all handled, so a
//! forbidden pattern inside a string never fires), strips
//! `#[cfg(test)]` / `#[test]` regions, and runs four passes:
//!
//! * **lint** (this module) — six token-level conformance rules:
//!
//!   | rule | forbids | except in |
//!   |------|---------|-----------|
//!   | `thread-spawn` | `thread::spawn` / `thread::scope` | `crates/core/src/{scheduler,executor}.rs` (the pool; the inline runner's fan-out) |
//!   | `raw-sync` | raw `Mutex`/`RwLock`/`Condvar` construction | `crates/{mc,core}/src/sync.rs` (the instrumented modules) |
//!   | `unwrap` | `.unwrap()` / `.expect("…")` in `crates/core`, `crates/fingerprint`, `crates/mc` | messages containing `invariant` |
//!   | `wall-clock` | `Instant::now()` / `SystemTime` | `metrics.rs`, `trace.rs`, `crates/bench` |
//!   | `typed-kernel` | `Value` inside the typed-kernel module (`crates/sql/src/column.rs`); `std::simd` / `unsafe` anywhere | — |
//!   | `dyn-rng` | `dyn Rng64` | `crates/sql/src/executor.rs` (the shared-stream `EvalContext`) |
//!
//! * **map-iter** ([`determinism`]) — flags hash-ordered iteration in
//!   result-affecting crates;
//! * **rank-table** ([`ranktable`]) — regenerates the lock-rank table in
//!   `docs/CONCURRENCY.md` from source and fails on drift;
//! * **unreached** ([`unreached`]) — flags `pub` items nothing but their
//!   own tests and `crates/bench` name (`tests/` and `examples/` are read
//!   as reach).
//!
//! Lock *order* is not a static pass: `raw-sync` keeps every lock an
//! `Ordered*` wrapper, and the rank checker in `prophet_mc::sync`
//! (`--features check`) proves the order on every executed acquisition.
//!
//! Escape hatches, all explicit and reviewable:
//!
//! * an inline `// lint:allow(rule): reason` comment suppresses a lint
//!   rule on its own line and on the next line that carries code (so a
//!   marker can sit at the end of a multi-line explanatory comment);
//! * the analyzer passes use the same grammar spelled
//!   `// analysis:allow(pass): reason`.
//!
//! There is no file-level grant: an exception is a marker at the site it
//! excuses, so it disappears with the code — and a marker that excuses
//! nothing is itself an active `stale-allow` finding
//! ([`stale_allow_findings`]), so it cannot outlive the code either.
//!
//! The `unwrap` rule only fires on `.expect(` when the first argument is
//! a string literal: `Result::expect` takes a message, whereas the
//! domain methods named `expect` (Monte Carlo expectation on `SampleSet`
//! and `Engine`) take a column expression — a token-level pass can tell
//! those apart by the argument's shape.

pub mod determinism;
pub mod findings;
pub mod lex;
pub mod ranktable;
pub mod unreached;

use std::fmt;

use findings::Finding;
use lex::{ident_at, lex, pathed_from, punct_at, strip_test_regions, Tok, TokKind};

// ---------------------------------------------------------------- rules

/// The six conformance rules. See the module docs for the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    ThreadSpawn,
    RawSync,
    Unwrap,
    WallClock,
    /// The typed-columnar boundary (`crates/sql`): the kernel module
    /// (`column.rs`) must never name `Value` — typed kernels see only
    /// primitive slices — and `std::simd` / `unsafe` may appear nowhere:
    /// the kernels are safe loops the stable compiler autovectorizes.
    TypedKernel,
    /// Every VG call samples the concrete stream its coordinates derive
    /// (`VgFunction::invoke` takes a `Xoshiro256StarStar`), so a model's
    /// sampling chain monomorphizes: `dyn Rng64` — a draw through a
    /// vtable — is left only to the shared-stream `EvalContext`.
    DynRng,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::ThreadSpawn => "thread-spawn",
            Rule::RawSync => "raw-sync",
            Rule::Unwrap => "unwrap",
            Rule::WallClock => "wall-clock",
            Rule::TypedKernel => "typed-kernel",
            Rule::DynRng => "dyn-rng",
        }
    }

    /// Whether `path` (workspace-relative, `/`-separated) is exempt from
    /// this rule wholesale. The spawn and raw-lock exemptions name whole
    /// paths: a file elsewhere that merely shares a sanctioned module's
    /// name (`crates/sql/src/executor.rs`) gets no pass.
    fn exempt_file(self, path: &str) -> bool {
        let base = path.rsplit('/').next().unwrap_or(path);
        match self {
            Rule::ThreadSpawn => {
                path == "crates/core/src/scheduler.rs" || path == "crates/core/src/executor.rs"
            }
            Rule::RawSync => path == "crates/mc/src/sync.rs" || path == "crates/core/src/sync.rs",
            // Scoped *in*: the burndown applies to the engine, the
            // fingerprint layer, and (since the PR 9 store growth) the
            // Monte Carlo crate; other crates are out of scope.
            Rule::Unwrap => {
                !(path.starts_with("crates/core/src")
                    || path.starts_with("crates/fingerprint/src")
                    || path.starts_with("crates/mc/src"))
            }
            // `trace.rs` is the flight recorder's clock shim (`TraceClock`):
            // the one additional sanctioned `Instant` reading, pinned so
            // trace timestamps cannot leak into deterministic code paths.
            Rule::WallClock => {
                base == "metrics.rs" || base == "trace.rs" || path.starts_with("crates/bench/")
            }
            // Scoping is pattern-specific (the `Value` check applies *only*
            // inside the kernel module, the `std::simd`/`unsafe` checks
            // everywhere), so `scan_rules` decides per violation and
            // nothing is exempt wholesale here.
            Rule::TypedKernel => false,
            Rule::DynRng => path == SHARED_STREAM_MODULE,
        }
    }
}

/// The typed-kernel module: straight-line kernels over primitive slices,
/// forbidden from naming `Value`.
const TYPED_KERNEL_MODULE: &str = "crates/sql/src/column.rs";

/// The one module that takes a `dyn Rng64`: the scalar executor, whose
/// `EvalContext::new` evaluates derived items on a stream that never
/// draws.
const SHARED_STREAM_MODULE: &str = "crates/sql/src/executor.rs";

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule.name(), self.message)
    }
}

// ----------------------------------------------------------- rule scan

fn scan_rules(path: &str, toks: &[Tok]) -> Vec<Violation> {
    let mut found = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        let line = toks[i].line;
        match name {
            "spawn" | "scope" if pathed_from(toks, i, "thread") => {
                found.push(Violation {
                    rule: Rule::ThreadSpawn,
                    line,
                    message: format!(
                        "`thread::{name}` outside scheduler.rs/executor.rs — route work \
                         through the scheduler's pool"
                    ),
                });
            }
            "Mutex" | "RwLock" | "Condvar"
                if (ident_at(toks, i + 3) == Some("new")
                    || ident_at(toks, i + 3) == Some("default"))
                    && punct_at(toks, i + 1, ':')
                    && punct_at(toks, i + 2, ':') =>
            {
                found.push(Violation {
                    rule: Rule::RawSync,
                    line,
                    message: format!(
                        "raw `{name}` construction outside the instrumented sync module — \
                         use the rank-ordered wrapper from `sync`"
                    ),
                });
            }
            "unwrap" if i >= 1 && punct_at(toks, i - 1, '.') && punct_at(toks, i + 1, '(') => {
                found.push(Violation {
                    rule: Rule::Unwrap,
                    line,
                    message: "`.unwrap()` in non-test engine code — return a typed \
                              ProphetError or `.expect(\"invariant: …\")`"
                        .into(),
                });
            }
            "expect" if i >= 1 && punct_at(toks, i - 1, '.') && punct_at(toks, i + 1, '(') => {
                // Only `Result::expect`-shaped calls: first argument is a
                // string literal. `SampleSet::expect(column)` is a domain
                // method and passes an expression.
                if let Some(TokKind::Str(msg)) = toks.get(i + 2).map(|t| &t.kind) {
                    if !msg.contains("invariant") {
                        found.push(Violation {
                            rule: Rule::Unwrap,
                            line,
                            message: format!(
                                "`.expect({msg:?})` in non-test engine code — either return \
                                 a typed ProphetError or state the invariant in the message"
                            ),
                        });
                    }
                }
            }
            "now" if pathed_from(toks, i, "Instant") => {
                found.push(Violation {
                    rule: Rule::WallClock,
                    line,
                    message: "`Instant::now()` outside metrics.rs/trace.rs/bench — time through \
                              `metrics::Stopwatch` or the trace clock"
                        .into(),
                });
            }
            "SystemTime" => {
                found.push(Violation {
                    rule: Rule::WallClock,
                    line,
                    message: "`SystemTime` outside metrics.rs/trace.rs/bench — wall-clock reads \
                              belong to the metrics or trace layer"
                        .into(),
                });
            }
            "Value" if path == TYPED_KERNEL_MODULE => {
                found.push(Violation {
                    rule: Rule::TypedKernel,
                    line,
                    message: "`Value` inside the typed-kernel module — kernels operate on \
                              primitive slices; boxing belongs to `columnar.rs`"
                        .into(),
                });
            }
            "simd" if pathed_from(toks, i, "std") => {
                found.push(Violation {
                    rule: Rule::TypedKernel,
                    line,
                    message: "`std::simd` — nightly-only; the typed kernels are plain loops \
                              the stable compiler autovectorizes (docs/VECTORIZATION.md)"
                        .into(),
                });
            }
            "dyn" if dyn_names(toks, i + 1, "Rng64") => {
                found.push(Violation {
                    rule: Rule::DynRng,
                    line,
                    message: "`dyn Rng64` outside the shared-stream `EvalContext` — sample the \
                              call's concrete `Xoshiro256StarStar` so the draws monomorphize"
                        .into(),
                });
            }
            "unsafe" => {
                found.push(Violation {
                    rule: Rule::TypedKernel,
                    line,
                    message: "`unsafe` — the workspace is safe Rust; justify any exception \
                              with an inline `lint:allow(typed-kernel)` marker"
                        .into(),
                });
            }
            _ => {}
        }
    }
    found.retain(|v| !v.rule.exempt_file(path));
    found
}

/// The type path starting at `toks[i]` (`Rng64`, `rng::Rng64`,
/// `prophet_vg::rng::Rng64`, …) ends in `name`.
fn dyn_names(toks: &[Tok], mut i: usize, name: &str) -> bool {
    while ident_at(toks, i).is_some() && punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') {
        i += 3;
    }
    ident_at(toks, i) == Some(name)
}

/// Every violation in one file's source, each paired with whether an
/// inline `lint:allow` marker covers it. `path` is workspace-relative
/// with `/` separators; it drives per-rule file scoping.
fn lint_sites(path: &str, src: &str) -> Vec<(Violation, bool)> {
    let lexed = lex(src);
    let toks = strip_test_regions(lexed.toks.clone());
    scan_rules(path, &toks)
        .into_iter()
        .map(|v| {
            let allowed = lexed.allows(v.rule.name(), v.line);
            (v, allowed)
        })
        .collect()
}

/// The `lint` pass's findings for one file, the rule named in each
/// message. Sites under a `lint:allow` marker are included as allowed,
/// so every exemption is on the record.
pub fn lint_findings(path: &str, src: &str) -> Vec<Finding> {
    lint_sites(path, src)
        .into_iter()
        .map(|(v, allowed)| Finding {
            allowed,
            ..Finding::new("lint", path, v.line, v.to_string())
        })
        .collect()
}

// ------------------------------------------------------- stale markers

/// The name a marker must carry to excuse `finding`: a lint finding's
/// rule (its message opens `[rule]`), any other finding's pass.
fn allow_name(finding: &Finding) -> &str {
    if finding.pass == "lint" {
        let rule = finding.message.strip_prefix('[');
        if let Some((rule, _)) = rule.and_then(|r| r.split_once(']')) {
            return rule;
        }
    }
    finding.pass
}

/// The `stale-allow` findings of one file: every allow marker in `src`
/// that excuses none of `findings` (every pass's findings, any file) on
/// its own line or its next code line. A stale marker is active, never
/// allowed: it is either dead weight or the trace of a pass that went
/// blind to the site it names.
pub fn stale_allow_findings(path: &str, src: &str, findings: &[Finding]) -> Vec<Finding> {
    let excused: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.allowed && f.file == path)
        .collect();
    lex(src)
        .markers
        .into_iter()
        .filter(|m| {
            !excused
                .iter()
                .any(|f| allow_name(f) == m.name && m.covers(f.line))
        })
        .map(|m| {
            Finding::new(
                "stale-allow",
                path,
                m.line,
                format!(
                    "`{}:allow({})` excuses no finding on this line or the next code line — \
                     delete it, or find why its pass no longer sees the site",
                    m.spelling, m.name
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lint one file's source: the violations no marker covers.
    fn lint_source(path: &str, src: &str) -> Vec<Violation> {
        lint_sites(path, src)
            .into_iter()
            .filter_map(|(v, allowed)| (!allowed).then_some(v))
            .collect()
    }

    fn rules_fired(path: &str, src: &str) -> Vec<Rule> {
        lint_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    // ---- each rule fires (the lint's own negative tests)

    #[test]
    fn thread_spawn_fires_outside_the_scheduler() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_fired("crates/core/src/service.rs", src),
            [Rule::ThreadSpawn]
        );
        let src = "fn f() { std::thread::scope(|s| {}); }";
        assert_eq!(
            rules_fired("crates/mc/src/store.rs", src),
            [Rule::ThreadSpawn]
        );
    }

    #[test]
    fn thread_spawn_is_allowed_in_scheduler_and_executor() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert!(rules_fired("crates/core/src/scheduler.rs", src).is_empty());
        assert!(rules_fired("crates/core/src/executor.rs", src).is_empty());
    }

    #[test]
    fn raw_sync_construction_fires_outside_sync_module() {
        let src = "fn f() { let m = std::sync::Mutex::new(0); }";
        assert_eq!(
            rules_fired("crates/core/src/engine.rs", src),
            [Rule::RawSync]
        );
        let src = "fn f() { let c = Condvar::new(); }";
        assert_eq!(rules_fired("crates/core/src/job.rs", src), [Rule::RawSync]);
        let src = "fn f() { let l: RwLock<u8> = RwLock::default(); }";
        assert_eq!(
            rules_fired("crates/fingerprint/src/index.rs", src),
            [Rule::RawSync]
        );
    }

    #[test]
    fn raw_sync_is_allowed_in_the_sync_module() {
        let src = "fn f() { let m = Mutex::new(0); }";
        assert!(rules_fired("crates/mc/src/sync.rs", src).is_empty());
        assert!(rules_fired("crates/core/src/sync.rs", src).is_empty());
    }

    /// The spawn and raw-lock exemptions are pinned to whole paths: a
    /// file that only shares a sanctioned module's *name* still fires.
    #[test]
    fn spawn_and_raw_sync_exemptions_do_not_match_by_basename() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        for path in [
            "crates/sql/src/executor.rs",
            "crates/mc/src/scheduler.rs",
            "src/executor.rs",
        ] {
            assert_eq!(rules_fired(path, src), [Rule::ThreadSpawn], "{path}");
        }
        let src = "fn f() { let m = Mutex::new(0); }";
        for path in ["crates/sql/src/sync.rs", "crates/bench/src/sync.rs"] {
            assert_eq!(rules_fired(path, src), [Rule::RawSync], "{path}");
        }
    }

    #[test]
    fn ordered_wrappers_do_not_fire_raw_sync() {
        let src = "fn f(r: LockRank) { let m = OrderedMutex::new(r, 0); }";
        assert!(rules_fired("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn unwrap_fires_in_core_fingerprint_and_mc_only() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(
            rules_fired("crates/core/src/session.rs", src),
            [Rule::Unwrap]
        );
        assert_eq!(
            rules_fired("crates/fingerprint/src/mapping.rs", src),
            [Rule::Unwrap]
        );
        // Since the PR 9 store growth, the Monte Carlo crate is in scope
        // of the burndown too.
        assert_eq!(rules_fired("crates/mc/src/store.rs", src), [Rule::Unwrap]);
        assert!(rules_fired("crates/sql/src/lexer.rs", src).is_empty());
    }

    #[test]
    fn expect_with_invariant_message_is_permitted() {
        let flagged = r#"fn f(x: Option<u8>) { x.expect("value present"); }"#;
        assert_eq!(
            rules_fired("crates/core/src/engine.rs", flagged),
            [Rule::Unwrap]
        );
        let ok = r#"fn f(x: Option<u8>) { x.expect("invariant: pre-inserted above"); }"#;
        assert!(rules_fired("crates/core/src/engine.rs", ok).is_empty());
    }

    #[test]
    fn domain_expect_methods_are_not_flagged() {
        // `SampleSet::expect(column)`: argument is an expression, not a
        // message literal.
        let src = "fn f(s: &SampleSet, col: &str) { s.expect(col); }";
        assert!(rules_fired("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_fires_outside_metrics_and_bench() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_fired("crates/core/src/engine.rs", src),
            [Rule::WallClock]
        );
        assert!(rules_fired("crates/core/src/metrics.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/bin/perf/src/main.rs", src).is_empty());
        let src = "fn f() { let t = SystemTime::now(); }";
        assert_eq!(
            rules_fired("crates/core/src/session.rs", src),
            [Rule::WallClock]
        );
    }

    /// The flight recorder's clock shim is the one extra sanctioned
    /// `Instant` site — and *only* it: the rule must keep firing in every
    /// other scheduler/store/engine file, or trace timestamps could start
    /// leaking into deterministic code paths unnoticed.
    #[test]
    fn wall_clock_exempts_the_trace_clock_shim_only() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(rules_fired("crates/mc/src/trace.rs", src).is_empty());
        // Negative: the exemption is by basename, not by crate — the rest
        // of `prophet-mc` (and the scheduler next door) still trip it.
        assert_eq!(
            rules_fired("crates/mc/src/store.rs", src),
            [Rule::WallClock]
        );
        assert_eq!(
            rules_fired("crates/core/src/scheduler.rs", src),
            [Rule::WallClock]
        );
        assert_eq!(rules_fired("crates/mc/src/sync.rs", src), [Rule::WallClock]);
    }

    #[test]
    fn typed_kernel_forbids_value_in_the_kernel_module_only() {
        let src = "pub fn from(values: &[Value]) -> Vec<f64> { Vec::new() }";
        assert_eq!(
            rules_fired("crates/sql/src/column.rs", src),
            [Rule::TypedKernel]
        );
        let src = "pub fn build() -> Vec<Value> { Vec::new() }";
        assert_eq!(
            rules_fired("crates/sql/src/column.rs", src),
            [Rule::TypedKernel]
        );
        // Boxing is columnar.rs's job — `Value` is fine there (and anywhere
        // else outside the kernel module).
        assert!(rules_fired("crates/sql/src/columnar.rs", src).is_empty());
        assert!(rules_fired("crates/sql/src/executor.rs", src).is_empty());
    }

    #[test]
    fn typed_kernel_flags_std_simd_and_unsafe_in_every_file() {
        // No file is exempt — not even one named like the kernel file the
        // rule used to spare.
        let files = [
            "crates/sql/src/column.rs",
            "crates/sql/src/columnar.rs",
            "crates/core/src/engine.rs",
            "crates/sql/src/simd.rs",
        ];
        for src in [
            "use std::simd::f64x8;",
            "fn f(p: *const f64) -> f64 { unsafe { *p } }",
        ] {
            for path in files {
                assert_eq!(rules_fired(path, src), [Rule::TypedKernel], "{path}: {src}");
            }
        }
        // `crate::simd` re-exports and the word in strings stay invisible.
        let src = "pub use crate::simd::add_f64; fn f() { let s = \"std::simd\"; }";
        assert!(rules_fired("crates/sql/src/column.rs", src).is_empty());
    }

    #[test]
    fn dyn_rng_fires_outside_the_shared_stream_executor() {
        let src = "fn draw(rng: &mut dyn Rng64) -> f64 { rng.next_f64() }";
        for path in [
            "crates/models/src/demand.rs",
            "crates/vg/src/function.rs",
            "crates/sql/src/columnar.rs",
            "crates/sql/src/sync/executor.rs",
        ] {
            assert_eq!(rules_fired(path, src), [Rule::DynRng], "{path}");
        }
        // A pathed trait is the same trait.
        let src = "fn draw(rng: &mut dyn prophet_vg::rng::Rng64) {}";
        assert_eq!(
            rules_fired("crates/models/src/queueing.rs", src),
            [Rule::DynRng]
        );
        assert!(rules_fired("crates/sql/src/executor.rs", src).is_empty());
        // Generic and concrete streams, and other trait objects, are fine.
        let src = "fn draw<R: Rng64 + ?Sized>(rng: &mut R, s: &dyn LedgerStore, \
                   f: &dyn VgFunction, x: &mut Xoshiro256StarStar) {}";
        assert!(rules_fired("crates/models/src/capacity.rs", src).is_empty());
    }

    // ---- escape hatches

    #[test]
    fn inline_allow_covers_its_line_and_the_next_code_line() {
        let src = "fn f() { std::thread::spawn(|| {}); } // lint:allow(thread-spawn)";
        assert!(rules_fired("crates/core/src/service.rs", src).is_empty());
        let src = "// lint:allow(thread-spawn): pool-free by design\n\
                   fn f() { std::thread::spawn(|| {}); }";
        assert!(rules_fired("crates/core/src/service.rs", src).is_empty());
        // The marker may close a multi-line comment block.
        let src = "// A longer explanation of why this is fine,\n\
                   // spanning lines.\n\
                   // lint:allow(thread-spawn): reasoned above\n\
                   fn f() { std::thread::spawn(|| {}); }";
        assert!(rules_fired("crates/core/src/service.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_is_rule_specific_and_line_bounded() {
        // Wrong rule: no grant.
        let src = "// lint:allow(unwrap)\nfn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_fired("crates/core/src/service.rs", src),
            [Rule::ThreadSpawn]
        );
        // Two code lines below the marker: the second is not covered.
        let src = "// lint:allow(thread-spawn)\n\
                   fn f() { std::thread::spawn(|| {}); }\n\
                   fn g() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_fired("crates/core/src/service.rs", src),
            [Rule::ThreadSpawn]
        );
    }

    #[test]
    fn lint_allow_sites_travel_as_allowed_findings() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n\
                   // lint:allow(thread-spawn): reasoned here\n\
                   fn g() { std::thread::scope(|s| {}); }";
        let found = lint_findings("crates/mc/src/store.rs", src);
        let shape: Vec<_> = found.iter().map(|f| (f.pass, f.line, f.allowed)).collect();
        assert_eq!(shape, [("lint", 1, false), ("lint", 3, true)]);
        assert!(found[1]
            .message
            .starts_with("[thread-spawn] `thread::scope`"));
        assert_eq!(found[1].file, "crates/mc/src/store.rs");
        // A file-level exemption is not a site: nothing to report.
        assert!(lint_findings("crates/core/src/scheduler.rs", src).is_empty());
    }

    // ---- stale-allow

    /// `stale-allow` findings of one file, fed that file's lint and
    /// `map-iter` findings.
    fn stale(path: &str, src: &str) -> Vec<(usize, String)> {
        let mut findings = lint_findings(path, src);
        determinism::audit(path, src, &mut findings);
        stale_allow_findings(path, src, &findings)
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect()
    }

    #[test]
    fn a_marker_that_excuses_a_finding_is_not_stale() {
        let src = "// lint:allow(thread-spawn): reasoned here\n\
                   fn g() { std::thread::scope(|s| {}); }\n\
                   fn h(m: &HashMap<u64, u32>) -> Vec<u64> {\n\
                       m.keys().copied().collect() // analysis:allow(map-iter): test\n\
                   }";
        assert!(stale("crates/mc/src/store.rs", src).is_empty());
    }

    #[test]
    fn a_marker_that_excuses_nothing_is_stale() {
        // Nothing to excuse, the wrong rule, the wrong pass, a line too
        // far: each marker is stale.
        let src = "// lint:allow(thread-spawn): nothing here\n\
                   fn f() {}\n\
                   // lint:allow(unwrap): not the rule that fires\n\
                   fn g() { std::thread::scope(|s| {}); }\n\
                   fn h(b: &BTreeMap<u64, u32>) -> Vec<u64> {\n\
                       // analysis:allow(map-iter): a BTreeMap needs none\n\
                       b.keys().copied().collect()\n\
                   }\n\
                   // analysis:allow(map-iter): two code lines above the walk\n\
                   fn k(m: &HashMap<u64, u32>) -> Vec<u64> {\n\
                       m.keys().copied().collect()\n\
                   }";
        let found = stale("crates/mc/src/store.rs", src);
        let lines: Vec<usize> = found.iter().map(|(line, _)| *line).collect();
        assert_eq!(lines, [1, 3, 6, 9], "{found:?}");
        assert!(found[1]
            .1
            .starts_with("`lint:allow(unwrap)` excuses no finding"));
        assert!(found[2].1.starts_with("`analysis:allow(map-iter)`"));
    }

    #[test]
    fn doc_comments_carry_no_markers() {
        // Prose about the grammar is not a marker: neither stale nor an
        // excuse for the spawn below it.
        let src = "//! Spell it `// lint:allow(rule): reason`.\n\
                   /// `// lint:allow(thread-spawn): reason` would excuse this.\n\
                   fn g() { std::thread::scope(|s| {}); }";
        assert!(stale("crates/mc/src/store.rs", src).is_empty());
        assert_eq!(
            rules_fired("crates/mc/src/store.rs", src),
            [Rule::ThreadSpawn]
        );
    }

    // ---- the lexer does not fire inside non-code regions

    #[test]
    fn strings_comments_and_test_code_are_invisible() {
        let src = r##"
            fn f() {
                let s = "thread::spawn(Instant::now())";
                let r = r#"Mutex::new(".unwrap()")"#;
                // thread::spawn in a comment
                /* SystemTime in a block /* nested */ comment */
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { std::thread::spawn(|| {}).join().unwrap(); }
            }
        "##;
        assert!(rules_fired("crates/core/src/service.rs", src).is_empty());
    }

    #[test]
    fn test_attribute_skips_only_that_item() {
        let src = "#[test]\n\
                   fn t() { x.unwrap(); }\n\
                   fn live() { y.unwrap(); }";
        let v = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn lifetimes_and_char_literals_do_not_derail_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\\''; let d = '('; 'label: loop { break 'label; } }\n\
                   fn g(o: Option<u8>) { o.unwrap(); }";
        let v = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn cfg_test_inner_attribute_skips_the_whole_file() {
        let src = "#![cfg(test)]\nfn helper(o: Option<u8>) { o.unwrap(); }";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }
}
