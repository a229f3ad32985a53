//! # prophet-bench
//!
//! Experiment harness regenerating every figure and quantitative claim of
//! the paper's evaluation (§3, Figures 2–4), plus two ablations. Each
//! experiment is a library function returning a printable report, and
//! `cargo run --release -p prophet-bench --bin experiments [-- eN]`
//! regenerates any or all of the tables. Timing claims are not made here:
//! the repository's one benchmark is the `perf` package under
//! `src/bin/perf/` (`BENCHMARK.json`), which this crate does not compile.
//!
//! Experiment index:
//!
//! | id  | paper artifact |
//! |-----|----------------|
//! | E1  | Figure 2 scenario parses & runs end-to-end |
//! | E2  | Figure 3 online graph series |
//! | E3  | §3.2 second adjustment re-renders only changed portions |
//! | E4  | §3.2 feature-date change still re-maps |
//! | E5  | Figure 4 fingerprint-mapping map over (purchase1, purchase2) |
//! | E6  | §3.3 offline optimization (1% and 5% thresholds) |
//! | E7  | §1/§2 fingerprints expedite offline exploration |
//! | E8  | §1 basis reuse lowers time-to-first-accurate-guess |
//! | E9  | §2 Markovian-region estimators skip chain segments |
//! | E10 | ablation: fingerprint length vs detection quality |

pub mod experiments;
pub mod workloads;
