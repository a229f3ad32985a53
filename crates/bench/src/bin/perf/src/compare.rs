//! `perf --compare A.json B.json`: the two-sets acceptance check.
//!
//! Each file holds the records `--out` appended, one JSON object per line;
//! a *set* is one or more runs of each workload. Per workload × metric the
//! tool prints both medians with their quartiles, the relative difference
//! with its base, the bound, and a verdict:
//!
//! * `ok` — B is not worse than A by more than the bound;
//! * `regressed` — it is; the process exits non-zero;
//! * `unresolved` — the run-to-run spread of either side is wider than
//!   the bound, so the difference cannot be judged (unless every run of B
//!   reads better than every run of A, which is `ok`);
//! * `changed` — an exact metric (a work counter of a single-job workload,
//!   `simulated_fraction`, `snapshot_bytes_per_entry`) differs at all;
//!   also exits non-zero.
//!
//! The bounds are the issue's, per workload ([`bound_for`]): this is where
//! its eleven end-to-end metrics are judged under their own names, the
//! exact ones and the correctness ones (`failed_ops_share`, `accuracy.*`)
//! at bound 0. The remaining metrics of `BENCHMARK.json`'s `end_to_end`
//! list are judged by the bound given there; everything else (the layer
//! probes) is printed without a verdict.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::stats::{summarize, Json, Summary};
use crate::{Better, END_TO_END, PER_LAYER};

/// One side's view of one workload × metric.
#[derive(Debug, Clone)]
struct Side {
    values: Vec<f64>,
    summary: Summary,
}

type Set = BTreeMap<(String, String), Side>;

/// Parse one set. With a single run of a workload the quartiles are that
/// run's own (over its repetitions); with several they are taken across
/// the runs' reported values.
fn read_set(text: &str) -> Result<Set, String> {
    let mut values: BTreeMap<(String, String), Vec<(f64, Summary)>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = record.get("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            let field = |key: &str| m.get(key).and_then(Json::as_f64);
            let Some(value) = field("value") else {
                continue;
            };
            let within = Summary {
                n: field("n").unwrap_or(1.0) as usize,
                median: field("median").unwrap_or(value),
                q1: field("q1").unwrap_or(value),
                q3: field("q3").unwrap_or(value),
            };
            values
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push((value, within));
        }
    }
    Ok(values
        .into_iter()
        .map(|(key, runs)| {
            let xs: Vec<f64> = runs.iter().map(|(v, _)| *v).collect();
            let summary = if runs.len() == 1 {
                Summary {
                    median: runs[0].0,
                    ..runs[0].1
                }
            } else {
                summarize(&xs)
            };
            (
                key,
                Side {
                    values: xs,
                    summary,
                },
            )
        })
        .collect())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Changed,
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::Unbounded => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }
}

/// How much worse B's median is than A's, as a share of A's (negative
/// when B is better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a != 0.0 {
        worse_by / a.abs()
    } else if worse_by == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(worse_by)
    }
}

/// Workloads that run one job at a time: everything they count, and every
/// sample they compute, is a function of the seed alone.
fn single_job(workload: &str) -> bool {
    workload != "interactive_under_sweep"
}

/// Metrics that must not move at all between two runs of one commit on
/// one seed.
fn is_exact(workload: &str, metric: &str) -> bool {
    single_job(workload)
        && (metric.starts_with("count.")
            || matches!(metric, "simulated_fraction" | "snapshot_bytes_per_entry"))
}

/// The share of A's median by which `metric` may worsen on `workload`.
///
/// The issue's end-to-end table, with two differences: `peak_rss_mb` has
/// no bound (it is bimodal at one commit, see `README.md`), and the
/// ground-truth shares the issue wanted as checks are held to bound 0
/// here — they may rise, not fall — wherever they are exact. Metrics the
/// table does not know fall back to `BENCHMARK.json`'s bound.
fn bound_for(workload: &str, metric: &str) -> Option<f64> {
    let contended = !single_job(workload);
    match metric {
        "failed_ops_share" => Some(0.0),
        "accuracy.bit_equal_share" | "accuracy.within_4se_share" if !contended => Some(0.0),
        "points_per_s" | "adjust_p50_ms" => Some(if contended { 0.15 } else { 0.10 }),
        "adjust_p99_ms" => Some(0.15),
        "first_render_ms" | "restore_ms" | "snapshot_save_ms" => Some(0.10),
        _ => END_TO_END.iter().find(|m| m.0 == metric).map(|m| m.3),
    }
}

fn direction(metric: &str) -> Better {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.2))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.2)))
        .find(|m| m.0 == metric)
        .map_or(Better::Lower, |m| m.1)
}

fn judge(workload: &str, metric: &str, a: &Side, b: &Side) -> (Verdict, Option<f64>, Better) {
    let better = direction(metric);
    if is_exact(workload, metric) {
        let same = a.summary.median.to_bits() == b.summary.median.to_bits();
        let verdict = if same { Verdict::Ok } else { Verdict::Changed };
        return (verdict, Some(0.0), better);
    }
    let Some(bound) = bound_for(workload, metric) else {
        return (Verdict::Unbounded, None, better);
    };
    let worse = worsening(a.summary.median, b.summary.median, better);
    let every_b_beats_every_a = a.values.iter().all(|x| {
        b.values.iter().all(|y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if a.summary.spread().max(b.summary.spread()) > bound {
        if every_b_beats_every_a {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, Some(bound), better)
}

fn compare_sets(a: &Set, b: &Set) -> (Vec<String>, usize, usize) {
    let mut lines = Vec::new();
    let (mut failures, mut unresolved) = (0, 0);
    for (key, side_a) in a {
        let Some(side_b) = b.get(key) else {
            continue;
        };
        let (workload, metric) = key;
        let (verdict, bound, better) = judge(workload, metric, side_a, side_b);
        failures += usize::from(verdict.fails());
        unresolved += usize::from(verdict == Verdict::Unresolved);
        let fmt = |s: &Summary| format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n);
        lines.push(format!(
            "{workload:<24} {metric:<44} A {:<48} B {:<48} worse by {:+.2}% of A {:<6} bound {:<6} {}",
            fmt(&side_a.summary),
            fmt(&side_b.summary),
            worsening(side_a.summary.median, side_b.summary.median, better) * 100.0,
            match better {
                Better::Lower => "(lower is better)",
                Better::Higher => "(higher is better)",
            },
            bound.map_or("-".to_owned(), |x| format!("{:.0}%", x * 100.0)),
            verdict.label(),
        ));
    }
    (lines, failures, unresolved)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let read = |path: &str| -> Set {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        read_set(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        })
    };
    let (a, b) = (read(path_a), read(path_b));
    let (lines, failures, unresolved) = compare_sets(&a, &b);
    for line in &lines {
        println!("{line}");
    }
    println!(
        "compared {} workload x metric pairs: {failures} regressed or changed, {unresolved} unresolved",
        lines.len()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, metric: &str, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"metrics\": {{\"{metric}\": \
             {{\"value\": {value}, \"unit\": \"x\", \"n\": 1, \"median\": {value}, \
             \"q1\": {value}, \"q3\": {value}}}}}}}"
        )
    }

    fn set_of(workload: &str, metric: &str, values: &[f64]) -> Set {
        let text: Vec<String> = values
            .iter()
            .map(|v| record(workload, metric, *v))
            .collect();
        read_set(&text.join("\n")).unwrap()
    }

    fn verdict(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        let (sa, sb) = (set_of("w", metric, a), set_of("w", metric, b));
        let key = ("w".to_owned(), metric.to_owned());
        judge("w", metric, &sa[&key], &sb[&key]).0
    }

    #[test]
    fn a_regression_beyond_the_bound_is_flagged_in_the_metrics_direction() {
        // points_per_s: higher is better, bound 10 %.
        assert_eq!(
            verdict("points_per_s", &[100.0, 101.0, 99.0], &[92.0, 93.0, 91.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict("points_per_s", &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(
                "points_per_s",
                &[100.0, 101.0, 99.0],
                &[120.0, 121.0, 119.0]
            ),
            Verdict::Ok
        );
        // reply_p50_ms: lower is better, BENCHMARK.json's 25 %.
        assert_eq!(
            verdict("reply_p50_ms", &[10.0, 10.1, 9.9], &[13.0, 13.1, 12.9]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict("reply_p50_ms", &[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]),
            Verdict::Ok
        );
    }

    #[test]
    fn bounds_are_the_issues_per_workload() {
        let contended = "interactive_under_sweep";
        assert_eq!(bound_for("sweep_figure2", "points_per_s"), Some(0.10));
        assert_eq!(bound_for(contended, "points_per_s"), Some(0.15));
        assert_eq!(bound_for("online_adjust", "adjust_p50_ms"), Some(0.10));
        assert_eq!(bound_for(contended, "adjust_p50_ms"), Some(0.15));
        assert_eq!(bound_for("online_adjust", "adjust_p99_ms"), Some(0.15));
        assert_eq!(bound_for("restored_serve", "restore_ms"), Some(0.10));
        assert_eq!(bound_for("restored_serve", "setup_s"), Some(0.25));
        assert_eq!(bound_for("restored_serve", "peak_rss_mb"), None);
        assert_eq!(bound_for(contended, "accuracy.bit_equal_share"), None);
    }

    #[test]
    fn failed_checks_and_lost_accuracy_regress_at_bound_zero() {
        assert_eq!(verdict("failed_ops_share", &[0.0], &[0.0]), Verdict::Ok);
        assert_eq!(
            verdict("failed_ops_share", &[0.0], &[0.01]),
            Verdict::Regressed
        );
        assert_eq!(verdict("failed_ops_share", &[0.01], &[0.0]), Verdict::Ok);
        for share in ["accuracy.bit_equal_share", "accuracy.within_4se_share"] {
            assert_eq!(verdict(share, &[0.92], &[0.92]), Verdict::Ok);
            assert_eq!(verdict(share, &[0.92], &[0.90]), Verdict::Regressed);
            assert_eq!(verdict(share, &[0.92], &[0.95]), Verdict::Ok);
            assert_eq!(verdict(share, &[0.0], &[0.5]), Verdict::Ok);
        }
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = [100.0, 130.0, 70.0, 115.0];
        assert_eq!(
            verdict("points_per_s", &noisy, &[90.0, 120.0, 60.0, 100.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict("points_per_s", &noisy, &[200.0, 260.0, 140.0, 230.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_must_not_move_and_layer_metrics_carry_no_verdict() {
        assert_eq!(
            verdict("count.points_simulated", &[150.0], &[150.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict("count.points_simulated", &[150.0], &[151.0]),
            Verdict::Changed
        );
        assert_eq!(
            verdict("simulated_fraction", &[0.5], &[0.25]),
            Verdict::Changed
        );
        assert_eq!(
            verdict("vg.draw_ns.DemandModel", &[10.0], &[20.0]),
            Verdict::Unbounded
        );
        assert!(!is_exact("interactive_under_sweep", "count.points_cached"));
        assert!(Verdict::Changed.fails() && Verdict::Regressed.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Unbounded.fails());
    }

    #[test]
    fn a_single_run_keeps_its_own_quartiles() {
        let line = "{\"workload\": \"w\", \"metrics\": {\"reply_p50_ms\": {\"value\": 10, \
                    \"unit\": \"ms\", \"n\": 40, \"median\": 10, \"q1\": 9, \"q3\": 12}}}";
        let set = read_set(line).unwrap();
        let side = &set[&("w".to_owned(), "reply_p50_ms".to_owned())];
        assert_eq!(
            (side.summary.n, side.summary.q1, side.summary.q3),
            (40, 9.0, 12.0)
        );
        assert!(read_set("{\"metrics\": {}}").is_err());
        assert!(read_set("not json").is_err());
    }

    #[test]
    fn compare_counts_failures_over_the_shared_pairs() {
        let a = set_of("w", "points_per_s", &[100.0, 101.0, 99.0]);
        let mut b = set_of("w", "points_per_s", &[70.0, 71.0, 69.0]);
        b.extend(set_of("other", "points_per_s", &[1.0]));
        let (lines, failures, unresolved) = compare_sets(&a, &b);
        assert_eq!((lines.len(), failures, unresolved), (1, 1, 0));
        assert!(lines[0].contains("regressed") && lines[0].contains("+30.00%"));
    }
}
