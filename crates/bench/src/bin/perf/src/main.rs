//! `perf` — the five-workload, layer-attributed benchmark (see `README.md`
//! in this directory and `BENCHMARK.json` at the repository root).
//!
//! ```sh
//! alias perf='cargo run --release --manifest-path crates/bench/src/bin/perf/Cargo.toml --'
//! perf --workload sweep_figure2 --seed 1
//! perf --workload online_adjust --traced --out A.jsonl
//! perf --compare A.jsonl B.jsonl
//! perf --selftest
//! ```
//!
//! One invocation runs one workload in one process, prints every metric it
//! measured by name (unit, n, median, quartiles), checks that the outputs
//! are correct, and ends with one JSON result line. It exits non-zero when
//! any check failed.

mod compare;
mod inputs;
mod layers;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use inputs::Plan;
use stats::{fmt_f64, json_escape, Report};

/// Direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The end-to-end metrics every workload reports with `--trace 0`:
/// `(name, unit, direction, bound)`. `BENCHMARK.json` repeats this table;
/// a unit test holds the two together.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("points_per_s", "1/s", Better::Higher, 0.25),
    ("reply_p50_ms", "ms", Better::Lower, 0.25),
    ("reply_tail_ms", "ms", Better::Lower, 0.25),
];

/// The per-layer metrics every workload reports with `--trace 1`:
/// `(name, unit, direction)`. A metric a workload does not exercise reads 0
/// there (e.g. `restore_ms` outside `restored_serve`).
pub const PER_LAYER: [(&str, &str, Better); 84] = [
    // The issue's end-to-end metrics that cannot be gated under the
    // contract: operation timings of single workloads, exact values
    // (bound 0, sometimes 0), and the allocator-dependent peak RSS.
    ("peak_rss_mb", "MB", Better::Lower),
    ("adjust_p50_ms", "ms", Better::Lower),
    ("adjust_p99_ms", "ms", Better::Lower),
    ("first_render_ms", "ms", Better::Lower),
    ("restore_ms", "ms", Better::Lower),
    ("snapshot_save_ms", "ms", Better::Lower),
    ("snapshot_bytes_per_entry", "B", Better::Lower),
    ("simulated_fraction", "ratio", Better::Lower),
    ("failed_ops_share", "ratio", Better::Lower),
    (
        "core.session.adjust_p99_ms_under_sweep",
        "ms",
        Better::Lower,
    ),
    ("core.session.adjusts_completed", "count", Better::Higher),
    // Agreement with ground truth (direct simulation), measured.
    ("accuracy.points_compared", "count", Better::Higher),
    ("accuracy.bit_equal_share", "ratio", Better::Higher),
    ("accuracy.within_4se_share", "ratio", Better::Higher),
    // prophet-sql
    ("sql.parse_ns_per_script", "ns", Better::Lower),
    ("sql.select_columnar_ns_per_world.b32", "ns", Better::Lower),
    ("sql.select_columnar_ns_per_world.b400", "ns", Better::Lower),
    ("sql.select_scalar_ns_per_world", "ns", Better::Lower),
    ("sql.derived_eval_ns_per_world", "ns", Better::Lower),
    // prophet-vg / prophet-models
    ("vg.draw_ns.DemandModel", "ns", Better::Lower),
    ("vg.draw_ns.CapacityModel", "ns", Better::Lower),
    ("vg.draw_ns.InventoryModel", "ns", Better::Lower),
    ("vg.draw_ns.QueueModel", "ns", Better::Lower),
    ("vg.draw_ns.RevenueModel", "ns", Better::Lower),
    // prophet-fingerprint
    ("fingerprint.build_ns_per_probe", "ns", Better::Lower),
    ("fingerprint.detect_ns_per_pair", "ns", Better::Lower),
    ("fingerprint.bound_ns_per_candidate", "ns", Better::Lower),
    (
        "fingerprint.apply_mapping_ns_per_sample",
        "ns",
        Better::Lower,
    ),
    // prophet-mc
    ("mc.simulate_ns_per_world.figure2", "ns", Better::Lower),
    ("mc.simulate_ns_per_world.inventory", "ns", Better::Lower),
    ("mc.simulate_ns_per_world.staffing", "ns", Better::Lower),
    ("mc.simulate_ns_per_world.pricing", "ns", Better::Lower),
    ("mc.store.claim_ns.t1", "ns", Better::Lower),
    ("mc.store.claim_ns.tN", "ns", Better::Lower),
    ("mc.store.lookup_ns.t1", "ns", Better::Lower),
    ("mc.store.lookup_ns.tN", "ns", Better::Lower),
    ("mc.store.publish_ns.t1", "ns", Better::Lower),
    ("mc.store.publish_ns.tN", "ns", Better::Lower),
    ("mc.store.publish_evicting_ns.t1", "ns", Better::Lower),
    ("mc.store.publish_evicting_ns.tN", "ns", Better::Lower),
    ("mc.store.scan_ns_per_candidate", "ns", Better::Lower),
    ("mc.store.scan_prune_rate", "ratio", Better::Higher),
    ("mc.store.snapshot_encode_mb_per_s", "MB/s", Better::Higher),
    ("mc.store.snapshot_decode_mb_per_s", "MB/s", Better::Higher),
    ("mc.trace.record_ns_per_event", "ns", Better::Lower),
    // fuzzy-prophet (core)
    ("core.engine.cached_ns_per_point", "ns", Better::Lower),
    ("core.engine.mapped_ns_per_point", "ns", Better::Lower),
    ("core.engine.simulated_ns_per_point", "ns", Better::Lower),
    (
        "core.engine.remap_publish_ns_per_point",
        "ns",
        Better::Lower,
    ),
    ("core.engine.unattributed_share", "ratio", Better::Lower),
    ("core.scheduler.dispatch_ns_per_job", "ns", Better::Lower),
    ("core.job.submit_to_first_event_us", "us", Better::Lower),
    ("core.session.cached_refresh_us", "us", Better::Lower),
    ("core.scheduler.queue_wait_p50_ns.high", "ns", Better::Lower),
    ("core.scheduler.chunk_service_p50_ns", "ns", Better::Lower),
    // The workload's own run, read from the outside.
    ("phase.probe_eval_cpu_s", "s", Better::Lower),
    ("phase.match_scan_s", "s", Better::Lower),
    ("phase.probe_wall_s", "s", Better::Lower),
    ("phase.sim_wall_s", "s", Better::Lower),
    ("phase.unattributed_s", "s", Better::Lower),
    ("count.points_total", "count", Better::Lower),
    ("count.points_simulated", "count", Better::Lower),
    ("count.points_mapped", "count", Better::Lower),
    ("count.points_cached", "count", Better::Lower),
    ("count.worlds_simulated", "count", Better::Lower),
    ("count.vector_walks", "count", Better::Lower),
    ("count.column_fallbacks", "count", Better::Lower),
    ("count.candidates_scanned", "count", Better::Lower),
    ("count.candidates_pruned", "count", Better::Higher),
    ("count.evictions", "count", Better::Lower),
    ("count.store_hits", "count", Better::Higher),
    ("count.store_misses", "count", Better::Lower),
    ("count.inflight_waits", "count", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
    ("trace.events_dropped", "count", Better::Lower),
    // The pipeline replay: how the replayed sample's layer time splits.
    ("replay.points_checked", "count", Better::Higher),
    ("replay.cpu_share.claim", "ratio", Better::Lower),
    ("replay.cpu_share.select", "ratio", Better::Lower),
    ("replay.cpu_share.fingerprint", "ratio", Better::Lower),
    ("replay.cpu_share.scan", "ratio", Better::Lower),
    ("replay.cpu_share.apply_mapping", "ratio", Better::Lower),
    ("replay.cpu_share.derived_eval", "ratio", Better::Lower),
    ("replay.cpu_share.simulate", "ratio", Better::Lower),
    ("replay.cpu_share.publish", "ratio", Better::Lower),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    trace_out: Option<String>,
    selftest: bool,
    compare: Option<(String, String)>,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: perf --workload <{}> [--seed N] [--seconds N] [--trace 0|1 | --traced]\n\
         \x20           [--out PATH] [--trace-out PATH]\n\
         \x20      perf --compare A.json B.json\n\
         \x20      perf --selftest",
        workloads::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        out: None,
        trace_out: None,
        selftest: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| -> String {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload", &mut it)),
            "--seed" => {
                args.seed = value("--seed", &mut it)
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a non-negative integer"));
            }
            "--seconds" => {
                args.seconds = value("--seconds", &mut it)
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
            }
            "--trace" => {
                args.traced = match value("--trace", &mut it).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--traced" => args.traced = true,
            "--out" => args.out = Some(value("--out", &mut it)),
            "--trace-out" => args.trace_out = Some(value("--trace-out", &mut it)),
            "--selftest" => args.selftest = true,
            "--compare" => {
                let a = value("--compare", &mut it);
                let b = value("--compare", &mut it);
                args.compare = Some((a, b));
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    args
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `VmHWM` of this process in megabytes (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload and fill `report` with everything it measured.
fn measure(
    workload: &str,
    plan: &Plan,
    traced: bool,
    trace_out: Option<&str>,
    report: &mut Report,
) {
    workloads::run(workload, plan, traced, report);
    if traced {
        let mut recorder = spans::Recorder::new();
        layers::run(plan, &mut recorder, report);
        replay::run(workload, plan, &mut recorder, report);
        if let Some(path) = trace_out {
            std::fs::write(path, recorder.chrome_trace_json())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("spans: {} written to {path}", recorder.len());
        }
    }
    report.scalar("peak_rss_mb", "MB", peak_rss_mb());
    report.scalar(
        "failed_ops_share",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with the end-to-end metrics in a plain run and the per-layer ones in a
/// traced run.
fn result_line(report: &Report, traced: bool) -> String {
    let wanted: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
    };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = report.get(name).map_or(0.0, |m| m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(name),
                fmt_f64(value),
                json_escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// The full record `--out` appends: the stamp plus every measured metric
/// with its sample statistics — what `--compare` reads.
fn record_line(workload: &str, plan: &Plan, traced: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}}}",
                json_escape(&m.name),
                fmt_f64(m.value),
                json_escape(&m.unit),
                m.summary.n,
                fmt_f64(m.summary.median),
                fmt_f64(m.summary.q1),
                fmt_f64(m.summary.q3),
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"nproc\": {}, \
         \"pool\": {}, \"rustc\": \"{}\", \"git\": \"{}\", \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {{{}}}}}",
        json_escape(workload),
        plan.seed,
        fmt_f64(plan.seconds),
        traced,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        inputs::pool_threads(),
        json_escape(&first_line_of("rustc", &["-V"])),
        json_escape(&first_line_of("git", &["rev-parse", "HEAD"])),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// `--selftest`: every workload in miniature (coarse grid, 16 worlds, one
/// repetition), traced, all checks on.
fn selftest() -> ExitCode {
    let plan = Plan {
        seed: 1,
        seconds: 1.0,
        selftest: true,
    };
    let mut failed = 0;
    for workload in workloads::WORKLOADS {
        let mut report = Report::default();
        measure(workload, &plan, true, None, &mut report);
        for (name, _, _, _) in END_TO_END {
            report.check(report.get(name).is_some(), || {
                format!("{workload} did not report `{name}`")
            });
        }
        println!(
            "selftest {workload}: {} metrics, {} checks, {} failed",
            report.metrics.len(),
            report.attempted,
            report.failed
        );
        failed += report.failed;
    }
    if failed == 0 {
        println!("selftest ok");
        ExitCode::SUCCESS
    } else {
        println!("selftest FAILED ({failed} checks)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.selftest {
        return selftest();
    }
    let Some(workload) = args.workload.as_deref() else {
        usage("one of --workload, --compare or --selftest is required");
    };
    if !workloads::WORKLOADS.contains(&workload) {
        usage(&format!("unknown workload `{workload}`"));
    }
    if cfg!(debug_assertions) {
        eprintln!("error: perf measures optimized builds only; rebuild with --release");
        return ExitCode::from(2);
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        selftest: false,
    };
    println!(
        "perf workload={workload} seed={} seconds={} traced={} nproc={} pool={}",
        plan.seed,
        plan.seconds,
        args.traced,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        inputs::pool_threads(),
    );
    let mut report = Report::default();
    measure(
        workload,
        &plan,
        args.traced,
        args.trace_out.as_deref(),
        &mut report,
    );
    report.print_table();
    if let Some(path) = &args.out {
        use std::io::Write as _;
        let line = record_line(workload, &plan, args.traced, &report);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .unwrap_or_else(|e| panic!("cannot append to {path}: {e}"));
    }
    println!("{}", result_line(&report, args.traced));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::{valid_name, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn better_str(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn benchmark_json_repeats_the_metric_tables() {
        let doc = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), workloads::WORKLOADS);
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better_str(better))
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better_str(better))
            );
        }
    }

    #[test]
    fn metric_tables_hold_valid_unique_names() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(workloads::WORKLOADS)
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s"));
    }

    /// The whole traced path — workload, layer probes, replay — in
    /// miniature, so `cargo test` exercises the harness end to end.
    #[test]
    fn miniature_traced_run_reports_every_metric_and_passes_its_checks() {
        let plan = Plan {
            seed: 7,
            seconds: 1.0,
            selftest: true,
        };
        let mut report = Report::default();
        measure("sweep_lowreuse", &plan, true, None, &mut report);
        assert_eq!(report.failed, 0);
        for (name, _, _, _) in END_TO_END {
            assert!(report.get(name).is_some(), "{name} missing");
        }
        // Everything else a sweep workload can measure is there; the rest
        // of the table belongs to the session and snapshot workloads.
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.0)
            .filter(|name| report.get(name).is_none())
            .collect();
        assert_eq!(
            missing,
            [
                "adjust_p50_ms",
                "adjust_p99_ms",
                "first_render_ms",
                "restore_ms",
                "snapshot_save_ms",
                "snapshot_bytes_per_entry",
                "core.session.adjust_p99_ms_under_sweep",
                "core.session.adjusts_completed",
            ]
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.scalar("setup_s", "s", 0.5);
        report.check(true, String::new);
        for traced in [false, true] {
            let doc = Json::parse(&result_line(&report, traced)).unwrap();
            let Json::Obj(map) = &doc else { panic!() };
            let keys: Vec<&str> = map.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!()
            };
            let expected = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), expected);
        }
    }
}
