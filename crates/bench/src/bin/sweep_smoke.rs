//! Bench smoke: run the experiment harness's offline sweep on a small
//! workload and emit `BENCH_sweep.json` so the perf trajectory of the
//! batched evaluation executor is recorded per commit.
//!
//! ```sh
//! cargo run --release -p prophet-bench --bin sweep_smoke
//! cargo run --release -p prophet-bench --bin sweep_smoke -- --worlds 64 --threads 4 --out BENCH_sweep.json
//! cargo run --release -p prophet-bench --bin sweep_smoke -- --trace-out trace.json  # chrome://tracing
//! ```
//!
//! The top level of the JSON is the **default `EngineConfig`** (typed
//! columnar tier, match index on) on a blocking sweep: throughput
//! (points/sec), the pinned work counters, the executor's
//! probe-vs-simulation wall-clock split (`probe_nanos` / `sim_nanos`), the
//! rest of the probe phase's split (`probe_eval_nanos` /
//! `match_scan_nanos` / `remap_nanos` / `publish_nanos`), the match
//! index's `candidates_scanned` / `candidates_pruned` / `prune_rate`, and
//! `columnar_kernels` / `column_fallbacks` — how much of the walk stayed
//! on typed kernels (the bundled workloads must report zero fallbacks).
//! `worlds_per_walk` is the observed walk amortization: logical probe
//! evaluations per block walk, i.e. the fingerprint length (the scalar
//! tier walks once *per seed* instead).
//!
//! Two comparison sweeps of the same workload each flip one knob of that
//! configuration: `unindexed{…}` turns the fingerprint summary index off
//! (the exhaustive reference scan — its `candidates_scanned` and
//! `match_scan_nanos` against the top level's are the index's row), and
//! `scalar{…}` runs the scalar reference tier (its `probe_eval_nanos`
//! against the top level's is the columnar tier's row). Every sweep
//! configuration runs three times, repeats interleaved across
//! configurations, and the median run (by wall clock) is reported, so
//! single-shot scheduler noise does not land in the recorded trajectory.
//! All sweeps must agree on the sweep answer, which this binary asserts
//! (and CI therefore asserts per push).
//!
//! `concurrent{…}` runs the same sweep twice as concurrent Low/High-priority
//! jobs on one shared scheduler pool (two scenario slots, two stores), also
//! on the default configuration, and records the combined throughput plus
//! each job's wall clock — the interleaving cost of the asynchronous job
//! API. `scaling` is that combined throughput over the top-level blocking
//! sweep's — like for like, the same tier on both sides — and this binary
//! asserts it is at least 1.0 (the sharded store's contention headroom).
//! The run keeps its flight recorder armed: `telemetry{…}` reports its
//! chunk-service and per-priority queue-wait percentiles, the queue-depth
//! watermark (`docs/OBSERVABILITY.md`), and a `store{…}` block with the
//! coherent hit/miss/eviction/entry counters summed over both slots'
//! sharded stores; `--trace-out PATH` additionally dumps that run's event
//! ring as a `chrome://tracing` / Perfetto-loadable JSON file. The
//! single-job sweeps run blocking (`OfflineOptimizer::run`, no tracer), so
//! their recorded throughput is untouched by tracing.
//!
//! `cold_start{…}` warms a service, persists its basis with `save_basis`,
//! and times the same sweep on a fresh service restored via `load_basis` —
//! `points_simulated` must be zero, so the row is the pure
//! serve-from-snapshot trajectory.

use std::time::Instant;

use fuzzy_prophet::prelude::*;
use prophet_bench::workloads::{demo_optimizer, figure2_coarse};

struct SweepRun {
    metrics: EngineMetrics,
    wall_nanos: u128,
    points_per_sec: f64,
    groups: usize,
    best: String,
}

/// How many times each sweep configuration runs; the median run (by wall
/// clock) is the one reported, so one noisy scheduler quantum cannot
/// distort the recorded perf trajectory.
const REPEATS: usize = 3;

fn run_sweep_once(worlds: usize, threads: usize, tier: ExecTier, match_index: bool) -> SweepRun {
    let config = EngineConfig {
        worlds_per_point: worlds,
        threads,
        tier,
        match_index,
        ..EngineConfig::default()
    };
    let optimizer = demo_optimizer(figure2_coarse(0.05), config);
    let groups = optimizer.groups_total();
    let t0 = Instant::now();
    let report = optimizer.run().expect("sweep must complete");
    let wall = t0.elapsed();
    let points = report.metrics.points_total();
    SweepRun {
        metrics: report.metrics,
        wall_nanos: wall.as_nanos(),
        points_per_sec: points as f64 / wall.as_secs_f64().max(1e-9),
        groups,
        best: best_str(&report),
    }
}

/// Run every sweep configuration [`REPEATS`] times — repeats *interleaved*
/// across configurations (config₀, config₁, …, config₀, config₁, …) so a
/// slow host phase lands on all of them alike instead of skewing whichever
/// configuration happened to run during it — and return each
/// configuration's median run by wall clock. The work counters are
/// deterministic across repeats (asserted via the sweep answer below);
/// only the timings vary.
fn run_sweeps(worlds: usize, threads: usize, configs: &[(ExecTier, bool)]) -> Vec<SweepRun> {
    let mut rounds: Vec<Vec<SweepRun>> = configs.iter().map(|_| Vec::new()).collect();
    for _ in 0..REPEATS {
        for (i, &(tier, match_index)) in configs.iter().enumerate() {
            rounds[i].push(run_sweep_once(worlds, threads, tier, match_index));
        }
    }
    rounds
        .into_iter()
        .map(|mut runs| {
            runs.sort_by_key(|r| r.wall_nanos);
            runs.swap_remove(REPEATS / 2)
        })
        .collect()
}

struct ConcurrentRun {
    /// Total wall clock until both jobs completed.
    wall_nanos: u128,
    points_per_sec: f64,
    /// Wall clock until the high-priority job's answer returned — the
    /// interactivity number (how long a watcher of the High job waited
    /// while the Low sweep ran alongside).
    hi_wall_nanos: u128,
    points_total: u64,
    hi_best: String,
    lo_best: String,
    /// Quiesced post-run snapshot of the pool's flight recorder.
    telemetry: TelemetrySnapshot,
    /// Store counters summed across the run's two scenario slots, read
    /// through the coherent one-lock snapshot (`basis_stats_all`).
    store: StoreStatsSnapshot,
    /// The run's full event ring, for `--trace-out`.
    trace_events: Vec<TraceEvent>,
}

/// The concurrent-jobs split: the same coarse sweep submitted twice — two
/// scenario slots, two stores — as Low- and High-priority jobs on one
/// shared scheduler pool, so the jobs' chunks interleave by priority
/// instead of queueing whole-sweep-at-a-time. Median of [`REPEATS`] runs,
/// like the single-job sweeps.
fn run_concurrent(worlds: usize, threads: usize) -> ConcurrentRun {
    let mut runs: Vec<ConcurrentRun> = (0..REPEATS)
        .map(|_| run_concurrent_once(worlds, threads))
        .collect();
    runs.sort_by_key(|r| r.wall_nanos);
    runs.swap_remove(REPEATS / 2)
}

fn run_concurrent_once(worlds: usize, threads: usize) -> ConcurrentRun {
    let config = EngineConfig {
        worlds_per_point: worlds,
        threads,
        ..EngineConfig::default()
    };
    let prophet = Prophet::builder()
        .scenario("hi", figure2_coarse(0.05))
        .scenario("lo", figure2_coarse(0.05))
        .registry(prophet_models::demo_registry())
        .config(config)
        .build()
        .expect("service construction");
    let t0 = Instant::now();
    let lo = prophet
        .submit(JobSpec::sweep("lo").with_priority(Priority::Low))
        .expect("submit lo");
    let hi = prophet
        .submit(JobSpec::sweep("hi").with_priority(Priority::High))
        .expect("submit hi");
    let hi_report = hi
        .wait()
        .and_then(JobOutput::into_sweep)
        .expect("hi sweep completes");
    let hi_wall = t0.elapsed();
    let lo_report = lo
        .wait()
        .and_then(JobOutput::into_sweep)
        .expect("lo sweep completes");
    let wall = t0.elapsed();
    // Quiesce before snapshotting: `wait()` returns on the Final event,
    // just before the driver's finish bookkeeping lands in the ring.
    prophet.scheduler().wait_idle();
    let points_total = hi_report.metrics.points_total() + lo_report.metrics.points_total();
    let store =
        prophet
            .basis_stats_all()
            .into_iter()
            .fold(StoreStatsSnapshot::default(), |acc, (_, s)| {
                StoreStatsSnapshot {
                    hits: acc.hits + s.hits,
                    misses: acc.misses + s.misses,
                    inflight_waits: acc.inflight_waits + s.inflight_waits,
                    evictions: acc.evictions + s.evictions,
                    entries: acc.entries + s.entries,
                }
            });
    ConcurrentRun {
        wall_nanos: wall.as_nanos(),
        points_per_sec: points_total as f64 / wall.as_secs_f64().max(1e-9),
        hi_wall_nanos: hi_wall.as_nanos(),
        points_total,
        hi_best: best_str(&hi_report),
        lo_best: best_str(&lo_report),
        telemetry: prophet.telemetry(),
        store,
        trace_events: prophet.trace_events(),
    }
}

struct ColdStartRun {
    /// Entries restored from the snapshot file.
    entries: usize,
    /// Snapshot file size on disk.
    snapshot_bytes: u64,
    wall_nanos: u128,
    points_per_sec: f64,
    points_simulated: u64,
    points_cached: u64,
    best: String,
}

fn snapshot_service(worlds: usize, threads: usize) -> Prophet {
    Prophet::builder()
        .scenario("figure2", figure2_coarse(0.05))
        .registry(prophet_models::demo_registry())
        .config(EngineConfig {
            worlds_per_point: worlds,
            threads,
            ..EngineConfig::default()
        })
        .build()
        .expect("service construction")
}

/// The cold-start-from-snapshot split: warm one service with a full
/// sweep, persist its basis via `save_basis`, then time the same sweep
/// on fresh services that `load_basis` the file — every point must come
/// back from the restored store (`points_simulated == 0`), so the row
/// records pure serve-from-basis throughput. Median of [`REPEATS`]
/// restored sweeps; the warm-up and save run once.
fn run_cold_start(worlds: usize, threads: usize) -> ColdStartRun {
    let path = std::env::temp_dir().join("fuzzy_prophet_bench_basis.fpbs");
    let warm = snapshot_service(worlds, threads);
    warm.submit(JobSpec::sweep("figure2"))
        .expect("submit warm sweep")
        .wait()
        .expect("warm sweep completes");
    let entries = warm.save_basis("figure2", &path).expect("save basis");
    let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let mut runs: Vec<ColdStartRun> = (0..REPEATS)
        .map(|_| {
            let cold = snapshot_service(worlds, threads);
            let loaded = cold.load_basis("figure2", &path).expect("load basis");
            assert_eq!(loaded, entries, "every entry crosses the snapshot");
            let t0 = Instant::now();
            let report = cold
                .submit(JobSpec::sweep("figure2"))
                .expect("submit restored sweep")
                .wait()
                .and_then(JobOutput::into_sweep)
                .expect("restored sweep completes");
            let wall = t0.elapsed();
            let points = report.metrics.points_total();
            ColdStartRun {
                entries,
                snapshot_bytes,
                wall_nanos: wall.as_nanos(),
                points_per_sec: points as f64 / wall.as_secs_f64().max(1e-9),
                points_simulated: report.metrics.points_simulated,
                points_cached: report.metrics.points_cached,
                best: best_str(&report),
            }
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    runs.sort_by_key(|r| r.wall_nanos);
    runs.swap_remove(REPEATS / 2)
}

/// One histogram as a JSON object: count plus p50/p95/p99 bucket
/// ceilings in nanoseconds.
fn hist_json(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\": {}, \"p50_nanos\": {}, \"p95_nanos\": {}, \"p99_nanos\": {}}}",
        h.count(),
        h.p50(),
        h.p95(),
        h.p99()
    )
}

fn best_str(report: &fuzzy_prophet::OfflineReport) -> String {
    report
        .best
        .as_ref()
        .map(|b| format!("{:?}", b.point.to_string()))
        .unwrap_or_else(|| "null".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut worlds = 32usize;
    // Default the worker pool to the hardware: oversubscribing a small
    // container (4 workers on 1 CPU) only adds context-switch noise to the
    // per-point stopwatches, and the recorded perf trajectory is supposed
    // to measure the engine, not the scheduler.
    let mut threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut out = String::from("BENCH_sweep.json");
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--worlds" => worlds = parse(it.next(), "--worlds"),
            "--threads" => threads = parse(it.next(), "--threads"),
            "--out" => {
                out = it
                    .next()
                    .unwrap_or_else(|| die("--out needs a path"))
                    .clone();
            }
            "--trace-out" => {
                trace_out = Some(
                    it.next()
                        .unwrap_or_else(|| die("--trace-out needs a path"))
                        .clone(),
                );
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    // The default configuration, then one knob flipped at a time.
    let default_tier = ExecTier::default();
    let mut sweeps = run_sweeps(
        worlds,
        threads,
        &[
            (default_tier, true),
            (default_tier, false),
            (ExecTier::Scalar, true),
        ],
    );
    let scalar = sweeps.pop().expect("three sweep configurations");
    let unindexed = sweeps.pop().expect("three sweep configurations");
    let default = sweeps.pop().expect("three sweep configurations");
    let concurrent = run_concurrent(worlds, threads);
    let cold = run_cold_start(worlds, threads);

    let m = &default.metrics;
    let u = &unindexed.metrics;
    let s = &scalar.metrics;
    let worlds_per_walk = if m.vector_walks > 0 {
        m.probe_evaluations as f64 / m.vector_walks as f64
    } else {
        1.0
    };
    let prune_rate = {
        let bounded = m.candidates_scanned + m.candidates_pruned;
        if bounded > 0 {
            m.candidates_pruned as f64 / bounded as f64
        } else {
            0.0
        }
    };
    // Two concurrent jobs on the shared pool versus one blocking sweep of
    // the same (default) configuration: below 1.0, interleaving would cost
    // more than it delivers.
    let scaling = concurrent.points_per_sec / default.points_per_sec.max(1e-9);

    let json = format!(
        "{{\n  \"workload\": \"figure2_coarse\",\n  \"worlds_per_point\": {worlds},\n  \
         \"threads\": {threads},\n  \"groups\": {},\n  \"points_total\": {},\n  \
         \"points_simulated\": {},\n  \"points_mapped\": {},\n  \"points_cached\": {},\n  \
         \"worlds_simulated\": {},\n  \"batch_probes\": {},\n  \"inflight_waits\": {},\n  \
         \"vector_walks\": {},\n  \"worlds_per_walk\": {worlds_per_walk:.1},\n  \
         \"candidates_scanned\": {},\n  \"candidates_pruned\": {},\n  \
         \"prune_rate\": {prune_rate:.3},\n  \"match_scan_nanos\": {},\n  \
         \"remap_nanos\": {},\n  \"publish_nanos\": {},\n  \
         \"probe_eval_nanos\": {},\n  \"probe_nanos\": {},\n  \"sim_nanos\": {},\n  \
         \"columnar_kernels\": {},\n  \"column_fallbacks\": {},\n  \
         \"wall_nanos\": {},\n  \"points_per_sec\": {:.1},\n  \"best_point\": {},\n  \
         \"unindexed\": {{\n    \"candidates_scanned\": {},\n    \
         \"match_scan_nanos\": {},\n    \"probe_nanos\": {},\n    \
         \"wall_nanos\": {},\n    \"points_per_sec\": {:.1}\n  }},\n  \
         \"scalar\": {{\n    \"probe_eval_nanos\": {},\n    \"probe_nanos\": {},\n    \
         \"sim_nanos\": {},\n    \"wall_nanos\": {},\n    \"points_per_sec\": {:.1}\n  }},\n  \
         \"concurrent\": {{\n    \"jobs\": 2,\n    \"points_total\": {},\n    \
         \"wall_nanos\": {},\n    \"points_per_sec\": {:.1},\n    \
         \"scaling\": {scaling:.3},\n    \"hi_wall_nanos\": {}\n  }},\n  \
         \"cold_start\": {{\n    \"entries\": {},\n    \"snapshot_bytes\": {},\n    \
         \"wall_nanos\": {},\n    \"points_per_sec\": {:.1},\n    \
         \"points_simulated\": {},\n    \"points_cached\": {}\n  }},\n  \
         \"telemetry\": {{\n    \"events_recorded\": {},\n    \
         \"events_dropped\": {},\n    \"max_queue_depth\": {},\n    \
         \"chunk_service\": {},\n    \"queue_wait\": {{\n      \
         \"high\": {},\n      \"normal\": {},\n      \"low\": {}\n    }},\n    \
         \"store\": {{\"hits\": {}, \"misses\": {}, \"inflight_waits\": {}, \
         \"evictions\": {}, \"entries\": {}}}\n  }}\n}}\n",
        default.groups,
        m.points_total(),
        m.points_simulated,
        m.points_mapped,
        m.points_cached,
        m.worlds_simulated,
        m.batch_probes,
        m.inflight_waits,
        m.vector_walks,
        m.candidates_scanned,
        m.candidates_pruned,
        m.match_scan_nanos,
        m.remap_nanos,
        m.publish_nanos,
        m.probe_eval_nanos,
        m.probe_nanos,
        m.sim_nanos,
        m.columnar_kernels,
        m.column_fallbacks,
        default.wall_nanos,
        default.points_per_sec,
        default.best,
        u.candidates_scanned,
        u.match_scan_nanos,
        u.probe_nanos,
        unindexed.wall_nanos,
        unindexed.points_per_sec,
        s.probe_eval_nanos,
        s.probe_nanos,
        s.sim_nanos,
        scalar.wall_nanos,
        scalar.points_per_sec,
        concurrent.points_total,
        concurrent.wall_nanos,
        concurrent.points_per_sec,
        concurrent.hi_wall_nanos,
        cold.entries,
        cold.snapshot_bytes,
        cold.wall_nanos,
        cold.points_per_sec,
        cold.points_simulated,
        cold.points_cached,
        concurrent.telemetry.trace.events_recorded,
        concurrent.telemetry.trace.events_dropped,
        concurrent.telemetry.trace.max_queue_depth,
        hist_json(&concurrent.telemetry.trace.chunk_service),
        hist_json(&concurrent.telemetry.trace.queue_wait[0]),
        hist_json(&concurrent.telemetry.trace.queue_wait[1]),
        hist_json(&concurrent.telemetry.trace.queue_wait[2]),
        concurrent.store.hits,
        concurrent.store.misses,
        concurrent.store.inflight_waits,
        concurrent.store.evictions,
        concurrent.store.entries,
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    print!("{json}");
    if let Some(path) = &trace_out {
        let chrome = chrome_trace_json(&concurrent.trace_events);
        std::fs::write(path, &chrome).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!(
            "trace: {} events from the concurrent run written to {path} \
             (load at chrome://tracing or ui.perfetto.dev)",
            concurrent.trace_events.len(),
        );
    }
    eprintln!(
        "default sweep: {} points in {:.1}ms ({:.1} points/sec); \
         probe {:.1}ms vs sim {:.1}ms; {} walks ({worlds_per_walk:.0} worlds/walk); \
         {} typed kernels, {} fallbacks",
        m.points_total(),
        default.wall_nanos as f64 / 1e6,
        default.points_per_sec,
        m.probe_nanos as f64 / 1e6,
        m.sim_nanos as f64 / 1e6,
        m.vector_walks,
        m.columnar_kernels,
        m.column_fallbacks,
    );
    // Where the probe phase's wall goes besides probe evaluation: scan and
    // remap are CPU sums over the pool, publish is the caller's own wall.
    eprintln!(
        "phase split: probe-eval {:.1}ms + match scan {:.1}ms + remap {:.1}ms (CPU sums); \
         publish {:.1}ms (wall) of {:.1}ms probe + {:.1}ms sim phase wall",
        m.probe_eval_nanos as f64 / 1e6,
        m.match_scan_nanos as f64 / 1e6,
        m.remap_nanos as f64 / 1e6,
        m.publish_nanos as f64 / 1e6,
        m.probe_nanos as f64 / 1e6,
        m.sim_nanos as f64 / 1e6,
    );
    eprintln!(
        "match index: {} scanned / {} pruned ({:.0}% prune rate); \
         match scan {:.1}ms vs {:.1}ms unindexed ({} pairs) — {:.2}x",
        m.candidates_scanned,
        m.candidates_pruned,
        prune_rate * 100.0,
        m.match_scan_nanos as f64 / 1e6,
        u.match_scan_nanos as f64 / 1e6,
        u.candidates_scanned,
        u.match_scan_nanos as f64 / (m.match_scan_nanos as f64).max(1.0),
    );
    eprintln!(
        "scalar sweep: probe {:.1}ms vs sim {:.1}ms ({:.1} points/sec); \
         columnar probe-eval speedup {:.2}x ({:.1}ms -> {:.1}ms)",
        s.probe_nanos as f64 / 1e6,
        s.sim_nanos as f64 / 1e6,
        scalar.points_per_sec,
        s.probe_eval_nanos as f64 / (m.probe_eval_nanos as f64).max(1.0),
        s.probe_eval_nanos as f64 / 1e6,
        m.probe_eval_nanos as f64 / 1e6,
    );
    assert_eq!(
        default.best, unindexed.best,
        "indexed and unindexed sweeps must agree on the sweep answer"
    );
    assert_eq!(
        default.best, scalar.best,
        "tiers must agree on the sweep answer"
    );
    assert_eq!(
        m.column_fallbacks, 0,
        "the coarse Figure 2 sweep must stay fully typed — no boxed fallbacks"
    );
    assert_eq!(
        u.candidates_pruned, 0,
        "the exhaustive scan must not prune anything"
    );
    eprintln!(
        "concurrent jobs: {} points across 2 sweeps in {:.1}ms ({:.1} points/sec, \
         {scaling:.2}x the blocking sweep); high-priority job returned after {:.1}ms \
         ({:.0}% of total wall)",
        concurrent.points_total,
        concurrent.wall_nanos as f64 / 1e6,
        concurrent.points_per_sec,
        concurrent.hi_wall_nanos as f64 / 1e6,
        100.0 * concurrent.hi_wall_nanos as f64 / concurrent.wall_nanos as f64,
    );
    assert_eq!(
        concurrent.hi_best, default.best,
        "the high-priority concurrent sweep must reach the single-job answer"
    );
    assert_eq!(
        concurrent.lo_best, default.best,
        "the low-priority concurrent sweep must reach the single-job answer"
    );
    assert!(
        scaling >= 1.0,
        "two concurrent jobs must not run slower than one blocking sweep \
         (scaling {scaling:.3}: {:.1} vs {:.1} points/sec)",
        concurrent.points_per_sec,
        default.points_per_sec,
    );
    eprintln!(
        "cold start: {} entries restored from a {}-byte snapshot; sweep served \
         entirely from the basis in {:.1}ms ({:.1} points/sec, {} simulated / {} cached)",
        cold.entries,
        cold.snapshot_bytes,
        cold.wall_nanos as f64 / 1e6,
        cold.points_per_sec,
        cold.points_simulated,
        cold.points_cached,
    );
    assert!(
        cold.entries > 0,
        "the warm sweep must publish basis entries"
    );
    assert_eq!(
        cold.points_simulated, 0,
        "a sweep on the restored basis must simulate nothing"
    );
    assert_eq!(
        cold.best, default.best,
        "the restored sweep must reach the single-job answer"
    );
    let t = &concurrent.telemetry.trace;
    eprintln!(
        "telemetry: {} events ({} dropped); chunk service p50/p95/p99 = \
         {:.1}/{:.1}/{:.1}us; max queue depth {}",
        t.events_recorded,
        t.events_dropped,
        t.chunk_service.p50() as f64 / 1e3,
        t.chunk_service.p95() as f64 / 1e3,
        t.chunk_service.p99() as f64 / 1e3,
        t.max_queue_depth,
    );
    assert!(
        t.events_recorded > 0 && t.chunk_service.count() > 0,
        "the concurrent run keeps its flight recorder armed"
    );
}

fn parse(arg: Option<&String>, flag: &str) -> usize {
    arg.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a positive integer")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: sweep_smoke [--worlds N] [--threads N] [--out PATH] [--trace-out PATH]");
    std::process::exit(2);
}
