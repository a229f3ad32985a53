//! Differential and behavioural suite for the asynchronous job API.
//!
//! The scheduled pipeline is *defined* by bit-identity with the blocking
//! executor (`Engine::evaluate_batch` / `OfflineOptimizer::run_with_observer`),
//! and this file is the contract's enforcement:
//!
//! * `submit(Sweep).wait()` against the blocking sweep across the bundled
//!   OPTIMIZE scenarios — identical best plan, per-group answers, chosen
//!   mapping sources (streamed chunk outcomes), and work counters — for
//!   chunk sizes {1, default, whole-sweep} and 1 vs 8 workers;
//! * `submit(Points)` against `evaluate_batch` across all five bundled
//!   scenarios — bit-identical samples and outcomes per point;
//! * `submit(Refresh)` and a session's render against `evaluate_batch`
//!   over the graph-axis points — the same per-point outcomes and sample
//!   bits;
//! * two concurrent jobs at different priorities, each bit-identical to
//!   its blocking run, plus priority-overtaking;
//! * the cancellation satellites: cancel drops unstarted chunks (and a
//!   resubmit reuses the published bases), cancel racing
//!   `SharedBasisStore::clear`, and a dropped handle detaching (job still
//!   completes, store state identical);
//! * the progressive-estimate fix: partial progress is published to the
//!   store and handed back to the guide instead of silently discarded.

use std::collections::HashMap;

use fuzzy_prophet::prelude::*;
use prophet_mc::{GridGuide, SampleSet, SampleStats, Series};
use prophet_models::scenarios::{
    figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
};
use prophet_models::{demo_registry, full_registry};

#[derive(Clone, Copy)]
enum Reg {
    Demo,
    Full,
}

impl Reg {
    fn build(self) -> prophet_vg::VgRegistry {
        match self {
            Reg::Demo => demo_registry(),
            Reg::Full => full_registry(),
        }
    }
}

fn config(worlds: usize) -> EngineConfig {
    EngineConfig {
        worlds_per_point: worlds,
        threads: 2,
        ..EngineConfig::default()
    }
}

fn service(
    name: &str,
    src: &str,
    reg: Reg,
    cfg: EngineConfig,
    workers: usize,
    chunk: usize,
) -> Prophet {
    Prophet::builder()
        .scenario_sql(name, src)
        .unwrap()
        .registry(reg.build())
        .config(cfg)
        .scheduler(SchedulerConfig {
            workers,
            chunk_points: chunk,
            ..SchedulerConfig::default()
        })
        .build()
        .unwrap()
}

/// Run a scheduled sweep, collecting the streamed per-point outcomes and
/// the final report.
fn run_scheduled_sweep(
    prophet: &Prophet,
    name: &str,
    priority: Priority,
) -> (OfflineReport, HashMap<ParamPoint, EvalOutcome>) {
    let handle = prophet
        .submit(JobSpec::sweep(name).with_priority(priority))
        .unwrap();
    collect_sweep(handle)
}

fn collect_sweep(handle: JobHandle) -> (OfflineReport, HashMap<ParamPoint, EvalOutcome>) {
    let mut outcomes = HashMap::new();
    let mut report = None;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(update) => {
                for (point, outcome) in update.results {
                    outcomes.insert(point, outcome);
                }
            }
            JobEvent::Final(output) => report = Some(output.into_sweep().unwrap()),
            other => panic!("unexpected event {other:?}"),
        }
    }
    (report.expect("sweep must finish"), outcomes)
}

/// Blocking reference sweep on a private engine (no scheduler involved).
fn run_blocking_sweep(
    src: &str,
    reg: Reg,
    cfg: EngineConfig,
) -> (OfflineReport, HashMap<ParamPoint, EvalOutcome>) {
    let engine = Engine::new(&Scenario::parse(src).unwrap(), reg.build(), cfg).unwrap();
    let optimizer = OfflineOptimizer::open(engine).unwrap();
    let mut outcomes = HashMap::new();
    let report = optimizer
        .run_with_observer(|_, full, outcome| {
            outcomes.insert(full.clone(), outcome.clone());
        })
        .unwrap();
    (report, outcomes)
}

fn assert_sweeps_identical(
    label: &str,
    scheduled: &(OfflineReport, HashMap<ParamPoint, EvalOutcome>),
    reference: &(OfflineReport, HashMap<ParamPoint, EvalOutcome>),
) {
    let (sched, sched_outcomes) = scheduled;
    let (blocking, blocking_outcomes) = reference;
    assert_eq!(
        sched.answers, blocking.answers,
        "{label}: per-group answers"
    );
    assert_eq!(sched.best, blocking.best, "{label}: sweep optimum");
    assert_eq!(sched.groups_total, blocking.groups_total, "{label}");
    assert_eq!(
        sched_outcomes, blocking_outcomes,
        "{label}: chosen mapping sources / outcomes per point"
    );
    // Work counters (not timings) must agree exactly too.
    let (a, b) = (&sched.metrics, &blocking.metrics);
    assert_eq!(a.points_simulated, b.points_simulated, "{label}");
    assert_eq!(a.points_mapped, b.points_mapped, "{label}");
    assert_eq!(a.points_cached, b.points_cached, "{label}");
    assert_eq!(a.worlds_simulated, b.worlds_simulated, "{label}");
    assert_eq!(a.probe_evaluations, b.probe_evaluations, "{label}");
    assert_eq!(a.candidates_scanned, b.candidates_scanned, "{label}");
    assert_eq!(a.candidates_pruned, b.candidates_pruned, "{label}");
    assert_eq!(a.batch_probes, b.batch_probes, "{label}");
}

// ------------------------------------------------------------ differential

/// The bundled OPTIMIZE scenarios tractable for a full matrix sweep.
fn sweep_scenarios() -> Vec<(&'static str, String, Reg)> {
    vec![
        ("inventory", INVENTORY_POLICY.to_string(), Reg::Full),
        ("pricing", PRICING_WHATIF.to_string(), Reg::Full),
        ("staffing", SUPPORT_STAFFING.to_string(), Reg::Full),
    ]
}

#[test]
fn scheduled_sweep_matches_blocking_at_every_chunk_size_and_worker_count() {
    for (name, src, reg) in sweep_scenarios() {
        let cfg = config(8);
        let reference = run_blocking_sweep(&src, reg, cfg);
        // chunk sizes: one point, the default, the whole sweep in one
        // chunk; workers: sequential vs heavily parallel.
        for (workers, chunk) in [
            (1, 1),
            (8, 1),
            (1, 16),
            (8, 16),
            (1, usize::MAX),
            (8, usize::MAX),
        ] {
            let prophet = service(name, &src, reg, cfg, workers, chunk);
            let scheduled = run_scheduled_sweep(&prophet, name, Priority::Normal);
            assert_sweeps_identical(
                &format!("{name} workers={workers} chunk={chunk}"),
                &scheduled,
                &reference,
            );
        }
    }
}

#[test]
fn scheduled_coarse_figure2_sweep_matches_blocking() {
    let src = figure2_coarse_sql(0.05);
    let cfg = config(6);
    let reference = run_blocking_sweep(&src, Reg::Demo, cfg);
    let prophet = service("figure2-coarse", &src, Reg::Demo, cfg, 8, 8);
    let scheduled = run_scheduled_sweep(&prophet, "figure2-coarse", Priority::Normal);
    assert_sweeps_identical("figure2-coarse", &scheduled, &reference);
    // Probe chunks on the pool replayed `CapacityModel` from the engine's
    // ledger store: under `--features check` that is its lock rank held
    // inside a pool chunk, between the memo's and the metrics'.
    // (Every distinct tuple at least once; concurrent first sightings of
    // one tuple may both miss the memo.)
    let replayed = scheduled.0.metrics.probe_call_sites_replayed;
    assert!((1_323..3_969).contains(&replayed), "replayed {replayed}");
}

/// All five bundled scenarios with a deterministic point sample walking
/// the start of each parameter grid (correlated neighbours included).
fn bundled_point_batches() -> Vec<(&'static str, String, Reg, usize)> {
    vec![
        (
            "figure2",
            Scenario::figure2().unwrap().source().to_string(),
            Reg::Demo,
            40,
        ),
        ("figure2-coarse", figure2_coarse_sql(0.05), Reg::Demo, 40),
        ("inventory", INVENTORY_POLICY.to_string(), Reg::Full, 30),
        ("pricing", PRICING_WHATIF.to_string(), Reg::Full, 30),
        ("staffing", SUPPORT_STAFFING.to_string(), Reg::Full, 30),
    ]
}

#[test]
fn scheduled_point_batches_are_bit_identical_across_all_bundled_scenarios() {
    for (name, src, reg, count) in bundled_point_batches() {
        let scenario = Scenario::parse(&src).unwrap();
        let points: Vec<ParamPoint> = GridGuide::new(&scenario.script().params)
            .take(count)
            .collect();
        let cfg = config(8);

        let engine = Engine::new(&scenario, reg.build(), cfg).unwrap();
        let reference = engine.evaluate_batch(&points).unwrap();

        for (workers, chunk) in [(1, 1), (8, 1), (8, 16), (1, usize::MAX)] {
            let prophet = service(name, &src, reg, cfg, workers, chunk);
            let results = prophet
                .submit(JobSpec::points(name, points.clone()))
                .unwrap()
                .wait()
                .unwrap()
                .into_points()
                .unwrap();
            assert_eq!(results.len(), reference.len());
            for (i, ((samples, outcome), (ref_samples, ref_outcome))) in
                results.iter().zip(&reference).enumerate()
            {
                let label = format!("{name} workers={workers} chunk={chunk} point {i}");
                assert_eq!(outcome, ref_outcome, "{label}: outcome");
                assert_eq!(samples.point(), ref_samples.point(), "{label}");
                for col in scenario.script().select.items.iter().map(|it| &it.alias) {
                    assert_eq!(
                        samples.samples(col),
                        ref_samples.samples(col),
                        "{label}: column {col}"
                    );
                }
            }
        }
    }
}

/// Per-column sample bits of one result, for bit-identity asserts.
fn sample_bits(samples: &SampleSet, columns: &[String]) -> Vec<Option<Vec<u64>>> {
    columns
        .iter()
        .map(|c| {
            samples
                .samples(c)
                .map(|xs| xs.iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

/// Both online-mode paths — a Refresh job and a session's `set_param` —
/// against the reference: `Engine::evaluate_batch` over the graph-axis
/// points on a bare engine. Each path renders the same two slider
/// settings from a cold store, so the second render re-maps from the
/// first; per point of it, the same outcome and the same sample bits.
#[test]
fn refresh_job_matches_blocking_session_refresh() {
    let src = figure2_coarse_sql(0.05);
    let cfg = config(8);
    let prophet = service("s", &src, Reg::Demo, cfg, 4, 4);
    let mut session = prophet.online("s").unwrap();
    let first = session.sliders().with("purchase1", 16);
    let second = first.with("purchase2", 40);

    // Reference: inline batches on a private engine and store.
    let scenario = Scenario::parse(&src).unwrap();
    let graph = scenario.script().graph.clone().unwrap();
    let xs = scenario
        .script()
        .param(&graph.x_param)
        .unwrap()
        .domain
        .values();
    let graph_points = |sliders: &ParamPoint| -> Vec<ParamPoint> {
        xs.iter()
            .map(|&x| sliders.with(&graph.x_param, x))
            .collect()
    };
    let points = graph_points(&second);
    let bare = Engine::new(&scenario, Reg::Demo.build(), cfg).unwrap();
    bare.evaluate_batch(&graph_points(&first)).unwrap();
    let reference = bare.evaluate_batch(&points).unwrap();
    let columns = bare.output_columns().to_vec();
    let count = |pred: fn(&EvalOutcome) -> bool| reference.iter().filter(|(_, o)| pred(o)).count();
    assert!(
        count(|o| matches!(o, EvalOutcome::Mapped { .. })) > 0,
        "the reference must exercise the re-map path"
    );

    // Refresh jobs at the same two settings.
    let refresh = |sliders: &ParamPoint| {
        prophet
            .submit(JobSpec::refresh("s", sliders.clone()).with_priority(Priority::High))
            .unwrap()
            .wait()
            .unwrap()
            .into_points()
            .unwrap()
    };
    refresh(&first);
    let results = refresh(&second);
    assert_eq!(results.len(), reference.len());
    for (i, ((samples, outcome), (ref_samples, ref_outcome))) in
        results.iter().zip(&reference).enumerate()
    {
        assert_eq!(outcome, ref_outcome, "refresh job, point {i}: outcome");
        assert_eq!(samples.point(), ref_samples.point(), "point {i}");
        assert_eq!(
            sample_bits(samples, &columns),
            sample_bits(ref_samples, &columns),
            "refresh job, point {i}: samples"
        );
    }

    // The session, from a cold store again: the same outcome counts and
    // every series bit-identical to one built from the reference's
    // samples…
    prophet.clear_basis("s").unwrap();
    session.set_param("purchase1", 16).unwrap();
    let report = session.set_param("purchase2", 40).unwrap();
    assert_eq!(report.weeks_total, reference.len());
    assert_eq!(
        report.weeks_simulated,
        count(|o| matches!(o, EvalOutcome::Simulated))
    );
    assert_eq!(
        report.weeks_mapped,
        count(|o| matches!(o, EvalOutcome::Mapped { .. }))
    );
    assert_eq!(
        report.weeks_cached,
        count(|o| matches!(o, EvalOutcome::Cached))
    );
    let mut expected: Vec<Series> = graph.series.iter().map(Series::new).collect();
    for (&x, (samples, _)) in xs.iter().zip(&reference) {
        for series in &mut expected {
            series.update_from(x, samples);
        }
    }
    assert_eq!(session.graph().len(), expected.len());
    for (got, want) in session.graph().iter().zip(&expected) {
        let bits = |s: &Series| -> Vec<(i64, u64)> {
            s.points.iter().map(|p| (p.x, p.y.to_bits())).collect()
        };
        assert_eq!(bits(got), bits(want), "series {}", got.column);
    }
    // …and the samples it published, read back per point, are the
    // reference's bits.
    let published = prophet
        .engine("s")
        .unwrap()
        .evaluate_batch(&points)
        .unwrap();
    for (i, ((samples, outcome), (ref_samples, _))) in published.iter().zip(&reference).enumerate()
    {
        assert_eq!(*outcome, EvalOutcome::Cached, "session, point {i}");
        assert_eq!(
            sample_bits(samples, &columns),
            sample_bits(ref_samples, &columns),
            "session, point {i}: samples"
        );
    }
}

#[test]
fn concurrent_jobs_at_different_priorities_are_bit_identical() {
    let src = PRICING_WHATIF;
    let cfg = config(8);
    let reference = run_blocking_sweep(src, Reg::Full, cfg);

    // Two slots of the same scenario → two independent stores, evaluated
    // concurrently at different priorities on one pool.
    let prophet = Prophet::builder()
        .scenario_sql("hi", src)
        .unwrap()
        .scenario_sql("lo", src)
        .unwrap()
        .registry(full_registry())
        .config(cfg)
        .scheduler(SchedulerConfig {
            workers: 4,
            chunk_points: 2,
            ..SchedulerConfig::default()
        })
        .build()
        .unwrap();
    let lo = prophet
        .submit(JobSpec::sweep("lo").with_priority(Priority::Low))
        .unwrap();
    let hi = prophet
        .submit(JobSpec::sweep("hi").with_priority(Priority::High))
        .unwrap();
    let hi_result = collect_sweep(hi);
    let lo_result = collect_sweep(lo);
    assert_sweeps_identical("high-priority concurrent", &hi_result, &reference);
    assert_sweeps_identical("low-priority concurrent", &lo_result, &reference);
}

#[test]
fn high_priority_work_overtakes_a_running_low_priority_sweep() {
    let src = figure2_coarse_sql(0.05);
    let prophet = service("big", &src, Reg::Demo, config(6), 2, 1);

    let lo = prophet
        .submit(JobSpec::sweep("big").with_priority(Priority::Low))
        .unwrap();
    // A tiny interactive batch submitted behind the sweep.
    let point = ParamPoint::from_pairs([
        ("current", 5i64),
        ("purchase1", 0),
        ("purchase2", 0),
        ("feature", 12),
    ]);
    let hi = prophet
        .submit(JobSpec::points("big", vec![point]).with_priority(Priority::High))
        .unwrap();
    let out = hi.wait().unwrap().into_points().unwrap();
    assert_eq!(out.len(), 1);
    assert!(
        !lo.progress().finished,
        "the interactive job must return long before the ~4k-point sweep"
    );
    lo.cancel();
    assert!(matches!(lo.wait(), Err(ProphetError::JobCancelled)));
}

#[test]
fn high_priority_overtakes_at_the_default_worker_resolution() {
    // EngineConfig::default() has threads = 1; the auto-resolved pool
    // must still keep a second lane so an interactive driver starts
    // beside a running sweep driver instead of queueing behind the
    // whole sweep.
    let src = figure2_coarse_sql(0.05);
    let prophet = Prophet::builder()
        .scenario_sql("big", &src)
        .unwrap()
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: 6,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    assert!(
        prophet.scheduler().workers() >= 2,
        "auto resolution keeps an interactive lane"
    );
    let lo = prophet
        .submit(JobSpec::sweep("big").with_priority(Priority::Low))
        .unwrap();
    let point = ParamPoint::from_pairs([
        ("current", 5i64),
        ("purchase1", 0),
        ("purchase2", 0),
        ("feature", 12),
    ]);
    let hi = prophet
        .submit(JobSpec::points("big", vec![point]).with_priority(Priority::High))
        .unwrap();
    hi.wait().unwrap();
    assert!(
        !lo.progress().finished,
        "the 1-point interactive job must return mid-sweep"
    );
    lo.cancel();
    assert!(matches!(lo.wait(), Err(ProphetError::JobCancelled)));
}

#[test]
fn concurrent_jobs_sharing_points_cannot_deadlock() {
    // Regression: a driver helping with its own phase must never start
    // another job's *driver* — the nested job would block on store claims
    // held by the suspended outer frame, wedging both jobs and the
    // worker. Two refreshes of the same scenario at the same sliders are
    // exactly that shape: every point of job B is in flight under job A.
    let src = figure2_coarse_sql(0.05);
    let sliders =
        ParamPoint::from_pairs([("purchase1", 16i64), ("purchase2", 16), ("feature", 12)]);
    for workers in [1, 2] {
        let prophet = service("s", &src, Reg::Demo, config(6), workers, 1);
        for _ in 0..3 {
            let a = prophet
                .submit(JobSpec::refresh("s", sliders.clone()))
                .unwrap();
            let b = prophet
                .submit(JobSpec::refresh("s", sliders.clone()))
                .unwrap();
            let ra = a.wait().unwrap().into_points().unwrap();
            let rb = b.wait().unwrap().into_points().unwrap();
            assert_eq!(ra.len(), rb.len());
            for ((sa, _), (sb, _)) in ra.iter().zip(&rb) {
                assert_eq!(sa.samples("overload"), sb.samples("overload"));
            }
            prophet.clear_basis("s").unwrap();
        }
    }
}

// ----------------------------------------------------------- cancellation

#[test]
fn cancel_drops_unstarted_chunks_and_resubmit_reuses_published_bases() {
    let src = figure2_coarse_sql(0.05);
    let cfg = config(4);
    let prophet = service("sweep", &src, Reg::Demo, cfg, 2, 1);

    let handle = prophet.submit(JobSpec::sweep("sweep")).unwrap();
    // Let real work land, then cancel mid-flight.
    let first = handle.recv().expect("at least one event");
    assert!(matches!(first, JobEvent::Chunk(_)), "{first:?}");
    handle.cancel();
    let mut saw_cancelled = false;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(_) => {}
            JobEvent::Cancelled => saw_cancelled = true,
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert!(saw_cancelled, "cancel must end the job with Cancelled");
    let progress = handle.progress();
    assert!(progress.cancelled && progress.finished);
    assert!(
        progress.points_done < progress.points_total,
        "unstarted chunks were dropped: {progress:?}"
    );
    let published = prophet.basis_len("sweep").unwrap();
    assert!(published > 0, "in-flight chunks finished and published");

    // Resubmit: the published bases are reused, and the answer matches the
    // blocking reference exactly.
    let reference = run_blocking_sweep(&src, Reg::Demo, cfg);
    let resubmitted = run_scheduled_sweep(&prophet, "sweep", Priority::Normal);
    assert!(
        resubmitted.0.metrics.points_cached > 0,
        "resubmit must reuse the cancelled job's published bases"
    );
    assert_eq!(resubmitted.0.answers, reference.0.answers);
    assert_eq!(resubmitted.0.best, reference.0.best);
}

#[test]
fn cancel_races_store_clear_without_corruption() {
    let src = figure2_coarse_sql(0.05);
    let cfg = config(4);
    for round in 0..3 {
        let prophet = service("sweep", &src, Reg::Demo, cfg, 2, 1);
        let handle = prophet.submit(JobSpec::sweep("sweep")).unwrap();
        // Interleave clears with the running job, then cancel mid-chunk.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..20 {
                    prophet.clear_basis("sweep").unwrap();
                    std::thread::yield_now();
                }
            });
            let _ = handle.recv();
            handle.cancel();
        });
        // Drain; the job must end (cancelled, or final if it won the race).
        let mut terminal = None;
        for event in handle.events() {
            match event {
                JobEvent::Chunk(_) => {}
                other => terminal = Some(other),
            }
        }
        match terminal {
            Some(JobEvent::Cancelled) | Some(JobEvent::Final(_)) => {}
            other => panic!("round {round}: job must terminate cleanly, got {other:?}"),
        }
        prophet.scheduler().wait_idle();
        // The store stayed consistent: a fresh blocking evaluation works
        // and the next sweep gives the reference answer.
        let reference = run_blocking_sweep(&src, Reg::Demo, cfg);
        let again = run_scheduled_sweep(&prophet, "sweep", Priority::Normal);
        assert_eq!(again.0.best, reference.0.best, "round {round}");
        assert_eq!(again.0.answers, reference.0.answers, "round {round}");
    }
}

#[test]
fn dropped_handle_detaches_and_the_job_still_completes() {
    let src = PRICING_WHATIF;
    let cfg = config(8);

    // Watched twin: same service shape, handle kept.
    let watched = service("pricing", src, Reg::Full, cfg, 2, 4);
    let (watched_report, _) = run_scheduled_sweep(&watched, "pricing", Priority::Normal);

    // Detached: the handle is dropped immediately after submit.
    let detached = service("pricing", src, Reg::Full, cfg, 2, 4);
    drop(detached.submit(JobSpec::sweep("pricing")).unwrap());
    detached.scheduler().wait_idle();
    assert_eq!(detached.scheduler().active_jobs(), 0, "idle means no job");

    // The job ran to completion: store state identical to the watched run.
    assert_eq!(
        detached.basis_len("pricing").unwrap(),
        watched.basis_len("pricing").unwrap(),
        "identical store population"
    );
    // …and a follow-up sweep is fully served from it, with the same answer.
    let follow_up = detached
        .submit(JobSpec::sweep("pricing"))
        .unwrap()
        .wait()
        .unwrap()
        .into_sweep()
        .unwrap();
    assert_eq!(follow_up.metrics.worlds_simulated, 0, "everything reused");
    assert_eq!(
        follow_up.metrics.points_cached,
        follow_up.metrics.points_total()
    );
    assert_eq!(follow_up.best, watched_report.best);
    assert_eq!(follow_up.answers, watched_report.answers);
}

// ------------------------------------------------------- handle behaviour

#[test]
fn events_stream_chunks_in_order_then_the_final_answer() {
    let src = PRICING_WHATIF;
    let prophet = service("pricing", src, Reg::Full, config(6), 2, 3);
    let scenario = prophet.scenario("pricing").unwrap().clone();
    let points: Vec<ParamPoint> = GridGuide::new(&scenario.script().params).take(10).collect();

    let handle = prophet
        .submit(JobSpec::points("pricing", points.clone()))
        .unwrap();
    assert_eq!(handle.priority(), Priority::Normal);
    let mut streamed = Vec::new();
    let mut chunk_ids = Vec::new();
    let mut final_count = 0;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(update) => {
                chunk_ids.push(update.chunk);
                streamed.extend(update.results.into_iter().map(|(p, _)| p));
            }
            JobEvent::Final(output) => {
                final_count += 1;
                let results = output.into_points().unwrap();
                assert_eq!(results.len(), points.len());
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(final_count, 1, "exactly one final event, last");
    assert_eq!(streamed, points, "chunk results stream in batch order");
    let sorted = {
        let mut ids = chunk_ids.clone();
        ids.sort_unstable();
        ids
    };
    assert_eq!(chunk_ids, sorted, "chunk ids are monotone");

    let progress = handle.progress();
    assert!(progress.finished && !progress.cancelled);
    assert_eq!(progress.points_done, points.len() as u64);
    assert_eq!(progress.points_total, points.len() as u64);
    assert!((progress.fraction() - 1.0).abs() < 1e-12);
    assert!(progress.chunks_done >= 1);
    assert_eq!(progress.metrics.points_total(), points.len() as u64);
    assert!(
        progress.metrics.sim_nanos > 0,
        "per-phase nanos surface in progress: {:?}",
        progress.metrics
    );
    assert!(handle.recv().is_none(), "stream is exhausted");
    assert!(handle.try_recv().is_none());
}

#[test]
fn submit_validates_scenarios_and_refresh_sliders() {
    let prophet = Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .scenario_sql("no-graph", INVENTORY_POLICY)
        .unwrap()
        .scenario_sql(
            "no-optimize",
            "DECLARE PARAMETER @w AS RANGE 0 TO 4 STEP BY 1;
DECLARE PARAMETER @k AS SET (1,2);
SELECT @k + 0 AS y INTO r;
GRAPH OVER @w EXPECT y WITH red;",
        )
        .unwrap()
        .registry(full_registry())
        .worlds_per_point(4)
        .build()
        .unwrap();

    assert!(matches!(
        prophet.submit(JobSpec::sweep("nope")),
        Err(ProphetError::UnknownScenario { .. })
    ));
    assert!(matches!(
        prophet.submit(JobSpec::sweep("no-optimize")),
        Err(ProphetError::MissingOptimizeDirective)
    ));
    assert!(matches!(
        prophet.submit(JobSpec::refresh("no-graph", ParamPoint::new())),
        Err(ProphetError::MissingGraphDirective)
    ));
    // A progressive job names one output column, checked before anything
    // is queued.
    let jobs = prophet.scheduler().active_jobs();
    assert!(matches!(
        prophet.submit(JobSpec::progressive("figure2", ParamPoint::new(), "nope", 0.1, 10)),
        Err(ProphetError::UnknownColumn { ref name, .. }) if name == "nope"
    ));
    assert_eq!(prophet.scheduler().active_jobs(), jobs);
    // Axis, domain and unknown-name checks are set_param's: each bad
    // slider fails a refresh job and a session of the same service alike.
    let good = ParamPoint::from_pairs([("purchase1", 16i64), ("purchase2", 36), ("feature", 12)]);
    assert!(prophet
        .submit(JobSpec::refresh("figure2", good.clone()))
        .is_ok());
    let mut session = prophet.online("figure2").unwrap();
    let sliders: Vec<String> = ["feature", "purchase1", "purchase2"]
        .map(String::from)
        .into();
    for (name, value, want) in [
        (
            "current",
            3,
            ProphetError::AxisParam {
                name: "current".into(),
            },
        ),
        (
            "purchase1",
            3,
            ProphetError::OutOfDomain {
                name: "purchase1".into(),
                value: 3,
            },
        ),
        (
            "nope",
            0,
            ProphetError::UnknownParam {
                name: "nope".into(),
                available: sliders,
            },
        ),
    ] {
        let via_job = prophet.submit(JobSpec::refresh("figure2", good.with(name, value)));
        assert_eq!(
            via_job.err(),
            Some(want.clone()),
            "refresh job: {name} = {value}"
        );
        let via_session = session.set_param(name, value);
        assert_eq!(via_session.err(), Some(want), "set_param: {name} = {value}");
    }
    // A refresh job must name every slider; a session starts from defaults.
    let incomplete = ParamPoint::from_pairs([("purchase1", 16i64)]);
    match prophet.submit(JobSpec::refresh("figure2", incomplete)) {
        Err(ProphetError::MissingSlider { name, required }) => {
            assert!(name == "feature" || name == "purchase2");
            assert_eq!(required, ["feature", "purchase1", "purchase2"]);
        }
        other => panic!("expected MissingSlider, got {other:?}"),
    }
    prophet.scheduler().wait_idle();
}

#[test]
fn basis_stats_all_polls_every_store_in_one_call() {
    let prophet = Prophet::builder()
        .scenario_sql("b-pricing", PRICING_WHATIF)
        .unwrap()
        .scenario_sql("a-staffing", SUPPORT_STAFFING)
        .unwrap()
        .registry(full_registry())
        .worlds_per_point(4)
        .build()
        .unwrap();
    let mut session = prophet.online("b-pricing").unwrap();
    session.refresh().unwrap();

    let all = prophet.basis_stats_all();
    assert_eq!(
        all.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        ["a-staffing", "b-pricing"],
        "sorted by scenario name"
    );
    let by_name: HashMap<_, _> = all.into_iter().collect();
    assert_eq!(
        by_name["b-pricing"],
        prophet.basis_stats("b-pricing").unwrap()
    );
    assert_eq!(by_name["a-staffing"], StoreStatsSnapshot::default());
    assert!(by_name["b-pricing"].hits + by_name["b-pricing"].misses > 0);
}

// ------------------------------------------------- progressive (satellite)

#[test]
fn progressive_partial_progress_is_published_and_queued_with_the_guide() {
    let prophet = Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: 200,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    let mut session = prophet.online("figure2").unwrap();

    // A loose criterion converges far below the 200-world budget.
    let est = session.progressive_expect("overload", 10, 0.2, 20).unwrap();
    assert!(est.converged && !est.used_basis);
    assert!(
        est.worlds_used > 0 && est.worlds_used < 200,
        "early stop expected, got {est:?}"
    );
    // Partial progress is *published*, not discarded…
    assert_eq!(prophet.basis_len("figure2").unwrap(), 1);
    // …and the point went back to the guide as pending work, so idle time
    // deepens it to full depth.
    let deepened = session.prefetch_tick(8).unwrap();
    assert!(deepened >= 1, "guide must hold the partial point");
    let warm = session.progressive_expect("overload", 10, 0.2, 20).unwrap();
    assert!(warm.used_basis, "deepened point now serves from the basis");
    assert_eq!(warm.worlds_used, 0);

    // An unconverged estimate consumes the whole budget, publishes a full
    // matchable entry, and queues nothing (there is nothing left to do).
    let mut cold = prophet.online("figure2").unwrap();
    cold.set_param("purchase2", 36).unwrap(); // move off the warm sliders
    cold.engine().clear_basis();
    let exhausted = cold.progressive_expect("demand", 10, 1e-9, 50).unwrap();
    assert!(!exhausted.converged && !exhausted.used_basis);
    assert_eq!(exhausted.worlds_used, 200, "budget exhausted at full depth");
}

#[test]
fn progressive_deepens_a_previously_partial_entry() {
    let prophet = Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: 200,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    // `demand` is continuous, so its CI half-width is never zero — a
    // huge epsilon converges after the first 20-world chunk, a tiny one
    // can never converge at all.
    let mut session = prophet.online("figure2").unwrap();
    let loose = session.progressive_expect("demand", 10, 1e9, 20).unwrap();
    assert!(loose.converged && loose.worlds_used > 0 && loose.worlds_used < 200);

    // A tighter criterion than the shallow published entry can satisfy
    // must deepen (re-own at full depth), not dead-end on the partial
    // samples forever — and it resumes from the stored prefix, so only
    // the remaining worlds are fresh work.
    let tight = session.progressive_expect("demand", 10, 1e-9, 20).unwrap();
    assert!(!tight.used_basis, "deepening re-owns the point");
    assert_eq!(
        tight.worlds_used,
        200 - loose.worlds_used,
        "only the un-simulated remainder is paid for"
    );
    assert!(!tight.converged);

    // The store now holds the full-depth entry: a third call serves from
    // the basis with zero fresh worlds.
    let warm = session.progressive_expect("demand", 10, 1e9, 20).unwrap();
    assert!(warm.used_basis);
    assert_eq!(warm.worlds_used, 0);
}

#[test]
fn progressive_chunked_samples_match_the_blocking_full_run_prefix() {
    // The world-span chunker must reproduce the exact sample prefix a full
    // simulation produces — the estimate is then identical to feeding a
    // full blocking evaluation chunk by chunk (the pre-PR-5 semantics).
    let cfg = EngineConfig {
        worlds_per_point: 120,
        ..EngineConfig::default()
    };
    let scenario = Scenario::figure2().unwrap();

    let prophet = Prophet::builder()
        .scenario("figure2", scenario.clone())
        .registry(demo_registry())
        .config(cfg)
        .build()
        .unwrap();
    let mut session = prophet.online("figure2").unwrap();
    let progressive = session
        .progressive_expect("overload", 20, 0.15, 30)
        .unwrap();

    // Reference: a full blocking evaluation of the same point, summarized
    // over the same growing prefixes.
    let engine = Engine::new(&scenario, demo_registry(), cfg).unwrap();
    let mut sliders = session.sliders().clone();
    sliders.set("current", 20);
    let (samples, _) = engine.evaluate(&sliders).unwrap();
    let xs = samples.samples("overload").unwrap();
    let prefix = (30..=xs.len())
        .step_by(30)
        .map(|end| SampleStats::of(&xs[..end]))
        .find(|stats| stats.converged(0.15, 1.96))
        .expect("the reference must converge");
    assert_eq!(
        progressive.worlds_used as u64, prefix.count,
        "same convergence point"
    );
    assert_eq!(
        progressive.estimate.to_bits(),
        prefix.mean.to_bits(),
        "estimate computed from the bit-identical sample prefix"
    );

    // Run to full depth (a criterion the continuous `demand` never meets),
    // the estimate is the graph's answer: bit-equal to `SampleSet::expect`
    // of the stored entry.
    let full = session.progressive_expect("demand", 20, 1e-12, 30).unwrap();
    assert!(!full.converged);
    let (stored, outcome) = session.engine().evaluate(&sliders).unwrap();
    assert_eq!(outcome, EvalOutcome::Cached);
    assert_eq!(
        full.estimate.to_bits(),
        stored.expect("demand").unwrap().to_bits()
    );
}

/// A warm estimate reads its whole basis entry: on a 200-world entry it is
/// the 200-sample mean, with no fresh world. (Testing the entry's prefixes
/// instead stops at the first that converges — a week whose first 20
/// `overload` samples are all 0 would answer 0.)
#[test]
fn a_warm_progressive_estimate_is_the_mean_of_the_whole_entry() {
    let prophet = Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .worlds_per_point(200)
        .build()
        .unwrap();
    let mut session = prophet.online("figure2").unwrap();
    session.set_param("purchase1", 16).unwrap();
    let engine = prophet.engine("figure2").unwrap();
    for week in 0..=52 {
        let estimate = session
            .progressive_expect("overload", week, 0.2, 20)
            .unwrap();
        let point = session.sliders().with("current", week);
        let (samples, outcome) = engine.evaluate(&point).unwrap();
        assert_eq!(outcome, EvalOutcome::Cached, "week {week}");
        let xs = samples.samples("overload").unwrap();
        assert_eq!(xs.len(), 200, "week {week}");
        assert_eq!(
            (estimate.estimate.to_bits(), estimate.worlds_used),
            (SampleStats::of(xs).mean.to_bits(), 0),
            "week {week}: {estimate:?}"
        );
        assert!(estimate.used_basis, "week {week}");
    }
}

/// A stop rule reads moments, not samples: a progressive estimate answered
/// by a fresh fingerprint hit, then by that hit's cached recipe record,
/// rebuilds nothing, and is the mapped samples' whole-entry mean.
#[test]
fn a_progressive_estimate_on_a_mapped_point_rebuilds_nothing() {
    let prophet = Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .worlds_per_point(200)
        .build()
        .unwrap();
    let point = |feature| {
        ParamPoint::from_pairs([
            ("current", 5),
            ("purchase1", 16),
            ("purchase2", 36),
            ("feature", feature),
        ])
    };
    let (source, mapped) = (point(12), point(44));
    let store = prophet.engine("figure2").unwrap().basis_store().clone();
    prophet
        .submit(JobSpec::points("figure2", vec![source]))
        .unwrap()
        .wait()
        .unwrap();
    let mut estimates = Vec::new();
    for answer in ["a fresh hit", "a cached recipe record"] {
        let job = JobSpec::progressive("figure2", mapped.clone(), "overload", 0.2, 20);
        let output = prophet.submit(job).unwrap().wait().unwrap();
        let estimate = output.into_progressive().unwrap();
        assert!(estimate.used_basis && estimate.worlds_used == 0, "{answer}");
        let stats = store.stats_snapshot();
        assert_eq!(
            (stats.resident, stats.rematerializations),
            (1, 0),
            "{answer}"
        );
        estimates.push(estimate);
    }
    let samples = store.get_exact(&mapped, 200).expect("the recipe record");
    let mean = SampleStats::of(&samples["overload"]).mean;
    for estimate in estimates {
        assert_eq!(estimate.estimate.to_bits(), mean.to_bits());
    }
}

// ------------------------------------------ one engine per scenario slot

/// Every point's stored samples as bits, in point order: what a store
/// holds, whatever insertion stamps its records carry.
fn stored_bits(store: &prophet_mc::SharedBasisStore, points: &[ParamPoint]) -> Vec<Vec<u64>> {
    let columns = ["demand", "capacity", "overload"];
    (points.iter())
        .map(|p| {
            let samples = store.get_exact(p, 1).expect("every swept point is stored");
            columns
                .iter()
                .flat_map(|c| samples[*c].iter().map(|x| x.to_bits()))
                .collect()
        })
        .collect()
}

/// A scenario's engine keeps its call-site probe memo and draw ledgers
/// for the service's lifetime, whatever the basis store goes through.
/// After `clear_basis`, or after `load_basis` of the empty store the first
/// sweep started from, the same sweep re-probes every call site from the
/// memo and draws nothing. Its recipe memo goes with the store, so the
/// sweep remaps every recipe again. Its answers, outcomes, chosen sources,
/// stored samples and store bytes are the first run's after either: a
/// clear restarts the stamp counter as the load of an empty snapshot does.
#[test]
fn a_second_sweep_after_a_clear_or_a_load_reprobes_without_drawing() {
    const NAME: &str = "figure2-coarse";
    let src = figure2_coarse_sql(0.05);
    let prophet = service(NAME, &src, Reg::Demo, config(6), 2, 8);
    let store = prophet.engine(NAME).unwrap().basis_store().clone();
    let empty =
        std::env::temp_dir().join(format!("fp_jobs_{}_empty_store.fpbs", std::process::id()));
    assert_eq!(prophet.save_basis(NAME, &empty).unwrap(), 0);
    let first = run_scheduled_sweep(&prophet, NAME, Priority::Normal);
    let first_bytes = store.snapshot_bytes();
    let mut points: Vec<ParamPoint> = first.1.keys().cloned().collect();
    points.sort();
    let first_samples = stored_bits(&store, &points);
    let m = first.0.metrics;
    assert!(m.probe_call_sites_memoised < m.probe_call_sites, "{m}");

    let clear = || prophet.clear_basis(NAME).unwrap();
    let load = || assert_eq!(prophet.load_basis(NAME, &empty).unwrap(), 0);
    let resets: [(&str, &dyn Fn()); 2] = [("clear_basis", &clear), ("load_basis", &load)];
    for (label, reset) in resets {
        reset();
        assert_eq!(store.len(), 0, "{label}");
        let again = run_scheduled_sweep(&prophet, NAME, Priority::Normal);
        let m = again.0.metrics;
        assert_eq!(
            m.probe_call_sites, first.0.metrics.probe_call_sites,
            "{label}"
        );
        assert_eq!(m.probe_call_sites_memoised, m.probe_call_sites, "{label}");
        assert_eq!(m.probe_call_sites_replayed, 0, "{label}");
        assert_eq!(m.remaps, first.0.metrics.remaps, "{label}: the recipe memo");
        assert_sweeps_identical(label, &again, &first);
        assert!(
            store.snapshot_bytes() == first_bytes,
            "{label}: store bytes"
        );
        assert!(stored_bits(&store, &points) == first_samples, "{label}");
    }
    std::fs::remove_file(&empty).unwrap();
}

/// Every job of a scenario runs on its one engine, and each counts into
/// its own counters: a Low-priority sweep and a session's slider moves
/// running at once each report exactly their own points, and the engine's
/// own counters — the inline runner's — see none of it.
#[test]
fn jobs_sharing_an_engine_count_only_their_own_work() {
    const NAME: &str = "figure2-coarse";
    let src = figure2_coarse_sql(0.05);
    let prophet = service(NAME, &src, Reg::Demo, config(24), 2, 8);
    let sweep = prophet
        .submit(JobSpec::sweep(NAME).with_priority(Priority::Low))
        .unwrap();
    let mut session = prophet.online(NAME).unwrap();
    let mut refreshed = 0;
    for (slider, value) in [("purchase1", 16), ("purchase2", 40), ("feature", 36)] {
        refreshed += session.set_param(slider, value).unwrap().weeks_total as u64;
    }
    let mut report = None;
    for event in sweep.events() {
        if let JobEvent::Final(output) = event {
            report = Some(output.into_sweep().unwrap());
        }
    }
    let report = report.expect("sweep must finish");
    let progress = sweep.progress();
    assert!(progress.finished);
    assert_eq!(report.metrics.points_total(), progress.points_total);
    assert_eq!(
        progress.points_total,
        (report.groups_total * 27) as u64,
        "the grid"
    );
    assert_eq!(progress.metrics, report.metrics);
    assert_eq!(session.metrics().points_total(), refreshed);
    assert_eq!(refreshed, 3 * 27);
    let engine = prophet.engine(NAME).unwrap();
    assert_eq!(engine.metrics(), EngineMetrics::default());
}
