//! Flight-recorder integration (tier 2).
//!
//! End-to-end checks of the observability surface added in 0.8: a traced
//! sweep records the full event taxonomy in stamp order, a cancelled
//! job's trace shows the cancel marker with no chunk work after it (the
//! ordering argument in `docs/OBSERVABILITY.md`), `Prophet::telemetry`
//! exposes monotone percentiles, the Chrome exporter emits structurally
//! sound JSON, and turning tracing on or off never changes an answer.
//! The chaos suite (`tests/chaos.rs`) carries the 32-seed differential;
//! this file carries the recorder's own contracts.

use fuzzy_prophet::prelude::*;
use prophet_models::scenarios::{figure2_coarse_sql, PRICING_WHATIF};
use prophet_models::{demo_registry, full_registry};

fn service(workers: usize, trace: TraceConfig) -> Prophet {
    Prophet::builder()
        .scenario_sql("pricing", PRICING_WHATIF)
        .unwrap()
        .registry(full_registry())
        .config(EngineConfig {
            worlds_per_point: 8,
            threads: 2,
            ..EngineConfig::default()
        })
        .scheduler(SchedulerConfig {
            workers,
            // Tiny chunks: many queue events per job.
            chunk_points: 2,
            trace,
            ..SchedulerConfig::default()
        })
        .build()
        .unwrap()
}

fn run_sweep(prophet: &Prophet) -> OfflineReport {
    let report = prophet
        .submit(JobSpec::sweep("pricing"))
        .unwrap()
        .wait()
        .unwrap()
        .into_sweep()
        .unwrap();
    // `wait()` returns on the Final event, which the driver emits just
    // *before* the job's finishing bookkeeping (the `job_finish` stamp
    // and the active-job decrement). Quiesce so the trace is complete.
    prophet.scheduler().wait_idle();
    report
}

/// One traced sweep exercises every layer of the taxonomy: job
/// lifecycle, chunk queue flow, driver phases, and store traffic — and
/// the events come back sorted by stamp.
#[test]
fn traced_sweep_records_the_full_event_taxonomy_in_stamp_order() {
    let prophet = service(2, TraceConfig::ring());
    let report = run_sweep(&prophet);
    assert!(report.best.is_some());

    let events = prophet.trace_events();
    let has = |kind: TraceEventKind| events.iter().any(|e| e.kind == kind);
    // Job lifecycle.
    assert!(has(TraceEventKind::JobSubmit), "job_submit");
    assert!(has(TraceEventKind::JobStart), "job_start");
    assert!(has(TraceEventKind::JobFinish), "job_finish");
    // Chunk queue flow.
    assert!(has(TraceEventKind::ChunkEnqueue), "chunk_enqueue");
    assert!(has(TraceEventKind::ChunkDequeue), "chunk_dequeue");
    assert!(has(TraceEventKind::ChunkRun), "chunk_run");
    // Driver phases (PRICING_WHATIF has stochastic columns, so the
    // fingerprint phase runs, and a cold sweep must simulate). The
    // fingerprint path is two chunked phases — `phase_probe`, then the
    // fused match-then-remap phase `phase_scan` — with `phase_snapshot`
    // spanning only the driver's candidate snapshot between them.
    assert!(has(TraceEventKind::PhaseProbe), "phase_probe");
    assert!(has(TraceEventKind::PhaseSnapshot), "phase_snapshot");
    assert!(has(TraceEventKind::PhaseScan), "phase_scan");
    assert!(has(TraceEventKind::PhaseSimulate), "phase_simulate");
    assert!(has(TraceEventKind::PhasePublish), "phase_publish");
    // Per batch: probe → snapshot → match+remap, in that order, and the
    // snapshot never overlaps the chunked phase that reads it.
    let spans = |kind: TraceEventKind| -> Vec<(u64, u64)> {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.nanos, e.nanos + e.dur_nanos))
            .collect()
    };
    let (probes, snapshots, fused) = (
        spans(TraceEventKind::PhaseProbe),
        spans(TraceEventKind::PhaseSnapshot),
        spans(TraceEventKind::PhaseScan),
    );
    assert_eq!(
        probes.len(),
        snapshots.len(),
        "one snapshot per probed batch"
    );
    assert_eq!(snapshots.len(), fused.len(), "one fused phase per snapshot");
    for ((probe, snapshot), fused) in probes.iter().zip(&snapshots).zip(&fused) {
        assert!(probe.1 <= snapshot.0, "snapshot follows the probe phase");
        assert!(snapshot.1 <= fused.0, "scans start after the snapshot");
    }
    // Store traffic.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::StoreClaim)),
        "store_claim"
    );
    assert!(has(TraceEventKind::StorePublish), "store_publish");

    // The events come back sorted by monotonic stamp.
    assert!(
        events.windows(2).all(|w| w[0].nanos <= w[1].nanos),
        "events() must come back in stamp order"
    );
    // Chunk events carry their chunk sequence; lifecycle events do not.
    assert!(events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::ChunkRun))
        .all(|e| e.chunk != u64::MAX));
}

/// A progressive estimate is a job like any other: its phase spans land
/// under its own job id — one simulate and one publish span per wave of
/// `batch` worlds, and with fingerprints on the probe, match and remap
/// spans of its fingerprint phase.
#[test]
fn a_progressive_job_records_its_phase_spans_under_its_id() {
    const WORLDS: usize = 40;
    const BATCH: usize = 10;
    for fingerprints in [false, true] {
        let prophet = Prophet::builder()
            .scenario("figure2", Scenario::figure2().unwrap())
            .registry(demo_registry())
            .config(EngineConfig {
                worlds_per_point: WORLDS,
                fingerprints_enabled: fingerprints,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        // The criterion `demand` never meets: every wave runs.
        let point = ParamPoint::from_pairs([
            ("current", 20),
            ("purchase1", 16),
            ("purchase2", 36),
            ("feature", 12),
        ]);
        let spec = JobSpec::progressive("figure2", point, "demand", 1e-12, BATCH);
        let handle = prophet.submit(spec.with_priority(Priority::High)).unwrap();
        let id = handle.id();
        let estimate = handle.wait().unwrap().into_progressive().unwrap();
        assert_eq!(estimate.worlds_used, WORLDS, "fingerprints {fingerprints}");
        prophet.scheduler().wait_idle();

        let events = prophet.trace_events();
        let count = |kind: TraceEventKind| {
            let of_job = events.iter().filter(|e| e.job == id);
            of_job.filter(|e| e.kind == kind).count()
        };
        let waves = WORLDS / BATCH;
        assert_eq!(
            count(TraceEventKind::PhaseSimulate),
            waves,
            "fingerprints {fingerprints}"
        );
        let probed = usize::from(fingerprints);
        for kind in [
            TraceEventKind::PhaseProbe,
            TraceEventKind::PhaseSnapshot,
            TraceEventKind::PhaseScan,
        ] {
            assert_eq!(count(kind), probed, "{kind:?}, fingerprints {fingerprints}");
        }
        // One publish span per wave, plus the fingerprint phase's.
        assert_eq!(
            count(TraceEventKind::PhasePublish),
            waves + probed,
            "fingerprints {fingerprints}"
        );
        assert!(count(TraceEventKind::ChunkRun) >= waves);
    }
}

/// `Prophet::telemetry` snapshots the histograms and gauges: percentiles
/// are monotone (by bucket-ceiling construction), counts reflect the
/// work done, and the queue-depth watermark saw at least one queued
/// chunk.
#[test]
fn telemetry_snapshot_is_monotone_and_populated() {
    let prophet = service(2, TraceConfig::ring());
    run_sweep(&prophet);

    let snapshot = prophet.telemetry();
    assert_eq!(snapshot.workers_total, 2);
    assert_eq!(snapshot.inflight_claims, 0, "nothing in flight at rest");

    let t = &snapshot.trace;
    assert!(t.events_recorded > 0);
    assert!(t.chunk_service.count() > 0, "chunk service observed");
    assert!(t.chunk_service.p50() <= t.chunk_service.p95());
    assert!(t.chunk_service.p95() <= t.chunk_service.p99());
    let queue_waits: u64 = t.queue_wait.iter().map(LatencyHistogram::count).sum();
    assert!(queue_waits > 0, "queue waits observed");
    assert!(t.match_scan.count() > 0, "per-probe match scans observed");
    assert!(t.max_queue_depth > 0, "watermark saw a queued chunk");
    assert_eq!(t.queue_depth, 0, "queue drained at rest");
    // The driver's worker may still be unwinding its `run_task` frame
    // when the last job finishes, so "idle" is eventual — only bound it.
    assert!(t.workers_busy <= snapshot.workers_total);
}

/// The default ring holds a whole coarse Figure-2 sweep: every thread
/// records into the one ring, so the full capacity is usable however few
/// threads the pool has (a ring split into thread-sticky shards dropped
/// events at a quarter full).
#[test]
fn default_ring_holds_a_whole_coarse_sweep() {
    let prophet = Prophet::builder()
        .scenario_sql("figure2", &figure2_coarse_sql(0.05))
        .unwrap()
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: 8,
            threads: 2,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    prophet
        .submit(JobSpec::sweep("figure2"))
        .unwrap()
        .wait()
        .unwrap();
    prophet.scheduler().wait_idle();

    let t = prophet.telemetry().trace;
    assert!(t.events_recorded > 0, "the service tier traces by default");
    assert!(
        t.events_recorded < TraceConfig::DEFAULT_RING_CAPACITY as u64,
        "{} events must fit the default ring",
        t.events_recorded
    );
    assert_eq!(t.events_dropped, 0);
    assert_eq!(prophet.trace_events().len() as u64, t.events_recorded);
}

/// A cancelled job's trace contains the cancel marker, and no chunk
/// event of that job is stamped after it: every chunk anchors its events
/// at a clock read taken *before* its cancel-flag check, and the marker
/// is stamped *after* the flag is stored, so sorted by stamp the cancel
/// is last among them.
#[test]
fn cancelled_job_trace_shows_cancel_after_all_chunk_work() {
    let prophet = service(1, TraceConfig::ring());
    let handle = prophet.submit(JobSpec::sweep("pricing")).unwrap();

    let mut cancelled = false;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(_) => {
                if !cancelled {
                    cancelled = true;
                    handle.cancel();
                }
            }
            JobEvent::Cancelled | JobEvent::Final(_) => break,
            JobEvent::Failed(err) => panic!("{err:?}"),
        }
    }
    assert!(cancelled, "sweep must stream at least one chunk");

    let events = handle.trace();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.job == handle.id()));
    let cancel = events
        .iter()
        .find(|e| e.kind == TraceEventKind::JobCancel)
        .expect("cancel marker recorded");
    for event in &events {
        if matches!(
            event.kind,
            TraceEventKind::ChunkEnqueue | TraceEventKind::ChunkDequeue | TraceEventKind::ChunkRun
        ) {
            assert!(
                event.nanos <= cancel.nanos,
                "{} (chunk {}) stamped {} ns after job_cancel",
                event.kind.name(),
                event.chunk,
                event.nanos - cancel.nanos
            );
        }
    }
}

/// The Chrome exporter output is structurally sound: a JSON array with
/// per-worker `thread_name` metadata, complete (`X`) spans, and (`i`)
/// instants, with braces and brackets balanced.
#[test]
fn chrome_export_is_structurally_sound() {
    let prophet = service(2, TraceConfig::ring());
    run_sweep(&prophet);

    let json = chrome_trace_json(&prophet.trace_events());
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    assert!(json.contains("\"thread_name\""), "worker rows named");
    assert!(json.contains("\"ph\":\"X\""), "spans present");
    assert!(json.contains("\"ph\":\"i\""), "instants present");
    assert!(json.contains("\"name\":\"chunk_run\""));
    assert!(json.contains("\"name\":\"job_finish\""));
    let balance = |open: char, close: char| {
        json.chars().filter(|&c| c == open).count() == json.chars().filter(|&c| c == close).count()
    };
    assert!(balance('{', '}'), "braces balanced");
    assert!(balance('[', ']'), "brackets balanced");
}

/// Tracing observes, never decides: the same sweep with the recorder
/// off, ringed, and ringed-tiny (constant overwrite pressure) lands on
/// identical answers and identical work counters.
#[test]
fn tracing_configuration_never_changes_answers() {
    let configs = [
        TraceConfig::Off,
        TraceConfig::ring(),
        // A 16-slot ring drops almost everything — overwrite pressure
        // must not leak into scheduling either.
        TraceConfig::Ring { capacity: 16 },
    ];
    let reports: Vec<OfflineReport> = configs
        .iter()
        .map(|&trace| run_sweep(&service(2, trace)))
        .collect();
    for report in &reports[1..] {
        assert_eq!(report.answers, reports[0].answers);
        assert_eq!(report.best, reports[0].best);
        assert_eq!(
            report.metrics.points_simulated,
            reports[0].metrics.points_simulated
        );
        assert_eq!(
            report.metrics.worlds_simulated,
            reports[0].metrics.worlds_simulated
        );
    }
}

/// A cancel that lands *inside* the fused match+remap phase: the chunks
/// that already ran still publish their hits (complete entries, in batch
/// order), every other claim is released, and the job ends `Cancelled`.
///
/// One worker, one-point chunks: the driver runs the job's chunks itself,
/// in order, so `chunks_done` passing the probe phase's chunk count *is*
/// "the fused phase has begun" — the cancel is sent at that edge plus a
/// margin, with hundreds of fused chunks still queued. (Should the cancel
/// still lose the race to the end of the phase, the round is retried.)
#[test]
fn cancel_mid_fused_phase_publishes_completed_hits_and_releases_the_rest() {
    const WORLDS: usize = 8;
    const MARGIN: u64 = 20;
    let point = |current: i64, p1: i64, p2: i64, feature: i64| {
        ParamPoint::from_pairs([
            ("current", current),
            ("purchase1", p1),
            ("purchase2", p2),
            ("feature", feature),
        ])
    };
    // Weeks before either feature release: moving the release date is an
    // identity mapping, so every query point hits a warm source.
    let grid = |feature: i64| -> Vec<ParamPoint> {
        let mut points = Vec::new();
        for current in 0..12 {
            for p1 in (0..32).step_by(4) {
                for p2 in (0..32).step_by(4) {
                    points.push(point(current, p1, p2, feature));
                }
            }
        }
        points
    };
    let (warm, query) = (grid(12), grid(36));
    let n = query.len() as u64;
    let config = EngineConfig {
        worlds_per_point: WORLDS,
        ..EngineConfig::default()
    };

    for _round in 0..5 {
        let prophet = Prophet::builder()
            .scenario("figure2", Scenario::figure2().unwrap())
            .registry(demo_registry())
            .config(config)
            .scheduler(SchedulerConfig {
                workers: 1,
                chunk_points: 1,
                ..SchedulerConfig::default()
            })
            .build()
            .unwrap();
        let warm_up = prophet
            .submit(JobSpec::points("figure2", warm.clone()))
            .unwrap();
        warm_up.wait().unwrap();
        let warm_entries = prophet.basis_len("figure2").unwrap() as u64;
        assert_eq!(warm_entries, n);

        let handle = prophet
            .submit(JobSpec::points("figure2", query.clone()))
            .unwrap();
        // `n` probe chunks, then the fused phase's chunks.
        while handle.progress().chunks_done < n + MARGIN {
            std::thread::yield_now();
        }
        handle.cancel();
        let mut terminal = None;
        for event in handle.events() {
            match event {
                JobEvent::Chunk(_) => panic!("a single batch streams only once complete"),
                other => terminal = Some(other),
            }
        }
        prophet.scheduler().wait_idle();
        match terminal {
            Some(JobEvent::Cancelled) => {}
            Some(JobEvent::Final(_)) => continue, // the phase outran the cancel
            other => panic!("unexpected terminal event {other:?}"),
        }

        // Completed hits were published; the rest were released.
        let progress = handle.progress();
        assert!(progress.cancelled && progress.finished);
        let published = prophet.basis_len("figure2").unwrap() as u64 - warm_entries;
        assert!(
            (MARGIN..n).contains(&published),
            "{published} of {n} hits published"
        );
        assert_eq!(progress.points_done, published);
        assert_eq!(progress.metrics.points_mapped, published);
        assert_eq!(progress.metrics.points_simulated, 0);
        assert_eq!(prophet.telemetry().inflight_claims, 0, "claims released");
        let has = |kind: TraceEventKind| handle.trace().iter().any(|e| e.kind == kind);
        assert!(has(TraceEventKind::PhaseSnapshot) && has(TraceEventKind::PhaseScan));
        assert!(
            has(TraceEventKind::PhasePublish),
            "hits published on cancel"
        );
        assert!(!has(TraceEventKind::PhaseSimulate), "nothing was a miss");

        // Published in batch order, and every entry is complete: exactly
        // what an undisturbed engine computes for that point.
        let engine = prophet.engine("figure2").unwrap();
        let reference =
            Engine::new(&Scenario::figure2().unwrap(), demo_registry(), config).unwrap();
        reference.evaluate_batch(&warm).unwrap();
        for (i, q) in query.iter().enumerate() {
            let stored = engine.basis_store().get_exact(q, WORLDS);
            assert_eq!(stored.is_some(), (i as u64) < published, "{q}");
            if let Some(stored) = stored {
                let (direct, _) = reference.evaluate(q).unwrap();
                assert_eq!(&*stored, &**direct.shared_samples(), "{q}");
            }
        }

        // The released points are free to be claimed again.
        let again = prophet
            .submit(JobSpec::points("figure2", query.clone()))
            .unwrap();
        let results = again.wait().unwrap().into_points().unwrap();
        let cached = results
            .iter()
            .filter(|(_, outcome)| *outcome == EvalOutcome::Cached)
            .count() as u64;
        assert_eq!(cached, published);
        assert!(results[published as usize..]
            .iter()
            .all(|(_, outcome)| matches!(outcome, EvalOutcome::Mapped { .. })));
        return;
    }
    panic!("five rounds in a row finished their fused phase before the cancel landed");
}
