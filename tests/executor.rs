//! Integration tests for the batched evaluation executor and the shared
//! store's in-flight deduplication, exercised through the service facade:
//!
//! * mixed hit/miss batches resolve each point with the right outcome,
//! * N sessions hammering one cold point perform exactly one simulation,
//! * eviction churn never drops a pending in-flight entry,
//! * clearing the store mid-simulation wakes waiters and re-simulates,
//! * batch evaluation is bit-identical to sequential evaluation, and
//! * the offline sweep does identical work at `threads = 1` and `= 4`.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use fuzzy_prophet::prelude::*;
use prophet_fingerprint::{CorrelationDetector, Fingerprint};
use prophet_mc::{ColumnSamples, SharedBasisStore, TryClaim};
use prophet_models::demo_registry;

fn figure2_service(worlds: usize, threads: usize) -> Prophet {
    Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: worlds,
            threads,
            ..EngineConfig::default()
        })
        .build()
        .unwrap()
}

fn demo_point(current: i64, p1: i64, p2: i64, feature: i64) -> ParamPoint {
    ParamPoint::from_pairs([
        ("current", current),
        ("purchase1", p1),
        ("purchase2", p2),
        ("feature", feature),
    ])
}

#[test]
fn batch_with_mixed_hit_and_miss_points() {
    let prophet = figure2_service(40, 2);
    let engine = prophet.engine("figure2").unwrap();

    // Warm exactly one point, then batch: that point (exact cache), a
    // correlated neighbour (fingerprint map), and an unrelated point
    // (simulation).
    let warm = demo_point(5, 16, 36, 12);
    let mappable = demo_point(5, 16, 36, 36); // pre-release feature move
    let far = demo_point(50, 0, 4, 44);
    engine.evaluate(&warm).unwrap();
    let before = engine.metrics();

    let results = engine
        .evaluate_batch(&[warm.clone(), mappable.clone(), far.clone()])
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].1, EvalOutcome::Cached);
    assert!(
        matches!(&results[1].1, EvalOutcome::Mapped { from, .. } if *from == warm),
        "{:?}",
        results[1].1
    );
    assert_eq!(results[2].1, EvalOutcome::Simulated);

    let m = engine.metrics().since(&before);
    assert_eq!(m.points_cached, 1);
    assert_eq!(m.points_mapped, 1);
    assert_eq!(m.points_simulated, 1);
    assert_eq!(m.batch_probes, 2, "only the two cold points were probed");
    assert_eq!(m.worlds_simulated, 40, "only the far point paid simulation");
}

#[test]
fn n_sessions_hammering_one_cold_point_simulate_once() {
    const SESSIONS: usize = 6;
    let prophet = Arc::new(figure2_service(60, 1));
    let point = demo_point(20, 16, 36, 12);
    let barrier = Arc::new(Barrier::new(SESSIONS));

    let handles: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let prophet = Arc::clone(&prophet);
            let point = point.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let engine = prophet.engine("figure2").unwrap();
                barrier.wait();
                let (samples, outcome) = engine.evaluate(&point).unwrap();
                (samples.samples("demand").unwrap().to_vec(), outcome)
            })
        })
        .collect();

    // Every session evaluates on the scenario's one engine, so each
    // thread counts its own outcome.
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let count = |want: EvalOutcome| outcomes.iter().filter(|(_, o)| *o == want).count() as u64;
    let (total_simulated, total_cached) =
        (count(EvalOutcome::Simulated), count(EvalOutcome::Cached));
    assert_eq!(
        total_simulated, 1,
        "exactly one session simulates the cold point"
    );
    assert_eq!(
        total_cached,
        (SESSIONS - 1) as u64,
        "every other session reuses it"
    );
    for (samples, _) in &outcomes {
        assert_eq!(
            samples, &outcomes[0].0,
            "all sessions observe identical samples"
        );
    }
    let stats = prophet.basis_stats("figure2").unwrap();
    let m = prophet.engine("figure2").unwrap().metrics();
    assert_eq!(total_simulated * 60, m.worlds_simulated);
    assert!(
        stats.inflight_waits == m.inflight_waits,
        "store-level and engine-level wait counts agree"
    );
}

#[test]
fn eviction_churn_never_drops_a_pending_entry() {
    // Engine-level version of the store unit test: claim a point, fill the
    // tiny store past capacity with unrelated evaluations, then let the
    // waiter collect the claimed point's result.
    let prophet = Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: 16,
            basis_capacity: 2,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    let engine = prophet.engine("figure2").unwrap();
    let store = engine.basis_store().clone();
    let pending = demo_point(10, 16, 36, 12);

    let TryClaim::Owner(guard) = store.try_claim(&pending, 16) else {
        panic!("cold point must be claimable");
    };
    let TryClaim::Pending(handle) = store.try_claim(&pending, 16) else {
        panic!("second claim must see the in-flight entry");
    };

    // Churn: four unrelated evaluations through a 2-entry store.
    for current in [0, 2, 40, 46] {
        engine.evaluate(&demo_point(current, 0, 4, 44)).unwrap();
    }
    assert!(store.len() <= 2, "capacity bound holds during churn");
    assert_eq!(store.inflight_len(), 1, "the claim survived every eviction");

    // The owner publishes; the waiter gets the samples even though the
    // store is full of newer entries.
    let samples = Arc::new(std::collections::HashMap::from([(
        "demand".to_owned(),
        vec![1.0; 16],
    )]));
    assert!(guard.complete(Default::default(), samples, 16, true));
    let got = handle.wait().expect("waiter must not starve");
    assert_eq!(got.worlds(), 16);
    assert_eq!(got.materialize(&pending)["demand"], vec![1.0; 16]);
}

#[test]
fn clear_during_inflight_simulation_wakes_and_resimulates() {
    let prophet = figure2_service(24, 1);
    let engine = Arc::new(prophet.engine("figure2").unwrap());
    let store = engine.basis_store().clone();
    let point = demo_point(15, 16, 36, 12);

    // Main thread owns the simulation.
    let TryClaim::Owner(guard) = store.try_claim(&point, 24) else {
        panic!("cold point must be claimable");
    };

    // A second session evaluates the same point: it either waits on the
    // owner, gets cancelled by the clear, and re-simulates — or arrives
    // after the clear and simulates directly. Both paths must terminate
    // with real samples.
    let worker = {
        let engine = Arc::clone(&engine);
        let point = point.clone();
        std::thread::spawn(move || {
            let (samples, outcome) = engine.evaluate(&point).unwrap();
            (samples.samples("demand").unwrap().to_vec(), outcome)
        })
    };

    // Clear while the point is in flight, then publish stale results.
    std::thread::sleep(std::time::Duration::from_millis(50));
    store.clear();
    let stale = Arc::new(std::collections::HashMap::from([(
        "demand".to_owned(),
        vec![-1.0; 24],
    )]));
    assert!(
        !guard.complete(Default::default(), stale, 24, true),
        "completion after clear must report the discard"
    );

    let (samples, outcome) = worker.join().expect("waiter must not block forever");
    assert_eq!(
        outcome,
        EvalOutcome::Simulated,
        "the waiter re-simulated after the cancel"
    );
    assert!(
        samples.iter().all(|&v| v >= 0.0),
        "stale pre-clear samples must not leak to the waiter"
    );
    // And the store holds the fresh simulation, not the stale publish.
    let (_, second) = engine.evaluate(&point).unwrap();
    assert_eq!(second, EvalOutcome::Cached);
}

#[test]
fn batch_evaluation_is_bit_identical_to_sequential() {
    // Points whose in-batch fingerprint relations are identity maps under
    // common random numbers: batch evaluation may simulate where
    // sequential evaluation mapped, but the samples must come out
    // bit-identical either way.
    let points = vec![
        demo_point(5, 16, 36, 12),
        demo_point(5, 16, 36, 36), // identity-maps from the first
        demo_point(12, 8, 24, 12), // unrelated: simulates in both modes
        demo_point(5, 16, 36, 12), // duplicate within the batch
    ];

    let sequential = figure2_service(48, 1).engine("figure2").unwrap();
    let seq_results: Vec<_> = points
        .iter()
        .map(|p| sequential.evaluate(p).unwrap())
        .collect();

    for threads in [1, 4] {
        let batched = figure2_service(48, threads).engine("figure2").unwrap();
        let batch_results = batched.evaluate_batch(&points).unwrap();
        assert_eq!(batch_results.len(), seq_results.len());
        for (i, ((seq, _), (bat, _))) in seq_results.iter().zip(&batch_results).enumerate() {
            for col in ["demand", "capacity", "overload"] {
                assert_eq!(
                    seq.samples(col),
                    bat.samples(col),
                    "threads={threads} point #{i} column {col}"
                );
            }
        }
    }
}

#[test]
fn batch_evaluation_is_deterministic_across_thread_counts() {
    // Includes an offset-mapped pair (purchase crossing the evaluated
    // week): vs *sequential* evaluation such samples agree only to
    // float-rounding (offset application reorders the capacity sum), but
    // across thread counts the batch pipeline makes identical
    // mapped-vs-simulated decisions, so its output is bit-identical.
    let points = vec![
        demo_point(10, 4, 36, 12),
        demo_point(10, 16, 36, 12), // offset-maps from the first, sequentially
        demo_point(5, 16, 36, 36),
        demo_point(50, 0, 4, 44),
    ];
    let single = figure2_service(48, 1).engine("figure2").unwrap();
    let quad = figure2_service(48, 4).engine("figure2").unwrap();
    let r1 = single.evaluate_batch(&points).unwrap();
    let r4 = quad.evaluate_batch(&points).unwrap();
    for (i, ((a, oa), (b, ob))) in r1.iter().zip(&r4).enumerate() {
        assert_eq!(oa, ob, "point #{i} outcome");
        for col in ["demand", "capacity", "overload"] {
            assert_eq!(a.samples(col), b.samples(col), "point #{i} column {col}");
        }
    }
    assert_eq!(
        single.metrics().worlds_simulated,
        quad.metrics().worlds_simulated
    );
}

#[test]
fn offline_sweep_does_identical_work_at_one_and_four_threads() {
    // Coarse grid, generous threshold so a best point exists.
    let scenario_src = "\
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 16;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 16;
DECLARE PARAMETER @feature AS SET (12,36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.9
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2";

    let run = |threads: usize| {
        let prophet = Prophet::builder()
            .scenario_sql("sweep", scenario_src)
            .unwrap()
            .registry(demo_registry())
            .config(EngineConfig {
                worlds_per_point: 16,
                threads,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        prophet
            .submit(JobSpec::sweep("sweep"))
            .unwrap()
            .wait()
            .unwrap()
            .into_sweep()
            .unwrap()
    };

    let single = run(1);
    let parallel = run(4);
    assert_eq!(
        single.metrics.worlds_simulated, parallel.metrics.worlds_simulated,
        "thread count must not change how much simulation runs"
    );
    assert_eq!(
        single.metrics.points_simulated,
        parallel.metrics.points_simulated
    );
    let best_single = single.best.as_ref().expect("a feasible plan exists");
    let best_parallel = parallel.best.as_ref().expect("a feasible plan exists");
    assert_eq!(best_single.point, best_parallel.point, "identical answer");
    assert_eq!(
        best_single.constraint_values,
        best_parallel.constraint_values
    );
}

/// Index-enabled eviction churn: once a candidate is evicted from the
/// bounded entry table, the summary index must stop serving it — the next
/// scan falls back to the remaining sources (or misses), identically with
/// and without the index.
#[test]
fn index_never_serves_an_evicted_candidate() {
    let detector = CorrelationDetector::default();
    let columns = ["y".to_owned()];
    let fp = |values: &[f64]| {
        HashMap::from([("y".to_owned(), Fingerprint::from_values(values.to_vec()))])
    };
    let samples = |v: f64| Arc::new(HashMap::from([("y".to_owned(), vec![v])]));
    let base: Vec<f64> = (0..16).map(|i| ((i * 7 % 13) as f64) - 5.0).collect();
    let shifted: Vec<f64> = base.iter().map(|v| v + 2.0).collect();
    let unrelated: Vec<f64> = (0..16).map(|i| (i * i * 31 % 101) as f64).collect();

    let store = SharedBasisStore::new(2);
    let victim = ParamPoint::from_pairs([("c", 0i64)]);
    store.insert(victim.clone(), fp(&base), samples(0.0), 10, true);
    let probes = vec![fp(&base)];
    let (hits, _) = store.find_correlated_batch_scan(&probes, &columns, &detector, 1, true);
    assert_eq!(
        hits[0].as_ref().map(|h| &h.source),
        Some(&victim),
        "warm index serves the candidate"
    );

    // Churn two newer matchable entries through the 2-entry store: the
    // oldest (our exact-match candidate) is evicted.
    store.insert(
        ParamPoint::from_pairs([("c", 1i64)]),
        fp(&shifted),
        samples(1.0),
        10,
        true,
    );
    store.insert(
        ParamPoint::from_pairs([("c", 2i64)]),
        fp(&unrelated),
        samples(2.0),
        10,
        true,
    );
    assert!(store.get_exact(&victim, 1).is_none(), "victim evicted");

    for use_index in [true, false] {
        let (hits, _) =
            store.find_correlated_batch_scan(&probes, &columns, &detector, 1, use_index);
        let hit = hits[0].as_ref().expect("the offset relative still matches");
        assert_ne!(
            hit.source, victim,
            "use_index={use_index}: evicted candidate must not be served"
        );
        assert_eq!(hit.source, ParamPoint::from_pairs([("c", 1i64)]));
    }
}

/// Index-enabled clear race: a completion that lost against `clear()` is
/// discarded — the summary index must not retain the cleared candidate
/// either, so post-clear scans miss until something real is published.
#[test]
fn index_never_serves_a_cleared_candidate() {
    let detector = CorrelationDetector::default();
    let columns = ["y".to_owned()];
    let base: Vec<f64> = (0..16).map(|i| (i as f64).sin() * 10.0).collect();
    let fingerprints = HashMap::from([("y".to_owned(), Fingerprint::from_values(base.clone()))]);
    let samples = Arc::new(HashMap::from([("y".to_owned(), vec![1.0])]));
    let probes = vec![fingerprints.clone()];

    let store = SharedBasisStore::new(8);
    let p = ParamPoint::from_pairs([("c", 0i64)]);
    let TryClaim::Owner(guard) = store.try_claim(&p, 10) else {
        panic!("cold point must be claimable");
    };
    store.clear();
    assert!(
        !guard.complete(fingerprints.clone(), Arc::clone(&samples), 10, true),
        "completion after clear reports the discard"
    );
    for use_index in [true, false] {
        let (hits, _) =
            store.find_correlated_batch_scan(&probes, &columns, &detector, 1, use_index);
        assert!(
            hits[0].is_none(),
            "use_index={use_index}: cleared candidate must not be served"
        );
    }

    // A fresh publish is served again, through the rebuilt index.
    let TryClaim::Owner(fresh) = store.try_claim(&p, 10) else {
        panic!("expected fresh owner after clear");
    };
    assert!(fresh.complete(fingerprints, samples, 10, true));
    let (hits, _) = store.find_correlated_batch_scan(&probes, &columns, &detector, 1, true);
    assert_eq!(hits[0].as_ref().map(|h| &h.source), Some(&p));
}

/// Engine-level churn through a tiny store: a point sequence that mixes
/// mappings, misses, and evictions must behave identically with the index
/// on and off — the exhaustive scan re-reads the live entry table every
/// time, so any stale index entry would surface as a divergent outcome.
#[test]
fn engine_eviction_churn_is_identical_with_and_without_index() {
    let build = |match_index: bool| {
        Prophet::builder()
            .scenario("figure2", Scenario::figure2().unwrap())
            .registry(demo_registry())
            .config(EngineConfig {
                worlds_per_point: 16,
                basis_capacity: 3,
                match_index,
                ..EngineConfig::default()
            })
            .build()
            .unwrap()
            .engine("figure2")
            .unwrap()
    };
    let indexed = build(true);
    let exhaustive = build(false);
    // Interleave a mappable family (same week, shifting purchases and
    // feature dates) with unrelated points, overflowing the 3-entry store
    // so sources get evicted and re-simulated mid-sequence.
    let sweep = [
        demo_point(10, 4, 36, 12),
        demo_point(10, 16, 36, 12), // offset-maps
        demo_point(10, 24, 36, 36), // maps again
        demo_point(50, 0, 4, 44),   // unrelated: simulates
        demo_point(40, 0, 4, 44),   // unrelated: simulates (evicts)
        demo_point(10, 32, 36, 12), // family source may be gone by now
        demo_point(10, 4, 36, 12),  // original point again
        demo_point(50, 0, 4, 44),
    ];
    for (i, p) in sweep.iter().enumerate() {
        let (si, oi) = indexed.evaluate(p).unwrap();
        let (se, oe) = exhaustive.evaluate(p).unwrap();
        assert_eq!(oi, oe, "step #{i} at {p}");
        for col in ["demand", "capacity", "overload"] {
            assert_eq!(si.samples(col), se.samples(col), "step #{i} column {col}");
        }
        assert!(
            indexed.basis_store().resident_len() <= 3,
            "the budget of 3 full-depth records holds under churn"
        );
    }
    let mi = indexed.metrics();
    let me = exhaustive.metrics();
    assert_eq!(mi.points_simulated, me.points_simulated);
    assert_eq!(mi.points_mapped, me.points_mapped);
    assert_eq!(me.candidates_pruned, 0);
}

#[test]
fn prefetch_drain_and_refresh_go_through_the_executor() {
    // The rerouted online paths: a refresh batches all weeks, a prefetch
    // tick batches the drained guide points across all weeks. Behaviour
    // (counts, warm reuse) must match the sequential semantics.
    let prophet = figure2_service(8, 2);
    let mut session = prophet.online("figure2").unwrap();
    session.refresh().unwrap();
    session.set_param("purchase2", 36).unwrap();
    let done = session.prefetch_tick(8).unwrap();
    assert_eq!(done, 2, "both domain neighbours drained in one batch");
    let report = session.set_param("purchase2", 40).unwrap();
    assert_eq!(report.weeks_simulated, 0, "prefetched slider is fully warm");
    let m = session.metrics();
    assert!(m.batch_probes > 0, "session work went through the planner");
}

/// Samples travel by reference count: what a caller gets back for a
/// simulated point *is* the store's entry (first reply or cached,
/// blocking or scheduled), and deepening a partial entry replaces it
/// instead of growing it in place. A mapped point's first reply is the
/// store's recipe record: its first samples read rebuilds once, and a
/// later cached read rebuilds the same bits, counting one more rebuild.
#[test]
fn results_share_samples_with_the_store() {
    let prophet = figure2_service(40, 2);
    let engine = prophet.engine("figure2").unwrap();
    let store = engine.basis_store();
    let entry = |p: &ParamPoint| store.get_exact(p, 40).expect("published");

    let warm = demo_point(5, 16, 36, 12);
    let mappable = demo_point(5, 16, 36, 36);
    let far = demo_point(50, 0, 4, 44);
    let (simulated, outcome) = engine.evaluate(&warm).unwrap();
    assert_eq!(outcome, EvalOutcome::Simulated);
    assert!(Arc::ptr_eq(simulated.shared_samples(), &entry(&warm)));
    let (mapped, outcome) = engine.evaluate(&mappable).unwrap();
    assert!(matches!(outcome, EvalOutcome::Mapped { .. }), "{outcome:?}");
    let rebuilds = || store.stats_snapshot().rematerializations;
    let bits = |samples: &ColumnSamples| {
        let mut bits: Vec<(String, Vec<u64>)> = (samples.iter())
            .map(|(c, xs)| (c.clone(), xs.iter().map(|x| x.to_bits()).collect()))
            .collect();
        bits.sort();
        bits
    };
    let first = Arc::clone(mapped.shared_samples());
    assert_eq!(
        rebuilds(),
        1,
        "the first reply is the store's recipe record"
    );
    let rebuilt = entry(&mappable);
    assert!(!Arc::ptr_eq(&first, &rebuilt), "the store keeps a recipe");
    assert_eq!(bits(&rebuilt), bits(&first), "the published bits");
    assert_eq!(rebuilds(), 2);

    // The scheduled pipeline: two cached points and a fresh simulation.
    let results = prophet
        .submit(JobSpec::points(
            "figure2",
            vec![warm.clone(), mappable.clone(), far.clone()],
        ))
        .unwrap()
        .wait()
        .unwrap()
        .into_points()
        .unwrap();
    assert_eq!(results[0].1, EvalOutcome::Cached);
    assert_eq!(results[1].1, EvalOutcome::Cached);
    assert_eq!(results[2].1, EvalOutcome::Simulated);
    for (point, (set, _)) in [&warm, &mappable, &far].into_iter().zip(&results) {
        if point == &mappable {
            let before = rebuilds();
            assert_eq!(bits(set.shared_samples()), bits(&first), "{point}");
            assert_eq!(rebuilds(), before + 1, "{point}: one rebuild");
        } else {
            assert!(Arc::ptr_eq(set.shared_samples(), &entry(point)), "{point}");
        }
    }

    // The progressive-refinement path deepens a partial entry the same
    // way: the 20-world entry a reader may still hold stays 20 worlds,
    // and the full-depth entry that replaces it starts with that prefix.
    let mut session = prophet.online("figure2").unwrap();
    let loose = session.progressive_expect("demand", 30, 1e9, 20).unwrap();
    assert_eq!(loose.worlds_used, 20);
    let point = session.sliders().with("current", 30);
    let partial = store.get_exact(&point, 1).expect("partial entry published");
    assert_eq!(partial["demand"].len(), 20);
    let tight = session.progressive_expect("demand", 30, 1e-9, 20).unwrap();
    assert_eq!(tight.worlds_used, 20, "only the remainder is fresh work");
    assert_eq!(
        partial["demand"].len(),
        20,
        "the old entry never grew in place"
    );
    let full = entry(&point);
    assert_eq!(full["demand"].len(), 40);
    assert_eq!(full["demand"][..20], partial["demand"][..]);
}
