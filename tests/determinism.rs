//! Determinism guarantees across the whole stack.
//!
//! Fingerprinting is only sound if "a fixed sequence of random inputs"
//! (§2) reproducibly drives every model: these tests pin the contract at
//! every layer — raw generators, VG models, the executor, the engine, and
//! both user-facing modes.

use fuzzy_prophet::prelude::*;
use prophet_data::Value;
use prophet_models::{demo_registry, CapacityModel, DemandModel};
use prophet_vg::rng::{Rng64, SeedSequence, Xoshiro256StarStar};
use prophet_vg::SeedManager;

#[test]
fn generators_are_stable_across_constructions() {
    let take = || {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xDEC0DE);
        (0..1000).map(|_| rng.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(take(), take());
}

#[test]
fn canonical_fingerprint_seeds_never_change() {
    // These values pin the canonical fingerprint sequence. If this test
    // fails, every stored fingerprint in every deployment just became
    // garbage — the constant must never change.
    let seq = SeedSequence::fingerprint_default(4);
    assert_eq!(
        seq.seeds(),
        &[
            3_220_344_897_584_144_929,
            10_671_001_446_143_789_449,
            15_948_751_857_155_702_275,
            15_830_066_176_122_234_880,
        ]
    );
}

#[test]
fn models_are_pure_functions_of_seed_and_params() {
    let demand = DemandModel::default();
    let capacity = CapacityModel::default();
    for seed in [1u64, 42, 0xFFFF_FFFF] {
        let mut a = Xoshiro256StarStar::seed_from_u64(seed);
        let mut b = Xoshiro256StarStar::seed_from_u64(seed);
        assert_eq!(
            demand.demand_at(20, 12, &mut a),
            demand.demand_at(20, 12, &mut b)
        );
        let mut a = Xoshiro256StarStar::seed_from_u64(seed);
        let mut b = Xoshiro256StarStar::seed_from_u64(seed);
        assert_eq!(
            capacity.trajectory(52, 8, 24, &mut a).unwrap(),
            capacity.trajectory(52, 8, 24, &mut b).unwrap()
        );
    }
}

#[test]
fn registry_invocations_are_deterministic() {
    let registry = demo_registry();
    let seeds = SeedManager::new(7);
    let run = || {
        let mut rng = seeds.rng_for(5, "DemandModel", 0);
        registry
            .invoke("DemandModel", &[Value::Int(10), Value::Int(12)], &mut rng)
            .unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn engine_results_are_identical_across_engines() {
    let build = || {
        Engine::new(
            &Scenario::figure2().unwrap(),
            demo_registry(),
            EngineConfig {
                worlds_per_point: 50,
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };
    let point = ParamPoint::from_pairs([
        ("current", 20i64),
        ("purchase1", 8),
        ("purchase2", 24),
        ("feature", 12),
    ]);
    let (a, _) = build().evaluate(&point).unwrap();
    let (b, _) = build().evaluate(&point).unwrap();
    assert_eq!(a.samples("demand"), b.samples("demand"));
    assert_eq!(a.samples("capacity"), b.samples("capacity"));
    assert_eq!(a.samples("overload"), b.samples("overload"));
}

#[test]
fn engine_thread_count_does_not_change_results() {
    let point = ParamPoint::from_pairs([
        ("current", 30i64),
        ("purchase1", 16),
        ("purchase2", 36),
        ("feature", 36),
    ]);
    let eval = |threads: usize| {
        let engine = Engine::new(
            &Scenario::figure2().unwrap(),
            demo_registry(),
            EngineConfig {
                worlds_per_point: 64,
                threads,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let (s, _) = engine.evaluate(&point).unwrap();
        (
            s.samples("demand").unwrap().to_vec(),
            s.samples("capacity").unwrap().to_vec(),
        )
    };
    assert_eq!(eval(1), eval(3));
    assert_eq!(eval(1), eval(8));
}

/// Metamorphic: changing a parameter never changes a column whose call
/// sites do not mention it. Every VG call samples its own stream, derived
/// from `(world, function, call index)` alone, so with fingerprints off —
/// every point simulated — Figure 2 points that differ only in `@feature`
/// draw bit-identical `capacity` samples, and points that differ only in
/// `@purchase1` / `@purchase2` bit-identical `demand` samples, on both
/// execution tiers.
#[test]
fn a_parameter_never_moves_a_column_whose_calls_do_not_mention_it() {
    let bits = |samples: &[f64]| samples.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for tier in [ExecTier::Scalar, ExecTier::Columnar] {
        let engine = Engine::new(
            &Scenario::figure2().unwrap(),
            demo_registry(),
            EngineConfig {
                worlds_per_point: 64,
                fingerprints_enabled: false,
                tier,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let column = |current: i64, (p1, p2): (i64, i64), feature: i64, name: &str| {
            let point = ParamPoint::from_pairs([
                ("current", current),
                ("purchase1", p1),
                ("purchase2", p2),
                ("feature", feature),
            ]);
            let (set, outcome) = engine.evaluate(&point).unwrap();
            assert!(
                !matches!(outcome, EvalOutcome::Mapped { .. }),
                "{tier:?} {point:?}"
            );
            bits(set.samples(name).unwrap())
        };
        let purchases = [(0, 0), (8, 24), (20, 4), (52, 52)];
        for current in [3, 30, 52] {
            for &pair in &purchases {
                let capacity = column(current, pair, 12, "capacity");
                for feature in [36, 44] {
                    assert_eq!(
                        column(current, pair, feature, "capacity"),
                        capacity,
                        "{tier:?}: @feature moved capacity at week {current}, purchases {pair:?}"
                    );
                }
            }
            for feature in [12, 36, 44] {
                let demand = column(current, purchases[0], feature, "demand");
                for &pair in &purchases[1..] {
                    assert_eq!(
                        column(current, pair, feature, "demand"),
                        demand,
                        "{tier:?}: purchases {pair:?} moved demand at week {current}"
                    );
                }
            }
        }
        // Not vacuous: each column does move with the parameters it names.
        assert_ne!(
            column(40, (0, 0), 12, "demand"),
            column(40, (0, 0), 44, "demand")
        );
        assert_ne!(
            column(52, (0, 0), 12, "capacity"),
            column(52, (52, 52), 12, "capacity")
        );
    }
}

#[test]
fn match_index_pruning_is_thread_count_independent() {
    // The indexed match scan prunes in fixed-width waves against completed
    // waves only, so both the chosen sources *and* the scanned/pruned
    // accounting must be identical at every thread count.
    let eval = |threads: usize| {
        let engine = Engine::new(
            &Scenario::figure2().unwrap(),
            demo_registry(),
            EngineConfig {
                worlds_per_point: 32,
                threads,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // A batch per week: mappable neighbours (pre-release feature
        // moves, purchase shifts) plus unrelated points, so the scans mix
        // hits, ties, and misses.
        let mut outcomes = Vec::new();
        for week in [5i64, 10, 15] {
            let batch: Vec<ParamPoint> = vec![
                ParamPoint::from_pairs([
                    ("current", week),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", week),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 36),
                ]),
                ParamPoint::from_pairs([
                    ("current", week),
                    ("purchase1", 4),
                    ("purchase2", 36),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 52 - week),
                    ("purchase1", 0),
                    ("purchase2", 4),
                    ("feature", 44),
                ]),
            ];
            for (samples, outcome) in engine.evaluate_batch(&batch).unwrap() {
                outcomes.push((
                    samples.point().clone(),
                    outcome,
                    samples.samples("demand").map(<[f64]>::to_vec),
                    samples.samples("capacity").map(<[f64]>::to_vec),
                ));
            }
        }
        (outcomes, engine.metrics())
    };

    let (outcomes_1, metrics_1) = eval(1);
    let (outcomes_8, metrics_8) = eval(8);
    assert_eq!(
        outcomes_1, outcomes_8,
        "chosen sources and samples must not depend on the thread count"
    );
    assert!(
        metrics_1.candidates_pruned > 0,
        "the sweep must exercise the index"
    );
    assert_eq!(
        metrics_1.candidates_pruned, metrics_8.candidates_pruned,
        "pruned accounting must not depend on the thread count"
    );
    assert_eq!(
        metrics_1.candidates_scanned, metrics_8.candidates_scanned,
        "scanned accounting must not depend on the thread count"
    );
    assert_eq!(metrics_1.points_mapped, metrics_8.points_mapped);
    assert_eq!(metrics_1.worlds_simulated, metrics_8.worlds_simulated);
}

/// The work counters of a metrics snapshot — everything but the clocks
/// and latency histograms.
fn work_counters(m: &EngineMetrics) -> [u64; 15] {
    [
        m.points_cached,
        m.points_mapped,
        m.points_simulated,
        m.worlds_simulated,
        m.probe_evaluations,
        m.vector_walks,
        m.columnar_kernels,
        m.column_fallbacks,
        m.column_gathers,
        m.probe_call_sites,
        m.candidates_scanned,
        m.candidates_pruned,
        m.window_hits,
        m.inflight_waits,
        m.batch_probes,
    ]
}

/// One slider sequence on service sessions over pools of 1 and 4
/// workers: the same graph, bit for bit, and the same work. The session
/// first runs a progressive sequence — a cold estimate that converges
/// early, one that deepens it to full depth, and a warm one — whose
/// estimates run on the pool too and must be bit-equal as well.
#[test]
fn online_sessions_replay_identically() {
    let run = |workers: usize| {
        let prophet = Prophet::builder()
            .scenario("figure2", Scenario::figure2().unwrap())
            .registry(demo_registry())
            .worlds_per_point(40)
            .scheduler(SchedulerConfig {
                workers,
                ..SchedulerConfig::default()
            })
            .build()
            .unwrap();
        let mut s = prophet.online("figure2").unwrap();
        let estimates: Vec<_> = [
            ("overload", 0.2, 5),
            ("demand", 1e-9, 5),
            ("demand", 1e9, 5),
        ]
        .into_iter()
        .map(|(column, epsilon, batch)| {
            let e = s.progressive_expect(column, 20, epsilon, batch).unwrap();
            (
                e.estimate.to_bits(),
                e.worlds_used,
                e.used_basis,
                e.converged,
            )
        })
        .collect();
        let cold = estimates[0];
        assert!(
            cold.3 && !cold.2 && cold.1 < 40,
            "cold, converged early: {cold:?}"
        );
        assert_eq!(
            (estimates[1].1, estimates[1].2),
            (40 - cold.1, false),
            "deepened"
        );
        assert_eq!((estimates[2].1, estimates[2].2), (0, true), "warm");
        let progressive_work = work_counters(&s.metrics());
        s.set_param("purchase1", 16).unwrap();
        s.set_param("purchase2", 36).unwrap();
        s.refresh().unwrap();
        let work = work_counters(&s.metrics());
        (s.graph().to_vec(), (estimates, progressive_work, work))
    };
    let (serial_graph, serial_work) = run(1);
    let (pooled_graph, pooled_work) = run(4);
    assert_eq!(serial_graph.len(), pooled_graph.len());
    for (a, b) in serial_graph.iter().zip(&pooled_graph) {
        let bits = |s: &prophet_mc::Series| -> Vec<(i64, u64, u64)> {
            s.points
                .iter()
                .map(|p| (p.x, p.y.to_bits(), p.worlds))
                .collect()
        };
        assert_eq!(bits(a), bits(b), "series {}", a.column);
    }
    assert_eq!(serial_work, pooled_work);
}

#[test]
fn offline_reports_replay_identically() {
    const SRC: &str = "\
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 8;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 16;
DECLARE PARAMETER @feature AS SET (12);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase1) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @purchase1 FROM results
WHERE MAX(EXPECT overload) < 0.5
GROUP BY purchase1
FOR MAX @purchase1";
    let run = || {
        OfflineOptimizer::open(
            Engine::new(
                &Scenario::parse(SRC).unwrap(),
                demo_registry(),
                EngineConfig {
                    worlds_per_point: 30,
                    ..EngineConfig::default()
                },
            )
            .unwrap(),
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best, b.best);
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.metrics.points_total(), b.metrics.points_total());
}
