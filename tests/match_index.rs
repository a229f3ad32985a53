//! Differential suite for the fingerprint summary index: the indexed match
//! scan is *defined* by bit-identity with the exhaustive scan, and this
//! file is the contract's enforcement.
//!
//! Coverage:
//!
//! * every bundled scenario (Figure 2 plus the four example scenarios),
//!   swept point-by-point and as one batch with `match_index` on and off —
//!   outcomes, samples, and chosen mapping sources must be bit-identical;
//! * a full offline OPTIMIZE sweep with the index on and off — identical
//!   best plan, per-group answers, and work counters, with the indexed run
//!   actually pruning;
//! * a seeded property loop over randomly generated fingerprint
//!   populations at the store layer, asserting after every insert
//!   (1..=N candidates, including exact duplicates → ties) that the
//!   indexed scan returns exactly the exhaustive scan's hit — the pruning
//!   bound never discards the true best candidate.

use std::collections::HashMap;
use std::sync::Arc;

use fuzzy_prophet::prelude::*;
use prophet_fingerprint::{CorrelationDetector, Fingerprint, Mapping};
use prophet_mc::SharedBasisStore;
use prophet_models::scenarios::{
    figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
};
use prophet_models::{demo_registry, full_registry};
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};

enum VgRegistryKind {
    Demo,
    Full,
}

impl VgRegistryKind {
    fn build(&self) -> prophet_vg::VgRegistry {
        match self {
            VgRegistryKind::Demo => demo_registry(),
            VgRegistryKind::Full => full_registry(),
        }
    }
}

/// The five bundled scenarios with a registry factory and probe points
/// spread across each parameter space (several correlated neighbours per
/// scenario, so the match scan has real decisions to make).
fn bundled_scenarios() -> Vec<(&'static str, Scenario, VgRegistryKind, Vec<ParamPoint>)> {
    vec![
        (
            "figure2",
            Scenario::figure2().unwrap(),
            VgRegistryKind::Demo,
            vec![
                ParamPoint::from_pairs([
                    ("current", 5i64),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 5i64),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 36),
                ]),
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 4),
                    ("purchase2", 36),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 50i64),
                    ("purchase1", 0),
                    ("purchase2", 4),
                    ("feature", 44),
                ]),
            ],
        ),
        (
            "figure2-coarse",
            Scenario::parse(&figure2_coarse_sql(0.05)).unwrap(),
            VgRegistryKind::Demo,
            vec![
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 8),
                    ("purchase2", 24),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 8),
                    ("purchase2", 24),
                    ("feature", 36),
                ]),
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 24),
                    ("purchase2", 40),
                    ("feature", 12),
                ]),
            ],
        ),
        (
            "inventory",
            Scenario::parse(INVENTORY_POLICY).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([
                    ("week", 12i64),
                    ("reorder_point", 200),
                    ("reorder_qty", 300),
                ]),
                ParamPoint::from_pairs([
                    ("week", 12i64),
                    ("reorder_point", 240),
                    ("reorder_qty", 300),
                ]),
                ParamPoint::from_pairs([
                    ("week", 20i64),
                    ("reorder_point", 200),
                    ("reorder_qty", 360),
                ]),
            ],
        ),
        (
            "pricing",
            Scenario::parse(PRICING_WHATIF).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([("week", 24i64), ("price", 20)]),
                ParamPoint::from_pairs([("week", 24i64), ("price", 22)]),
                ParamPoint::from_pairs([("week", 30i64), ("price", 20)]),
            ],
        ),
        (
            "staffing",
            Scenario::parse(SUPPORT_STAFFING).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([("week", 24i64), ("agents", 10)]),
                ParamPoint::from_pairs([("week", 24i64), ("agents", 11)]),
                ParamPoint::from_pairs([("week", 30i64), ("agents", 10)]),
            ],
        ),
    ]
}

fn engine_pair(scenario: &Scenario, kind: &VgRegistryKind, threads: usize) -> (Engine, Engine) {
    let config = EngineConfig {
        worlds_per_point: 40,
        threads,
        ..EngineConfig::default()
    };
    let indexed = Engine::new(scenario, kind.build(), config).unwrap();
    let exhaustive = Engine::new(
        scenario,
        kind.build(),
        EngineConfig {
            match_index: false,
            ..config
        },
    )
    .unwrap();
    (indexed, exhaustive)
}

/// Every bundled scenario, swept point-by-point: identical outcomes
/// (including the chosen mapping source), bit-identical samples, identical
/// reuse counters — and the exhaustive engine never prunes.
#[test]
fn all_bundled_scenarios_are_bit_identical_with_and_without_index() {
    for (name, scenario, kind, points) in bundled_scenarios() {
        let (indexed, exhaustive) = engine_pair(&scenario, &kind, 1);
        let columns = indexed.output_columns();
        for point in &points {
            let (si, oi) = indexed.evaluate(point).unwrap();
            let (se, oe) = exhaustive.evaluate(point).unwrap();
            assert_eq!(oi, oe, "[{name}] outcome at {point}");
            for col in columns {
                assert_eq!(
                    si.samples(col),
                    se.samples(col),
                    "[{name}] column `{col}` at {point}"
                );
            }
        }
        let mi = indexed.metrics();
        let me = exhaustive.metrics();
        assert_eq!(mi.points_mapped, me.points_mapped, "[{name}]");
        assert_eq!(mi.points_simulated, me.points_simulated, "[{name}]");
        assert_eq!(mi.worlds_simulated, me.worlds_simulated, "[{name}]");
        assert_eq!(
            me.candidates_pruned, 0,
            "[{name}] the exhaustive scan never prunes"
        );
    }
}

/// The batched planner path: one batch over every point, indexed vs
/// exhaustive, at one and four threads.
#[test]
fn batched_sweeps_are_bit_identical_with_and_without_index() {
    for (name, scenario, kind, points) in bundled_scenarios() {
        for threads in [1, 4] {
            let (indexed, exhaustive) = engine_pair(&scenario, &kind, threads);
            let ri = indexed.evaluate_batch(&points).unwrap();
            let re = exhaustive.evaluate_batch(&points).unwrap();
            assert_eq!(ri.len(), re.len());
            for (i, ((si, oi), (se, oe))) in ri.iter().zip(&re).enumerate() {
                assert_eq!(oi, oe, "[{name}] threads={threads} point #{i}");
                for col in indexed.output_columns() {
                    assert_eq!(
                        si.samples(col),
                        se.samples(col),
                        "[{name}] threads={threads} point #{i} column {col}"
                    );
                }
            }
        }
    }
}

/// A full offline OPTIMIZE sweep of the coarse Figure 2 with the index on
/// and off: identical best plan and answers — and the work counters noise
/// cannot move, pinned to their exact values on the default configuration
/// (but for a world count cut for debug builds and a second thread; every
/// counter pinned below except `worlds_simulated` is independent of both).
/// A change that moves one of them changed *what* is computed, not how
/// fast: re-pin deliberately.
#[test]
fn offline_sweep_answers_are_identical_with_and_without_index() {
    const WORLDS: usize = 8;
    let run = |match_index: bool| {
        let prophet = Prophet::builder()
            .scenario_sql("sweep", &figure2_coarse_sql(0.05))
            .unwrap()
            .registry(demo_registry())
            .config(EngineConfig {
                worlds_per_point: WORLDS,
                threads: 2,
                match_index,
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

    let indexed = run(true);
    let exhaustive = run(false);
    assert_eq!(indexed.answers, exhaustive.answers, "per-group answers");
    assert_eq!(indexed.best, exhaustive.best, "identical sweep answer");

    for (label, m) in [
        ("indexed", &indexed.metrics),
        ("exhaustive", &exhaustive.metrics),
    ] {
        assert_eq!(m.points_total(), 3_969, "{label}");
        assert_eq!(m.points_simulated, 57, "{label}");
        assert_eq!(m.points_mapped, 3_912, "{label}");
        assert_eq!(m.worlds_simulated, 57 * WORLDS as u64, "{label}");
        assert_eq!(m.vector_walks, 3_969, "{label}: one block walk per probe");
        assert_eq!(
            m.column_fallbacks, 0,
            "{label}: the sweep stays on typed kernels"
        );
        // The one pin that moves with worlds (how a miss's worlds split
        // into fixed-width spans, one block walk each; never with
        // threads): exact at this test's fixed configuration. A probe
        // walks the two stochastic items (2 kernels); a simulation walk
        // runs all 4 (two VG call sites, the comparison, the CASE), and
        // each of the 57 misses is one span at 8 worlds.
        assert_eq!(m.columnar_kernels, 3_969 * 2 + 57 * 4, "{label}");
    }
    // What the summary index buys: 8,724 full comparisons instead of the
    // exhaustive reference's 97,416 (which compares every pair until the
    // probe is exact, and bounds — so prunes — nothing).
    assert_eq!(indexed.metrics.candidates_scanned, 8_724);
    assert_eq!(indexed.metrics.candidates_pruned, 200_526);
    assert_eq!(exhaustive.metrics.candidates_scanned, 97_416);
    assert_eq!(exhaustive.metrics.candidates_pruned, 0);
}

// ---------------------------------------------------------------- property

fn point(i: usize) -> ParamPoint {
    ParamPoint::from_pairs([("c".to_owned(), i as i64)])
}

fn insert_candidate(store: &SharedBasisStore, i: usize, values: Vec<f64>) {
    store.insert(
        point(i),
        HashMap::from([("y".to_owned(), Fingerprint::from_values(values))]),
        Arc::new(HashMap::from([("y".to_owned(), vec![i as f64])])),
        10,
        true,
    );
}

/// Seeded property loop: random candidate populations (identity
/// duplicates, offsets, affine transforms, noisy affines, pure noise,
/// constants), probed after *every* insert — the indexed scan must return
/// exactly what the exhaustive scan returns for 1..=N candidates, at one
/// and three threads, ties included.
#[test]
fn pruning_bound_never_discards_the_true_best_candidate() {
    const LEN: usize = 16;
    const ROUNDS: usize = 10;
    const MAX_CANDIDATES: usize = 18;
    let detector = CorrelationDetector::default();
    let columns = ["y".to_owned()];
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x1D_EC0DE);

    for round in 0..ROUNDS {
        let base: Vec<f64> = (0..LEN).map(|_| 10.0 * rng.next_f64() - 5.0).collect();
        let probes: Vec<HashMap<String, Fingerprint>> = vec![
            // the base population shape itself
            HashMap::from([("y".to_owned(), Fingerprint::from_values(base.clone()))]),
            // an offset relative of the base
            HashMap::from([(
                "y".to_owned(),
                Fingerprint::from_values(base.iter().map(|v| v + 3.5).collect()),
            )]),
            // an affine relative of the base
            HashMap::from([(
                "y".to_owned(),
                Fingerprint::from_values(base.iter().map(|v| -1.7 * v + 0.4).collect()),
            )]),
            // unrelated noise
            HashMap::from([(
                "y".to_owned(),
                Fingerprint::from_values((0..LEN).map(|_| 10.0 * rng.next_f64()).collect()),
            )]),
        ];

        let store = SharedBasisStore::new(64);
        let mut generated: Vec<Vec<f64>> = Vec::new();
        let n = 1 + (rng.next_u64() as usize) % MAX_CANDIDATES;
        for i in 0..n {
            let values: Vec<f64> = match rng.next_u64() % 7 {
                // exact duplicate of an earlier candidate: a tie the scans
                // must break identically (earliest stamp wins)
                0 if !generated.is_empty() => {
                    generated[(rng.next_u64() as usize) % generated.len()].clone()
                }
                1 => base.clone(),
                2 => base.iter().map(|v| v + 4.0 * rng.next_f64()).collect(),
                3 => {
                    let scale = 0.5 + 2.0 * rng.next_f64();
                    let offset = 4.0 * rng.next_f64() - 2.0;
                    base.iter().map(|v| scale * v + offset).collect()
                }
                4 => {
                    // near-affine: r² lands on either side of min_r2
                    let noise = 0.02 + 0.4 * rng.next_f64();
                    base.iter()
                        .enumerate()
                        .map(|(j, v)| 1.3 * v + if j % 2 == 0 { noise } else { -noise })
                        .collect()
                }
                5 => vec![rng.next_f64(); LEN], // constant
                _ => (0..LEN).map(|_| 10.0 * rng.next_f64() - 5.0).collect(),
            };
            generated.push(values.clone());
            insert_candidate(&store, i, values);

            for threads in [1usize, 3] {
                let (hits_idx, stats_idx) =
                    store.find_correlated_batch_scan(&probes, &columns, &detector, threads, true);
                let (hits_exh, stats_exh) =
                    store.find_correlated_batch_scan(&probes, &columns, &detector, threads, false);
                assert_eq!(stats_exh.candidates_pruned, 0);
                for (pi, (hi, he)) in hits_idx.iter().zip(&hits_exh).enumerate() {
                    match (hi, he) {
                        (None, None) => {}
                        (Some(hi), Some(he)) => {
                            assert_eq!(
                                hi.source,
                                he.source,
                                "round {round} candidates {} probe {pi} threads {threads}: \
                                 indexed scan chose a different source",
                                i + 1
                            );
                            assert_eq!(hi.mappings, he.mappings, "round {round} probe {pi}");
                            assert_eq!(hi.worlds, he.worlds);
                        }
                        (hi, he) => panic!(
                            "round {round} candidates {} probe {pi} threads {threads}: \
                             hit/miss disagreement (indexed {:?}, exhaustive {:?})",
                            i + 1,
                            hi.is_some(),
                            he.is_some()
                        ),
                    }
                }
                // The indexed scan's accounting is thread-independent and
                // covers every (candidate, probe) pair exactly once.
                let (hits_t1, stats_t1) =
                    store.find_correlated_batch_scan(&probes, &columns, &detector, 1, true);
                assert_eq!(stats_idx, stats_t1, "round {round} accounting");
                for (a, b) in hits_idx.iter().zip(&hits_t1) {
                    assert_eq!(a.as_ref().map(|h| &h.source), b.as_ref().map(|h| &h.source));
                }
            }
        }
    }
}

/// Duplicate sources are a pure tie: both scans must pick the earliest
/// stamp, and the indexed scan must prune the later duplicate rather than
/// re-scoring it.
#[test]
fn exact_ties_resolve_to_the_earliest_stamp_under_pruning() {
    let detector = CorrelationDetector::default();
    let columns = ["y".to_owned()];
    let base: Vec<f64> = (0..16).map(|i| (i * i) as f64).collect();
    let store = SharedBasisStore::new(8);
    insert_candidate(&store, 0, base.clone());
    insert_candidate(&store, 1, base.clone());
    insert_candidate(&store, 2, base.iter().map(|v| v + 1.0).collect());
    let probes = vec![HashMap::from([(
        "y".to_owned(),
        Fingerprint::from_values(base),
    )])];
    for use_index in [true, false] {
        let (hits, _) =
            store.find_correlated_batch_scan(&probes, &columns, &detector, 1, use_index);
        let hit = hits[0].as_ref().expect("identity probe hits");
        assert_eq!(hit.source, point(0), "earliest duplicate wins");
        assert_eq!(hit.mappings["y"], Mapping::Identity);
    }
}

/// Deterministic noise in `[-5, 5)`.
fn lcg_values(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        })
        .collect()
}

/// The scan's accounting is a fold of per-probe work, so no partition of
/// the probes across threads may move
/// it. One batch over four waves of candidates with a probe that is exact
/// in wave 0 (and prunes the rest of what its siblings need), one that
/// improves through inexact incumbents until it is exact in wave 2, and
/// one that never matches (so every wave is processed); then the same
/// batch without the third probe, which stops after wave 2. The expected
/// numbers were read off the previous implementation — the per-wave
/// driver scan — before it was replaced.
#[test]
fn scan_accounting_is_pinned_across_threads() {
    const LEN: usize = 16;
    const CANDIDATES: usize = 100;
    let detector = CorrelationDetector::default();
    let columns = ["y".to_owned()];
    let base_a = lcg_values(1, LEN);
    let base_b = lcg_values(2, LEN);
    let noisy = |base: &[f64], scale: f64, noise: f64| -> Vec<f64> {
        base.iter()
            .enumerate()
            .map(|(j, v)| scale * v + if j % 2 == 0 { noise } else { -noise })
            .collect()
    };
    let probe =
        |values: Vec<f64>| HashMap::from([("y".to_owned(), Fingerprint::from_values(values))]);
    let probes = vec![
        probe(base_a.clone()),
        probe(base_b.iter().map(|v| v + 3.0).collect()),
        probe(lcg_values(3, LEN)),
    ];
    let store = SharedBasisStore::new(256);
    for i in 0..CANDIDATES {
        let values = match i {
            5 => base_a.clone(),
            70 => base_b.clone(),
            75 => base_a.iter().map(|v| v - 1.0).collect(),
            _ if i % 7 == 3 => noisy(&base_b, 1.0 + i as f64 / 50.0, 0.3 - 0.002 * i as f64),
            _ if i % 11 == 4 => noisy(&base_a, 0.7, 0.2),
            _ => lcg_values(100 + i as u64, LEN),
        };
        insert_candidate(&store, i, values);
    }
    for threads in [1usize, 8] {
        let label = format!("{threads} threads");
        let (hits, stats) =
            store.find_correlated_batch_scan(&probes, &columns, &detector, threads, true);
        let sources: Vec<Option<ParamPoint>> =
            hits.into_iter().map(|h| h.map(|h| h.source)).collect();
        assert_eq!(sources, [Some(point(5)), Some(point(70)), None], "{label}");
        assert_eq!(
            (stats.candidates_scanned, stats.candidates_pruned),
            (19, 281),
            "three probes × all 100 candidates ({label})"
        );
        let (_, stats) =
            store.find_correlated_batch_scan(&probes[..2], &columns, &detector, threads, true);
        assert_eq!(
            (stats.candidates_scanned, stats.candidates_pruned),
            (19, 173),
            "two probes × the 96 candidates of waves 0–2 ({label})"
        );
    }
}
