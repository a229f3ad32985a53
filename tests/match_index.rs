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
    // What the summary index buys: 4,018 full comparisons instead of the
    // exhaustive reference's 97,416 (which compares every pair until the
    // probe is exact, and bounds — so prunes — nothing).
    // The exact-match window answers 3,768 of the 3,912 mapped points
    // with one binary search and a few comparisons each; the rest run
    // the branch-and-bound scan, whose bound rules out 8,734 pairs.
    let m = &indexed.metrics;
    assert_eq!(
        (m.candidates_scanned, m.candidates_pruned, m.window_hits),
        (4_018, 8_734, 3_768)
    );
    assert_eq!(exhaustive.metrics.candidates_scanned, 97_416);
    assert_eq!(exhaustive.metrics.candidates_pruned, 0);
    assert_eq!(exhaustive.metrics.window_hits, 0);
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
/// the probes across threads may move it. One batch over four waves of
/// candidates: a probe with an exact source (candidate 5) and one with an
/// offset source (candidate 70) — both answered from their exact-match
/// windows with one full comparison each, bounding nothing — and one that
/// never matches, which finds nothing in its window and bounds all 100
/// candidates in the branch-and-bound scan, every one `Infeasible`. Then
/// the same batch without the third probe, which bounds nothing at all;
/// and a probe with only inexact affine relatives, which the
/// branch-and-bound scan walks through improving incumbents.
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
            (
                stats.candidates_scanned,
                stats.candidates_pruned,
                stats.window_hits
            ),
            (2, 100, 2),
            "two window answers, and the third probe bounds all 100 candidates out ({label})"
        );
        let (_, stats) =
            store.find_correlated_batch_scan(&probes[..2], &columns, &detector, threads, true);
        assert_eq!(
            (
                stats.candidates_scanned,
                stats.candidates_pruned,
                stats.window_hits
            ),
            (2, 0, 2),
            "two window answers bound nothing ({label})"
        );
        let inexact = [probe(noisy(&base_b, 2.0, 0.05))];
        let (hits, stats) =
            store.find_correlated_batch_scan(&inexact, &columns, &detector, threads, true);
        let (reference, _) =
            store.find_correlated_batch_scan(&inexact, &columns, &detector, threads, false);
        let source =
            |hits: &[Option<prophet_mc::BasisHit>]| hits[0].as_ref().map(|h| h.source.clone());
        assert_eq!(source(&hits), source(&reference), "{label}");
        assert_eq!(
            (
                stats.candidates_scanned,
                stats.candidates_pruned,
                stats.window_hits
            ),
            (15, 85, 0),
            "an inexact probe runs the branch-and-bound scan ({label})"
        );
    }
}

// ------------------------------------------------------ exact-match window

fn fingerprints(columns: &[(&str, Vec<f64>)]) -> HashMap<String, Fingerprint> {
    (columns.iter())
        .map(|(name, values)| ((*name).to_owned(), Fingerprint::from_values(values.clone())))
        .collect()
}

/// Insert candidate `i` with the given per-column fingerprints.
fn insert_columns(store: &SharedBasisStore, i: usize, columns: &[(&str, Vec<f64>)]) {
    store.insert(
        point(i),
        fingerprints(columns),
        Arc::new(HashMap::from([("y".to_owned(), vec![i as f64])])),
        10,
        true,
    );
}

/// Scan `probes` indexed and exhaustively: the same hit (source and
/// mappings) for every probe. Returns the indexed scan's hits' sources
/// and its accounting.
fn same_as_exhaustive(
    store: &SharedBasisStore,
    probes: &[HashMap<String, Fingerprint>],
    columns: &[String],
    what: &str,
) -> (Vec<Option<ParamPoint>>, prophet_mc::MatchScanStats) {
    let detector = CorrelationDetector::default();
    let (indexed, stats) = store.find_correlated_batch_scan(probes, columns, &detector, 1, true);
    let (exhaustive, _) = store.find_correlated_batch_scan(probes, columns, &detector, 1, false);
    for (pi, (hi, he)) in indexed.iter().zip(&exhaustive).enumerate() {
        assert_eq!(
            hi.as_ref().map(|h| (&h.source, &h.mappings)),
            he.as_ref().map(|h| (&h.source, &h.mappings)),
            "{what}: probe {pi}"
        );
    }
    let sources = indexed.into_iter().map(|h| h.map(|h| h.source)).collect();
    (sources, stats)
}

/// A varying base fingerprint of 16 dyadic values whose lanes 3 and 4
/// are equal.
fn dyadic_base() -> Vec<f64> {
    vec![
        1.5, -2.25, 4.0, 0.75, 0.75, 3.5, -1.0, 2.0, -3.75, 5.25, 0.5, -0.5, 1.25, 6.0, -2.0, 2.5,
    ]
}

/// Several candidates share the probe's key window; an earlier one with a
/// small non-zero error loses to the earliest zero-error one, which the
/// window finds without the branch-and-bound scan.
#[test]
fn earliest_zero_error_candidate_in_a_shared_window_wins() {
    let columns = ["y".to_owned()];
    let base = dyadic_base();
    // Moving two equal lanes apart keeps the mean and, to first order,
    // the centred norm: the key stays in the window, the fit is inexact.
    let mut nudged = base.clone();
    nudged[3] += 1e-6;
    nudged[4] -= 1e-6;
    let store = SharedBasisStore::new(16);
    insert_columns(&store, 0, &[("y", nudged)]);
    insert_columns(&store, 1, &[("y", lcg_values(9, 16))]);
    insert_columns(&store, 2, &[("y", base.iter().map(|v| v + 3.0).collect())]);
    insert_columns(&store, 3, &[("y", base.clone())]);
    let probes = [fingerprints(&[("y", base)])];
    let (sources, stats) = same_as_exhaustive(&store, &probes, &columns, "shared window");
    assert_eq!(
        sources,
        [Some(point(2))],
        "the offset source, not the nudged one"
    );
    assert_eq!(stats.window_hits, 1);
    assert_eq!(
        stats.candidates_scanned, 2,
        "the nudged candidate and the offset one ran `detect_all`"
    );
}

/// A constant probe column is fitted at error 0 by any varying source
/// (`fit_affine` with scale 0), so it must not filter: an earlier source
/// whose column varies wins over a later identical one.
#[test]
fn a_constant_probe_column_never_filters() {
    let columns = ["y".to_owned(), "z".to_owned()];
    let base = dyadic_base();
    let constant = vec![7.0; 16];
    let store = SharedBasisStore::new(16);
    insert_columns(
        &store,
        0,
        &[
            ("y", base.iter().map(|v| v + 1.0).collect()),
            ("z", lcg_values(4, 16)),
        ],
    );
    insert_columns(&store, 1, &[("y", base.clone()), ("z", constant.clone())]);
    let probes = [fingerprints(&[("y", base), ("z", constant.clone())])];
    let (sources, stats) = same_as_exhaustive(&store, &probes, &columns, "one constant column");
    assert_eq!(sources, [Some(point(0))]);
    assert_eq!(stats.window_hits, 1, "the varying column keys the window");

    // With no varying column there is no window: the full scan answers.
    let only_z = ["z".to_owned()];
    let probes = [fingerprints(&[("z", constant)])];
    let (sources, stats) = same_as_exhaustive(&store, &probes, &only_z, "all constant");
    assert_eq!(sources, [Some(point(0))]);
    assert_eq!(stats.window_hits, 0);
}

/// Exactly scaled dyadic sources (`y = 2x`, `y = −3x + 1`) fit with zero
/// residual, so they are exact matches too — stamped before an Offset
/// source, they win, the negative slope through the `−k` window.
#[test]
fn exactly_scaled_sources_before_an_offset_source_win() {
    let columns = ["y".to_owned()];
    let probe_values: Vec<f64> = dyadic_base().iter().map(|v| 1.0 - 3.0 * v).collect();
    let doubled: Vec<f64> = probe_values.iter().map(|v| v / 2.0).collect();
    let offset: Vec<f64> = probe_values.iter().map(|v| v - 5.0).collect();
    for (what, scaled) in [("y = 2x", doubled), ("y = -3x + 1", dyadic_base())] {
        let store = SharedBasisStore::new(16);
        insert_columns(&store, 0, &[("y", lcg_values(5, 16))]);
        insert_columns(&store, 1, &[("y", scaled)]);
        insert_columns(&store, 2, &[("y", offset.clone())]);
        let probes = [fingerprints(&[("y", probe_values.clone())])];
        let (sources, stats) = same_as_exhaustive(&store, &probes, &columns, what);
        assert_eq!(sources, [Some(point(1))], "{what}");
        assert_eq!(stats.window_hits, 1, "{what}");
        let (hits, _) = store.find_correlated_batch_scan(
            &probes,
            &columns,
            &CorrelationDetector::default(),
            1,
            true,
        );
        let mapping = &hits[0].as_ref().unwrap().mappings["y"];
        assert!(
            matches!(mapping, Mapping::Affine { residual_std, .. } if *residual_std == 0.0),
            "{what}: {mapping:?}"
        );
    }
}

/// A probe whose first lane is its mean has key 0: its two windows
/// overlap into one, which must still hold both slopes' sources.
#[test]
fn a_probe_keyed_at_zero_searches_one_window() {
    let columns = ["y".to_owned()];
    let values: Vec<f64> = [
        0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0, 5.0, -5.0, 6.0, -6.0, 7.0, -7.0, 0.0,
    ]
    .to_vec();
    let store = SharedBasisStore::new(16);
    insert_columns(&store, 0, &[("y", lcg_values(6, 16))]);
    insert_columns(
        &store,
        1,
        &[("y", values.iter().map(|v| 2.0 - v).collect())],
    );
    insert_columns(
        &store,
        2,
        &[("y", values.iter().map(|v| v + 1.0).collect())],
    );
    let probes = [fingerprints(&[("y", values)])];
    let (sources, stats) = same_as_exhaustive(&store, &probes, &columns, "key 0");
    assert_eq!(
        sources,
        [Some(point(1))],
        "the negative slope stamped first"
    );
    assert_eq!(stats.window_hits, 1);
}

/// Non-finite lanes: a source with a NaN never matches (not even in the
/// key lane), and a probe with a NaN matches nothing.
#[test]
fn nan_lanes_never_match_in_the_window() {
    let columns = ["y".to_owned()];
    let base = dyadic_base();
    let store = SharedBasisStore::new(16);
    for (i, lane) in [0usize, 7].into_iter().enumerate() {
        let mut poisoned = base.clone();
        poisoned[lane] = f64::NAN;
        insert_columns(&store, i, &[("y", poisoned)]);
    }
    insert_columns(&store, 2, &[("y", base.iter().map(|v| v - 2.0).collect())]);
    let mut nan_probe = base.clone();
    nan_probe[0] = f64::NAN;
    let probes = [
        fingerprints(&[("y", base)]),
        fingerprints(&[("y", nan_probe)]),
    ];
    let (sources, stats) = same_as_exhaustive(&store, &probes, &columns, "NaN lanes");
    assert_eq!(sources, [Some(point(2)), None]);
    assert_eq!(stats.window_hits, 1);
}

/// Fingerprints of different lengths: the detector compares their common
/// prefix, which the full-length keys do not describe, so the scan falls
/// back to the full scan — whether the candidates disagree among
/// themselves or with the probe.
#[test]
fn a_fingerprint_length_mismatch_falls_back_to_the_full_scan() {
    let columns = ["y".to_owned()];
    let base = dyadic_base();
    let mut longer = base.clone();
    longer.extend([9.0, -9.0, 4.5, 0.25]);
    let shifted: Vec<f64> = base.iter().map(|v| v + 1.0).collect();
    let probes = [fingerprints(&[("y", base.clone())])];

    // Candidates of two lengths: the longer one's prefix is the probe.
    let mixed = SharedBasisStore::new(16);
    insert_columns(&mixed, 0, &[("y", longer.clone())]);
    insert_columns(&mixed, 1, &[("y", shifted.clone())]);
    let (sources, stats) = same_as_exhaustive(&mixed, &probes, &columns, "mixed lengths");
    assert_eq!(sources, [Some(point(0))], "prefix identity, earliest stamp");
    assert_eq!(stats.window_hits, 0);

    // One length among the candidates, another for the probe.
    let long = SharedBasisStore::new(16);
    insert_columns(&long, 0, &[("y", longer)]);
    let mut shifted_long = shifted;
    shifted_long.extend([1.0, 2.0, 3.0, 4.0]);
    insert_columns(&long, 1, &[("y", shifted_long)]);
    let (sources, stats) = same_as_exhaustive(&long, &probes, &columns, "probe shorter");
    assert_eq!(sources, [Some(point(0))]);
    assert_eq!(stats.window_hits, 0);
}

/// The long property run of window ≡ exhaustive (run nightly with
/// `cargo test --release --test match_index -- --ignored`): 2,000 seeded
/// populations of two-column sources — offsets, exactly and inexactly
/// scaled relatives of either sign, large offsets that round each lane,
/// constant columns, NaN lanes and noise — probed after every insert by probes of
/// the same kinds, so every window decision is checked against the
/// exhaustive reference: same hit, same source, same mappings.
#[test]
#[ignore = "long property run; nightly lane"]
fn window_matches_exhaustive_on_many_populations() {
    const POPULATIONS: usize = 2_000;
    const LEN: usize = 16;
    const MAX_CANDIDATES: usize = 20;
    let columns = ["y".to_owned(), "z".to_owned()];
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x0F1D_11A7);
    let mut window_hits = 0;
    for population in 0..POPULATIONS {
        // Dyadic bases keep scaled relatives exact; the other half carry
        // fine bits, which a large offset rounds away lane by lane.
        let fine = population % 2 == 1;
        let bases: Vec<Vec<f64>> = (0..2)
            .map(|_| {
                (0..LEN)
                    .map(|_| {
                        let quarter = ((rng.next_u64() % 64) as f64 - 32.0) / 4.0;
                        quarter + if fine { rng.next_f64() * 1e-3 } else { 0.0 }
                    })
                    .collect()
            })
            .collect();
        let relative = |rng: &mut Xoshiro256StarStar, base: &[f64]| -> Vec<f64> {
            match rng.next_u64() % 10 {
                0 => base.to_vec(),
                1 => base
                    .iter()
                    .map(|v| v + (rng.next_u64() % 16) as f64 - 8.0)
                    .collect(),
                2 => base.iter().map(|v| 2.0 * v).collect(),
                3 => base.iter().map(|v| -3.0 * v + 1.0).collect(),
                4 => {
                    let scale = 0.1 + rng.next_f64();
                    let offset = rng.next_f64() * 10.0 - 5.0;
                    base.iter().map(|v| scale * v + offset).collect()
                }
                5 => base.iter().map(|v| v * 1e-3 + 1e6).collect(),
                6 if rng.next_u64() % 2 == 0 => base.iter().map(|v| v + 1e9).collect(),
                6 => vec![(rng.next_u64() % 8) as f64; LEN],
                7 => {
                    let mut values = base.to_vec();
                    values[(rng.next_u64() as usize) % LEN] = f64::NAN;
                    values
                }
                8 => base.iter().map(|v| v + 1e-7 * rng.next_f64()).collect(),
                _ => (0..LEN).map(|_| rng.next_f64() * 10.0 - 5.0).collect(),
            }
        };
        let probes: Vec<HashMap<String, Fingerprint>> = (0..6)
            .map(|_| {
                let y = relative(&mut rng, &bases[0]);
                let z = relative(&mut rng, &bases[1]);
                fingerprints(&[("y", y), ("z", z)])
            })
            .collect();
        let store = SharedBasisStore::new(64);
        let n = 1 + (rng.next_u64() as usize) % MAX_CANDIDATES;
        for i in 0..n {
            let y = relative(&mut rng, &bases[0]);
            let z = relative(&mut rng, &bases[1]);
            insert_columns(&store, i, &[("y", y), ("z", z)]);
            let what = format!("population {population}, {} candidates", i + 1);
            let (_, stats) = same_as_exhaustive(&store, &probes, &columns, &what);
            window_hits += stats.window_hits;
        }
    }
    assert!(window_hits > 0, "the run must exercise the window");
}
