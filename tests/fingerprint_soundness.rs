//! Statistical soundness of fingerprint-based reuse.
//!
//! Re-mapping must never change the *answers* — only the work. These tests
//! compare mapped results against ground-truth direct simulation across the
//! mapping families the demo scenario produces (identity across irrelevant
//! parameter changes, exact offsets across purchase shifts, affine chains
//! across weeks).

use fuzzy_prophet::prelude::*;
use prophet_models::demo_registry;

fn fresh_engine(worlds: usize) -> Engine {
    Engine::new(
        &Scenario::figure2().unwrap(),
        demo_registry(),
        EngineConfig {
            worlds_per_point: worlds,
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

fn point(current: i64, p1: i64, p2: i64, feature: i64) -> ParamPoint {
    ParamPoint::from_pairs([
        ("current", current),
        ("purchase1", p1),
        ("purchase2", p2),
        ("feature", feature),
    ])
}

/// Ground truth: a dedicated engine that has never seen any other point, so
/// its evaluation of the target is a direct simulation.
fn direct(p: &ParamPoint, worlds: usize) -> prophet_mc::SampleSet {
    let e = fresh_engine(worlds);
    let (s, outcome) = e.evaluate(p).unwrap();
    assert_eq!(outcome, EvalOutcome::Simulated);
    s
}

#[test]
fn identity_mapping_reproduces_bitwise() {
    // Feature date changes with both values after the evaluated week are
    // invisible: outputs must be *identical*.
    let e = fresh_engine(80);
    let a = point(5, 16, 36, 12);
    let b = point(5, 16, 36, 44);
    e.evaluate(&a).unwrap();
    let (mapped, outcome) = e.evaluate(&b).unwrap();
    assert!(
        matches!(outcome, EvalOutcome::Mapped { exact: true, .. }),
        "{outcome:?}"
    );
    let truth = direct(&b, 80);
    assert_eq!(mapped.samples("demand"), truth.samples("demand"));
    assert_eq!(mapped.samples("capacity"), truth.samples("capacity"));
    assert_eq!(mapped.samples("overload"), truth.samples("overload"));
}

#[test]
fn offset_mapping_across_purchase_shift_is_exact() {
    // Moving purchase1 across the evaluated week shifts capacity by exactly
    // one purchase worth of cores under common random numbers.
    let e = fresh_engine(80);
    let a = point(10, 4, 36, 12);
    let b = point(10, 16, 36, 12);
    e.evaluate(&a).unwrap();
    let (mapped, outcome) = e.evaluate(&b).unwrap();
    assert!(
        matches!(outcome, EvalOutcome::Mapped { exact: true, .. }),
        "{outcome:?}"
    );
    let truth = direct(&b, 80);
    let m = mapped.samples("capacity").unwrap();
    let t = truth.samples("capacity").unwrap();
    for (x, y) in m.iter().zip(t) {
        assert!((x - y).abs() < 1e-6, "mapped {x} vs direct {y}");
    }
    assert_eq!(mapped.samples("overload"), truth.samples("overload"));
}

#[test]
fn inexact_mappings_preserve_statistics_within_tolerance() {
    // Sweep a full year with one engine (mappings accumulate), then check
    // every week's expectation against direct simulation.
    let worlds = 150;
    let reused = fresh_engine(worlds);
    let mut max_err: f64 = 0.0;
    let mut mapped_weeks = 0;
    for week in 0..=52 {
        let p = point(week, 16, 36, 12);
        let (s, outcome) = reused.evaluate(&p).unwrap();
        if matches!(outcome, EvalOutcome::Mapped { .. }) {
            mapped_weeks += 1;
        }
        let truth = direct(&p, worlds);
        let em = s.expect("overload").unwrap();
        let et = truth.expect("overload").unwrap();
        max_err = max_err.max((em - et).abs());
    }
    assert!(mapped_weeks > 0, "the sweep must exercise mapping");
    // Overload is a probability; mapped estimates must stay close.
    assert!(max_err < 0.12, "max |E_mapped - E_direct| = {max_err}");
}

#[test]
fn mapped_capacity_means_track_direct_means() {
    let worlds = 120;
    let reused = fresh_engine(worlds);
    for week in [20i64, 30, 40, 52] {
        let p = point(week, 8, 24, 12);
        let (s, _) = reused.evaluate(&p).unwrap();
        let truth = direct(&p, worlds);
        let em = s.expect("capacity").unwrap();
        let et = truth.expect("capacity").unwrap();
        let rel = (em - et).abs() / et.abs().max(1.0);
        assert!(rel < 0.02, "week {week}: mapped {em:.0} vs direct {et:.0}");
    }
}

#[test]
fn disabling_fingerprints_is_the_ground_truth_baseline() {
    // With fingerprints off, every point must be freshly simulated and the
    // engine must never report mapped outcomes.
    let e = Engine::new(
        &Scenario::figure2().unwrap(),
        demo_registry(),
        EngineConfig {
            worlds_per_point: 40,
            fingerprints_enabled: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for week in 0..10 {
        let (_, outcome) = e.evaluate(&point(week, 16, 36, 12)).unwrap();
        assert_eq!(outcome, EvalOutcome::Simulated);
    }
    assert_eq!(e.metrics().points_mapped, 0);
    assert_eq!(e.metrics().probe_evaluations, 0);
}

#[test]
fn demand_release_boundary_blocks_mapping_of_demand() {
    // Demand across the feature-release boundary gains an independent
    // gaussian: the engine must NOT claim an (exact) demand mapping there.
    // (Capacity still maps, but the entry requires all stochastic columns.)
    let e = fresh_engine(60);
    let a = point(20, 4, 8, 12); // feature released at week 20
    let b = point(20, 4, 8, 36); // not released
    e.evaluate(&a).unwrap();
    let (s, outcome) = e.evaluate(&b).unwrap();
    assert_eq!(
        outcome,
        EvalOutcome::Simulated,
        "release boundary must force simulation"
    );
    // and the simulated answer differs from a's in mean demand by ≈ the
    // feature gaussian's mean
    let (sa, _) = e.evaluate(&a).unwrap();
    let diff = sa.expect("demand").unwrap() - s.expect("demand").unwrap();
    assert!(
        (diff - 1_200.0).abs() < 250.0,
        "feature demand delta ≈ 1200, got {diff}"
    );
}

// ------------------------------------------------------- the recipe memo

/// A fingerprint hit is answered with the moments its recipe's first remap
/// took, possibly at another point. On every bundled scenario and both
/// tiers, every mapped reply's `expect` / `expect_std_dev` bits must be the
/// kernel's on the samples that reply rebuilds.
#[test]
fn every_mapped_replys_moments_are_its_rebuilt_samples_bits() {
    use prophet_mc::{GridGuide, SampleStats};
    use prophet_models::full_registry;
    use prophet_models::scenarios::{
        figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
    };
    let scenarios = [
        (Scenario::figure2().unwrap(), 300),
        (Scenario::parse(&figure2_coarse_sql(0.05)).unwrap(), 300),
        (Scenario::parse(INVENTORY_POLICY).unwrap(), 120),
        (Scenario::parse(PRICING_WHATIF).unwrap(), 120),
        (Scenario::parse(SUPPORT_STAFFING).unwrap(), 120),
    ];
    let mut memoised = 0;
    for (scenario, points) in scenarios {
        let stride = scenario.parameter_space_size().div_ceil(points);
        let grid: Vec<ParamPoint> = GridGuide::new(&scenario.script().params)
            .step_by(stride)
            .collect();
        for tier in [ExecTier::Columnar, ExecTier::Scalar] {
            let config = EngineConfig {
                worlds_per_point: 24,
                tier,
                ..EngineConfig::default()
            };
            let engine = Engine::new(&scenario, full_registry(), config).unwrap();
            let mut mapped = 0;
            // Batches of 16: a probe never matches a sibling of its batch.
            for batch in grid.chunks(16) {
                for (set, outcome) in engine.evaluate_batch(batch).unwrap() {
                    if !matches!(outcome, EvalOutcome::Mapped { .. }) {
                        continue;
                    }
                    mapped += 1;
                    for column in engine.output_columns() {
                        let moments = (set.expect(column), set.expect_std_dev(column));
                        let stats = SampleStats::of(set.samples(column).unwrap());
                        assert_eq!(
                            (moments.0.unwrap().to_bits(), moments.1.unwrap().to_bits()),
                            (stats.mean.to_bits(), stats.std_dev.to_bits()),
                            "{tier:?} {} `{column}`",
                            set.point()
                        );
                    }
                }
            }
            let m = engine.metrics();
            assert!(mapped > 0, "{tier:?}: no point mapped");
            assert_eq!(m.points_mapped, mapped);
            assert_eq!(m.remaps + m.remaps_memoised, m.points_mapped, "{tier:?}");
            memoised += m.remaps_memoised;
        }
    }
    assert!(memoised > 0, "no hit was answered from the memo");
}

/// A derived item that mentions a parameter makes that parameter part of
/// the recipe: two points that map from one source through the same
/// mappings but differ in `@feature` share their moments under the bundled
/// Figure 2, and must not once `overload` reads `@feature`.
#[test]
fn a_parameter_a_derived_item_mentions_is_part_of_its_recipe() {
    let reads_feature = fuzzy_prophet::scenario::FIGURE2_SQL.replace(
        "CASE WHEN capacity < demand THEN",
        "CASE WHEN capacity < demand + 40 * @feature THEN",
    );
    let source = point(5, 16, 36, 12);
    let (a, b) = (point(5, 16, 36, 36), point(5, 16, 36, 44));
    for (sql, shared) in [
        (fuzzy_prophet::scenario::FIGURE2_SQL.to_owned(), true),
        (reads_feature, false),
    ] {
        let scenario = Scenario::parse(&sql).unwrap();
        let config = |fingerprints_enabled| EngineConfig {
            worlds_per_point: 80,
            fingerprints_enabled,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&scenario, demo_registry(), config(true)).unwrap();
        engine.evaluate(&source).unwrap();
        let results = engine.evaluate_batch(&[a.clone(), b.clone()]).unwrap();
        for ((set, outcome), p) in results.iter().zip([&a, &b]) {
            assert!(
                matches!(outcome, EvalOutcome::Mapped { from, .. } if *from == source),
                "{p}: {outcome:?}"
            );
            let direct = Engine::new(&scenario, demo_registry(), config(false)).unwrap();
            let (truth, _) = direct.evaluate(p).unwrap();
            for column in ["demand", "capacity", "overload"] {
                let bits = |s: &prophet_mc::SampleSet| {
                    let (mean, sd) = (s.expect(column).unwrap(), s.expect_std_dev(column).unwrap());
                    (mean.to_bits(), sd.to_bits())
                };
                assert_eq!(bits(set), bits(&truth), "{p} `{column}`");
            }
        }
        let m = engine.metrics();
        let overload = |i: usize| results[i].0.expect("overload").unwrap();
        if shared {
            assert_eq!((m.remaps, m.remaps_memoised), (1, 1));
            assert_eq!(overload(0).to_bits(), overload(1).to_bits());
        } else {
            assert_eq!((m.remaps, m.remaps_memoised), (2, 0));
            assert_ne!(
                overload(0),
                overload(1),
                "the threshold moved with @feature"
            );
        }
    }
}
