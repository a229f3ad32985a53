//! Deeper integration tests of the online session: proactive prefetch,
//! progressive refinement, series rendering, per-point result summaries,
//! and the interaction between sliders and the basis store.

use fuzzy_prophet::prelude::*;
use fuzzy_prophet::render::{ascii_chart, series_csv};
use prophet_models::demo_registry;

fn session(worlds: usize) -> OnlineSession {
    Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: worlds,
            ..EngineConfig::default()
        })
        .build()
        .unwrap()
        .online("figure2")
        .unwrap()
}

#[test]
fn prefetch_makes_future_adjustments_free() {
    let mut s = session(16);
    s.set_param("purchase1", 16).unwrap();
    s.set_param("purchase2", 36).unwrap();
    // Each adjustment queues its slider's domain neighbours: purchase1
    // queued {12, 20}, purchase2 queued {32, 40}.
    let prefetched = s.prefetch_tick(10).unwrap();
    assert_eq!(prefetched, 4);
    // Moving to a prefetched value re-simulates nothing at all.
    let report = s.set_param("purchase2", 32).unwrap();
    assert_eq!(report.weeks_simulated, 0);
    assert_eq!(report.weeks_mapped, 0);
    assert_eq!(report.weeks_cached, 53);
    // Budget zero is a no-op.
    assert_eq!(s.prefetch_tick(0).unwrap(), 0);
}

#[test]
fn progressive_estimates_are_monotone_in_epsilon() {
    let mut s = session(400);
    s.set_param("purchase1", 16).unwrap();
    s.engine().clear_basis();
    // Tighter epsilon must need at least as many worlds.
    let loose = s.progressive_expect("overload", 30, 0.10, 10).unwrap();
    s.engine().clear_basis();
    let tight = s.progressive_expect("overload", 30, 0.02, 10).unwrap();
    assert!(
        tight.worlds_used >= loose.worlds_used,
        "tight {} vs loose {}",
        tight.worlds_used,
        loose.worlds_used
    );
}

#[test]
fn exported_series_match_the_chart_and_csv() {
    let mut s = session(24);
    s.refresh().unwrap();
    assert_eq!(s.graph().len(), 3);
    for series in s.graph() {
        assert_eq!(series.xy().len(), 53);
    }
    let series: Vec<_> = s.graph().iter().collect();
    let chart = ascii_chart(&series, 80, 12);
    assert!(chart.contains("EXPECT overload"));
    let csv = series_csv(&series);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 54, "header + 53 weeks");
    assert!(lines[0].starts_with("x,EXPECT overload"));
}

#[test]
fn session_results_summarize_from_sample_sets() {
    let engine = Engine::new(
        &Scenario::figure2().unwrap(),
        demo_registry(),
        EngineConfig {
            worlds_per_point: 20,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut sets = Vec::new();
    for week in [0i64, 10, 20] {
        let point = ParamPoint::from_pairs([
            ("current", week),
            ("purchase1", 16i64),
            ("purchase2", 36),
            ("feature", 12),
        ]);
        sets.push(engine.evaluate(&point).unwrap().0);
    }
    let worlds: usize = sets.iter().map(|ss| ss.world_count()).sum();
    assert_eq!(worlds, 60, "3 points × 20 worlds");
    assert!(sets.iter().all(|ss| ss.samples("demand").is_some()));

    let e0 = sets[0].stats("demand").unwrap().mean;
    assert!((7_000.0..9_500.0).contains(&e0), "week-0 demand {e0}");
}

/// Whether `y` is exactly the correctly rounded `k / n` for an integer `k`
/// — the mean an indicator column must get from the aggregator.
fn is_exact_fraction(y: f64, n: u64) -> bool {
    let k = (y * n as f64).round();
    y.to_bits() == (k / n as f64).to_bits()
}

#[test]
fn rendered_overload_expectations_are_exact_fractions() {
    let mut s = session(400);
    s.refresh().unwrap();
    let overload = s.series("overload").unwrap();
    assert_eq!(overload.points.len(), 53);
    for p in &overload.points {
        assert!(is_exact_fraction(p.y, p.worlds), "week {}: {}", p.x, p.y);
    }
}

#[test]
fn inventory_constraint_values_are_exact_fractions() {
    // `stockout` is `CASE WHEN on_hand <= 0 THEN 1 ELSE 0 END`: one 0/1
    // sample per world, so each week's `EXPECT stockout` is j/400 and so
    // is their `MAX`.
    let prophet = Prophet::builder()
        .scenario_sql("inventory", prophet_models::scenarios::INVENTORY_POLICY)
        .unwrap()
        .registry(prophet_models::full_registry())
        .config(EngineConfig {
            worlds_per_point: 400,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    let report = prophet
        .submit(JobSpec::sweep("inventory"))
        .unwrap()
        .wait()
        .unwrap()
        .into_sweep()
        .unwrap();
    assert_eq!(report.answers.len(), 21);
    for answer in &report.answers {
        let v = answer.constraint_values[0];
        assert!(is_exact_fraction(v, 400), "{:?}: {v}", answer.point);
    }
}

#[test]
fn slider_round_trip_restores_cached_graph() {
    let mut s = session(24);
    s.set_param("feature", 36).unwrap();
    let overload_before: Vec<(f64, f64)> = s.series("overload").unwrap().xy();
    s.set_param("feature", 44).unwrap();
    let report = s.set_param("feature", 36).unwrap();
    // Coming back to an already-computed slider value is pure cache.
    assert_eq!(report.weeks_simulated, 0);
    assert_eq!(report.weeks_cached, 53);
    let overload_after: Vec<(f64, f64)> = s.series("overload").unwrap().xy();
    assert_eq!(
        overload_before, overload_after,
        "cache must reproduce the graph exactly"
    );
}

#[test]
fn metrics_accumulate_across_adjustments() {
    let mut s = session(16);
    s.refresh().unwrap();
    let m1 = s.metrics();
    s.set_param("purchase2", 40).unwrap();
    let m2 = s.metrics();
    assert!(m2.points_total() > m1.points_total());
    let delta = m2.since(&m1);
    assert_eq!(
        delta.points_total(),
        53,
        "one adjustment touches every week once"
    );
}
