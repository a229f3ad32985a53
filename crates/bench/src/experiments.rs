//! The ten experiments. Each function runs one experiment and returns a
//! human-readable report (tables the paper's figures correspond to).

use std::fmt::Write as _;
use std::time::Instant;

use fuzzy_prophet::prelude::*;
use fuzzy_prophet::render::ascii_chart;
use prophet_fingerprint::{analyze_chain, CorrelationDetector, Fingerprint};
use prophet_models::{demo_registry, CapacityModel};
use prophet_vg::rng::SeedSequence;
use prophet_vg::SeedManager;

use crate::workloads::{
    demo_optimizer, figure2_coarse, standard_config, warm_session, DEFAULT_FEATURE,
    DEFAULT_PURCHASE1, DEFAULT_PURCHASE2,
};

/// E1 — the Figure-2 scenario parses and runs end-to-end.
pub fn e1_figure2_end_to_end() -> String {
    let mut out = String::from("E1: Figure 2 scenario — parse & run end-to-end\n");
    let t0 = Instant::now();
    let scenario = Scenario::figure2().expect("Figure 2 parses");
    let parse_time = t0.elapsed();
    let script = scenario.script();
    let _ = writeln!(
        out,
        "  parsed in {parse_time:?}: {} parameters, {} output columns, graph={}, optimize={}",
        script.params.len(),
        script.output_columns().len(),
        script.graph.is_some(),
        script.optimize.is_some()
    );
    let _ = writeln!(
        out,
        "  parameter space: {} points",
        scenario.parameter_space_size()
    );

    let engine =
        Engine::new(&scenario, demo_registry(), standard_config(400)).expect("engine construction");
    let point = ParamPoint::from_pairs([
        ("current", 20i64),
        ("purchase1", DEFAULT_PURCHASE1),
        ("purchase2", DEFAULT_PURCHASE2),
        ("feature", DEFAULT_FEATURE),
    ]);
    let t1 = Instant::now();
    let (samples, outcome) = engine.evaluate(&point).expect("evaluation");
    let eval_time = t1.elapsed();
    let _ = writeln!(
        out,
        "  evaluated {point} ({outcome:?}) in {eval_time:?}: E[demand]={:.0}  E[capacity]={:.0}  E[overload]={:.3}",
        samples.expect("demand").unwrap(),
        samples.expect("capacity").unwrap(),
        samples.expect("overload").unwrap(),
    );
    out
}

/// E2 — Figure 3: the online graph series (per-week E\[overload\],
/// E\[capacity\], σ\[demand\]).
pub fn e2_online_graph(worlds: usize) -> String {
    let mut out = String::from("E2: Figure 3 — online graph series\n");
    let t0 = Instant::now();
    let session = warm_session(worlds);
    let _ = writeln!(
        out,
        "  rendered in {:?} ({} worlds/point)\n",
        t0.elapsed(),
        worlds
    );

    let series: Vec<_> = session.graph().iter().collect();
    out.push_str(&ascii_chart(&series, 100, 16));
    out.push('\n');

    let overload = session.series("overload").unwrap();
    let capacity = session.series("capacity").unwrap();
    let demand_sd = session.series("demand").unwrap();
    let _ = writeln!(out, "  week  E[overload]  E[capacity]  sd[demand]");
    for week in (0..=52).step_by(4) {
        let _ = writeln!(
            out,
            "  {week:>4}  {:>11.3}  {:>11.0}  {:>10.0}",
            overload.at(week).map(|p| p.y).unwrap_or(f64::NAN),
            capacity.at(week).map(|p| p.y).unwrap_or(f64::NAN),
            demand_sd.at(week).map(|p| p.y).unwrap_or(f64::NAN),
        );
    }
    out
}

/// E3 — §3.2: a second slider adjustment re-renders only changed portions.
pub fn e3_adjustment_rerender(worlds: usize) -> String {
    let mut out = String::from("E3: slider adjustment re-renders only changed portions (§3.2)\n");
    let mut session = warm_session(worlds);
    let first_metrics = session.engine().metrics();
    let _ = writeln!(
        out,
        "  first render:   cold start — {} points simulated, {} intra-sweep mapped \
         ({} worlds simulated)",
        first_metrics.points_simulated, first_metrics.points_mapped, first_metrics.worlds_simulated
    );
    for (from, to) in [(DEFAULT_PURCHASE2, 40i64), (40, 44), (44, 36)] {
        let report = session.set_param("purchase2", to).expect("valid slider");
        let _ = writeln!(
            out,
            "  @purchase2 {from:>2} → {to:<2}: {:>2} simulated / {:>2} mapped / {:>2} cached of {} weeks \
             (re-render fraction {:.2}) in {:?}",
            report.weeks_simulated,
            report.weeks_mapped,
            report.weeks_cached,
            report.weeks_total,
            report.rerender_fraction(),
            report.wall,
        );
    }
    out
}

/// E4 — §3.2: changing the feature release date still re-maps most of the
/// graph "despite the slope of the usage graph changing".
pub fn e4_feature_change(worlds: usize) -> String {
    let mut out = String::from("E4: feature-date change re-maps despite slope change (§3.2)\n");
    let mut session = warm_session(worlds);
    for (from, to) in [(12i64, 36i64), (36, 44), (44, 12)] {
        let report = session.set_param("feature", to).expect("valid slider");
        let _ = writeln!(
            out,
            "  @feature {from:>2} → {to:<2}: {:>2} simulated / {:>2} mapped / {:>2} cached of {} weeks \
             (re-render fraction {:.2})",
            report.weeks_simulated,
            report.weeks_mapped,
            report.weeks_cached,
            report.weeks_total,
            report.rerender_fraction(),
        );
    }
    out.push_str(
        "  note: only the weeks between the two release dates change distribution; the\n\
         \x20 engine re-simulates those and re-maps/caches the rest.\n",
    );
    out
}

/// E5 — Figure 4: 2D slice of fingerprint mappings for the Capacity model
/// over (purchase1, purchase2).
pub fn e5_exploration_map(worlds: usize) -> String {
    let mut out = String::from("E5: Figure 4 — fingerprint mappings over (purchase1, purchase2)\n");
    let scenario = figure2_coarse(0.05);
    let p1 = scenario.script().param("purchase1").unwrap().clone();
    let p2 = scenario.script().param("purchase2").unwrap().clone();
    let optimizer = demo_optimizer(scenario, standard_config(worlds));
    let mut map = ExplorationMap::new(&p1, &p2);
    let t0 = Instant::now();
    optimizer
        .run_with_observer(|_, full, outcome| map.record(full, outcome))
        .expect("sweep");
    let _ = writeln!(out, "  sweep completed in {:?}\n", t0.elapsed());
    out.push_str(&map.render_ascii());
    let (computed, mapped, cached, pending) = map.tally();
    let _ = writeln!(
        out,
        "\n  cells: {computed} computed, {mapped} mapped, {cached} cached, {pending} pending; \
         reuse fraction {:.2}; {} mapping edges",
        map.reuse_fraction(),
        map.edges().len()
    );
    out
}

/// E6 — §3.3: the OPTIMIZE answer at the SQL text's 1% threshold and the
/// prose's 5% threshold.
pub fn e6_offline_optimization(worlds: usize) -> String {
    let mut out = String::from("E6: offline optimization — latest safe purchase plan (§3.3)\n");
    for threshold in [0.01, 0.05] {
        let optimizer = demo_optimizer(figure2_coarse(threshold), standard_config(worlds));
        let t0 = Instant::now();
        let report = optimizer.run().expect("sweep");
        let _ = writeln!(
            out,
            "  max E[overload] < {threshold:<4}: {} groups, {} feasible, wall {:?}",
            report.groups_total,
            report.feasible().count(),
            t0.elapsed()
        );
        match &report.best {
            Some(best) => {
                let _ = writeln!(
                    out,
                    "    best: purchase1=week {:>2}, purchase2=week {:>2}, feature=week {:>2} \
                     (worst-week E[overload] {:.4})",
                    best.point.get("purchase1").unwrap(),
                    best.point.get("purchase2").unwrap(),
                    best.point.get("feature").unwrap(),
                    best.constraint_values[0]
                );
            }
            None => {
                let _ = writeln!(out, "    best: none (no feasible plan)");
            }
        }
    }
    out
}

/// E7 — fingerprints expedite offline exploration: same sweep with the
/// technique on and off.
pub fn e7_fingerprint_speedup(worlds: usize) -> String {
    let mut out = String::from("E7: offline sweep with fingerprints on vs off\n");
    let mut results = Vec::new();
    for enabled in [true, false] {
        let cfg = EngineConfig {
            worlds_per_point: worlds,
            fingerprints_enabled: enabled,
            ..EngineConfig::default()
        };
        let optimizer = demo_optimizer(figure2_coarse(0.05), cfg);
        let t0 = Instant::now();
        let report = optimizer.run().expect("sweep");
        let wall = t0.elapsed();
        let _ = writeln!(
            out,
            "  fingerprints {}: wall {wall:?}; {}",
            if enabled { "ON " } else { "OFF" },
            report.metrics
        );
        results.push((report, wall));
    }
    let (with_fp, with_wall) = &results[0];
    let (without_fp, without_wall) = &results[1];
    let _ = writeln!(
        out,
        "  same answer: {}",
        with_fp.best.as_ref().map(|b| &b.point) == without_fp.best.as_ref().map(|b| &b.point)
    );
    let _ = writeln!(
        out,
        "  worlds simulated: {} vs {} ({:.1}x fewer)",
        with_fp.metrics.worlds_simulated,
        without_fp.metrics.worlds_simulated,
        without_fp.metrics.worlds_simulated as f64 / with_fp.metrics.worlds_simulated.max(1) as f64
    );
    let _ = writeln!(
        out,
        "  wall speedup: {:.2}x",
        without_wall.as_secs_f64() / with_wall.as_secs_f64().max(1e-9)
    );
    out
}

/// E8 — basis reuse lowers time-to-first-accurate-guess.
pub fn e8_first_accurate_guess(worlds: usize) -> String {
    let mut out = String::from("E8: time to first accurate guess — cold vs warm basis\n");
    let epsilon = 0.04;
    let _ = writeln!(
        out,
        "  convergence: 95% CI half-width <= {epsilon} on E[overload]\n"
    );
    let _ = writeln!(out, "  week  cold worlds  warm worlds  cold E  warm E");
    let mut warm = warm_session(worlds);
    for week in [10i64, 15, 25, 40, 52] {
        let mut cold = crate::workloads::cold_session(worlds);
        cold.set_param("purchase1", DEFAULT_PURCHASE1).unwrap();
        cold.set_param("purchase2", DEFAULT_PURCHASE2).unwrap();
        cold.set_param("feature", DEFAULT_FEATURE).unwrap();
        // Cold estimate: a fresh engine with an empty basis per week probe.
        cold.engine().clear_basis();
        let cold_est = cold
            .progressive_expect("overload", week, epsilon, 20)
            .unwrap();
        let warm_est = warm
            .progressive_expect("overload", week, epsilon, 20)
            .unwrap();
        let _ = writeln!(
            out,
            "  {week:>4}  {:>11}  {:>11}  {:>6.3}  {:>6.3}{}",
            cold_est.worlds_used,
            warm_est.worlds_used,
            cold_est.estimate,
            warm_est.estimate,
            if warm_est.used_basis {
                "  (basis hit)"
            } else {
                ""
            }
        );
    }
    out
}

/// E9 — Markovian-region estimators let the simulator skip chain segments.
pub fn e9_markov_regions() -> String {
    let mut out = String::from("E9: Markov-region estimators on the capacity chain (§2)\n");
    let model = CapacityModel::default();
    let seeds = SeedManager::new(0xE9);
    // Step fingerprints: capacity at each week across fixed worlds.
    let n_worlds = 64usize;
    let weeks = 52usize;
    let trajectories: Vec<Vec<f64>> = (0..n_worlds)
        .map(|w| {
            let mut rng = seeds.rng_for(w as u64, "CapacityModel", 0);
            model
                .trajectory(weeks as i64, 16, 36, &mut rng)
                .expect("a 52-week horizon is inside the model's bound")
        })
        .collect();
    // steps[i][w] = world w's capacity at week i
    let steps: Vec<Vec<f64>> = (0..=weeks)
        .map(|i| trajectories.iter().map(|t| t[i]).collect())
        .collect();

    let regions = analyze_chain(&steps, 0.98);
    let total_skippable: usize = regions.iter().map(|r| r.steps_skipped()).sum();
    let _ = writeln!(
        out,
        "  chain: {} steps × {} worlds; {} affine regions found, {} steps skippable",
        weeks + 1,
        n_worlds,
        regions.len(),
        total_skippable
    );
    let _ = writeln!(
        out,
        "\n  region  span          skipped  est error (worlds RMS)"
    );
    for region in &regions {
        let est = region.estimator();
        // prediction error of the region estimator against the actual end
        let rms = {
            let mut acc = 0.0;
            for t in &trajectories {
                let pred = est.predict(t[region.start]);
                let actual = t[region.end];
                acc += (pred - actual).powi(2);
            }
            (acc / n_worlds as f64).sqrt()
        };
        let _ = writeln!(
            out,
            "  {:>6}  week {:>2}..{:<3}  {:>7}  {:>8.1} cores",
            format!("[{},{}]", region.start, region.end),
            region.start,
            region.end,
            region.steps_skipped(),
            rms
        );
    }
    let _ = writeln!(
        out,
        "\n  deployments (week ~{} and ~{}) break the chain into regions — exactly the\n\
         \x20 'discrete events occurring at random points in time' the paper highlights.",
        18, 38
    );
    out
}

/// E10 — ablation: fingerprint length vs mapping detection quality.
///
/// Ground truth pairs from the demo scenario: positives are parameter
/// changes that provably leave outputs identical or offset (feature moves
/// that stay on one side of the week, purchase moves across the week);
/// negatives are demand distributions across the release boundary paired
/// with far-apart weeks.
pub fn e10_fingerprint_length_ablation() -> String {
    let mut out = String::from("E10: fingerprint length vs detection quality\n");
    let registry = demo_registry();
    let seeds = SeedManager::new(EngineConfig::default().root_seed);
    let detector = CorrelationDetector::default();

    // Probe demand & capacity outputs at a point under the canonical seeds.
    let probe =
        |len: usize, current: i64, p1: i64, p2: i64, feature: i64| -> (Fingerprint, Fingerprint) {
            let seq = SeedSequence::fingerprint_default(len);
            let mut demand = Vec::with_capacity(len);
            let mut capacity = Vec::with_capacity(len);
            for &world in seq.seeds() {
                let mut rng_d = seeds.rng_for(world, "DemandModel", 0);
                let d = registry
                    .invoke(
                        "DemandModel",
                        &[
                            prophet_data::Value::Int(current),
                            prophet_data::Value::Int(feature),
                        ],
                        &mut rng_d,
                    )
                    .unwrap()
                    .cell(0, "demand")
                    .unwrap()
                    .as_f64()
                    .unwrap();
                let mut rng_c = seeds.rng_for(world, "CapacityModel", 1);
                let c = registry
                    .invoke(
                        "CapacityModel",
                        &[
                            prophet_data::Value::Int(current),
                            prophet_data::Value::Int(p1),
                            prophet_data::Value::Int(p2),
                        ],
                        &mut rng_c,
                    )
                    .unwrap()
                    .cell(0, "capacity")
                    .unwrap()
                    .as_f64()
                    .unwrap();
                demand.push(d);
                capacity.push(c);
            }
            (
                Fingerprint::from_values(demand),
                Fingerprint::from_values(capacity),
            )
        };

    let _ = writeln!(out, "  len  true-pos rate  false-pos rate  probes/point");
    for len in [4usize, 8, 16, 32, 64, 128] {
        let mut true_pos = 0;
        let mut pos_total = 0;
        let mut false_pos = 0;
        let mut neg_total = 0;
        // Positives: capacity under purchase shifts (exact offsets) and
        // demand under feature moves on the same side of the week.
        for (a, b) in [
            ((10, 4, 36, 12), (10, 16, 36, 12)), // purchase crosses week → offset
            ((5, 16, 36, 12), (5, 16, 36, 44)),  // feature far future → identity
            ((30, 4, 8, 12), (30, 4, 12, 12)),   // both purchases deployed → identity
            ((20, 4, 36, 12), (20, 8, 36, 12)),  // deployed purchase shifted → identity
        ] {
            let (da, ca) = probe(len, a.0, a.1, a.2, a.3);
            let (db, cb) = probe(len, b.0, b.1, b.2, b.3);
            pos_total += 2;
            if detector.detect(&da, &db).is_some() {
                true_pos += 1;
            }
            if detector.detect(&ca, &cb).is_some() {
                true_pos += 1;
            }
        }
        // Negatives: demand across the release boundary (independent
        // gaussian added) and far-apart weeks of different points.
        for (a, b) in [
            ((20, 4, 8, 12), (20, 4, 8, 36)),  // across release boundary
            ((2, 0, 4, 12), (50, 40, 44, 44)), // unrelated corners
        ] {
            let (da, _) = probe(len, a.0, a.1, a.2, a.3);
            let (db, _) = probe(len, b.0, b.1, b.2, b.3);
            neg_total += 1;
            if detector.detect(&da, &db).is_some() {
                false_pos += 1;
            }
        }
        let _ = writeln!(
            out,
            "  {len:>3}  {:>13.2}  {:>14.2}  {:>12}",
            true_pos as f64 / pos_total as f64,
            false_pos as f64 / neg_total as f64,
            len
        );
    }
    out.push_str(
        "  shape: detection saturates by length ~16-32 while probe cost grows linearly —\n\
         \x20 motivating the default length of 32.\n",
    );
    out
}

/// Run every experiment (worlds parameter scales the Monte Carlo effort).
pub fn run_all(worlds: usize) -> String {
    let mut out = String::new();
    let parts: Vec<String> = vec![
        e1_figure2_end_to_end(),
        e2_online_graph(worlds),
        e3_adjustment_rerender(worlds),
        e4_feature_change(worlds),
        e5_exploration_map(worlds.min(150)),
        e6_offline_optimization(worlds.min(150)),
        e7_fingerprint_speedup(worlds.min(100)),
        e8_first_accurate_guess(worlds),
        e9_markov_regions(),
        e10_fingerprint_length_ablation(),
    ];
    for p in parts {
        out.push_str(&p);
        out.push_str(
            "\n----------------------------------------------------------------------\n\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests: every experiment runs on tiny budgets and produces the
    // key lines its report promises.

    #[test]
    fn e1_reports_shape() {
        let r = e1_figure2_end_to_end();
        assert!(r.contains("4 parameters"));
        assert!(r.contains("31164 points") || r.contains("parameter space"));
    }

    #[test]
    fn e2_emits_all_weeks() {
        let r = e2_online_graph(8);
        assert!(r.contains("week  E[overload]"));
        let table_rows = r
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count();
        assert!(
            table_rows >= 14,
            "expected a row per 4-week step, got {table_rows}:\n{r}"
        );
    }

    #[test]
    fn e3_shows_partial_rerender() {
        let r = e3_adjustment_rerender(8);
        assert!(r.contains("re-render fraction"));
    }

    #[test]
    fn e5_map_has_no_pending_cells() {
        let r = e5_exploration_map(8);
        assert!(r.contains("0 pending"), "{r}");
    }

    #[test]
    fn e9_finds_multiple_regions() {
        let r = e9_markov_regions();
        assert!(r.contains("regions found"));
    }

    #[test]
    fn e10_reports_all_lengths() {
        let r = e10_fingerprint_length_ablation();
        for len in ["  4 ", "  8 ", " 16 ", " 32 ", " 64 ", "128 "] {
            assert!(r.contains(len.trim_end()), "missing {len}: {r}");
        }
    }
}
