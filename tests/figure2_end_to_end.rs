//! End-to-end reproduction of the paper's demonstration (§3): the Figure-2
//! scenario through both the online and offline interfaces, asserting the
//! qualitative shapes the paper describes.

use fuzzy_prophet::prelude::*;
use prophet_models::demo_registry;

fn config(worlds: usize) -> EngineConfig {
    EngineConfig {
        worlds_per_point: worlds,
        ..EngineConfig::default()
    }
}

/// One-scenario service, the way applications reach the engine now.
fn service(scenario: Scenario, cfg: EngineConfig) -> Prophet {
    Prophet::builder()
        .scenario("s", scenario)
        .registry(demo_registry())
        .config(cfg)
        .build()
        .unwrap()
}

fn online(scenario: Scenario, cfg: EngineConfig) -> OnlineSession {
    service(scenario, cfg).online("s").unwrap()
}

/// The scenario's OPTIMIZE sweep, as a job on a fresh service.
fn sweep(scenario: Scenario, cfg: EngineConfig) -> OfflineReport {
    service(scenario, cfg)
        .submit(JobSpec::sweep("s"))
        .unwrap()
        .wait()
        .unwrap()
        .into_sweep()
        .unwrap()
}

/// A session on the full Figure 2 at the demo's default sliders (§3.2),
/// rendered.
fn demo_session(worlds: usize) -> OnlineSession {
    let mut session = online(Scenario::figure2().unwrap(), config(worlds));
    session.set_param("purchase1", 16).unwrap();
    session.set_param("purchase2", 36).unwrap();
    session.set_param("feature", 12).unwrap();
    session
}

/// A reduced-grid variant of Figure 2 so offline sweeps stay fast in CI.
const FIGURE2_SMALL: &str = "\
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 12;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 12;
DECLARE PARAMETER @feature AS SET (12,36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current
    EXPECT overload WITH bold red,
    EXPECT capacity WITH blue y2,
    EXPECT_STDDEV demand WITH orange y2;
OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.05
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2";

#[test]
fn online_graph_has_the_papers_dynamics() {
    let mut session = demo_session(120);
    session.refresh().unwrap();

    let overload = session.series("overload").unwrap();
    let capacity = session.series("capacity").unwrap();
    let demand_sd = session.series("demand").unwrap();

    // Every series covers all 53 weeks.
    assert_eq!(overload.points.len(), 53);
    assert_eq!(capacity.points.len(), 53);
    assert_eq!(demand_sd.points.len(), 53);

    // Overload probability is a probability.
    for p in &overload.points {
        assert!((0.0..=1.0).contains(&p.y), "week {}: {}", p.x, p.y);
    }

    // Demand std-dev is within sane range of the model's noise floor
    // (400 base, 300 more after release).
    for p in &demand_sd.points {
        assert!((250.0..700.0).contains(&p.y), "week {}: sd {}", p.x, p.y);
    }

    // The paper's story: risk spikes between the feature release (week 12)
    // and the first purchase deployment (week 16 + lag), then falls once
    // hardware lands, then rises again late-year as growth eats the margin.
    let calm = overload.at(5).unwrap().y;
    let spike = overload.at(15).unwrap().y;
    let relieved = overload.at(24).unwrap().y;
    assert!(
        spike > calm + 0.2,
        "release spike: calm={calm} spike={spike}"
    );
    assert!(
        relieved < spike,
        "deployment must relieve: spike={spike} relieved={relieved}"
    );

    // Capacity jumps by ~4000 cores when the first purchase deploys.
    let before = capacity.at(14).unwrap().y;
    let after = capacity.at(22).unwrap().y;
    assert!(
        after - before > 2_500.0,
        "deployment adds cores: before={before} after={after}"
    );
}

#[test]
fn offline_answer_moves_with_the_risk_threshold() {
    let strict = sweep(Scenario::parse(FIGURE2_SMALL).unwrap(), config(80));

    let relaxed_src = FIGURE2_SMALL.replace("< 0.05", "< 0.25");
    let relaxed = sweep(Scenario::parse(&relaxed_src).unwrap(), config(80));

    // Relaxing the constraint can only widen the feasible set.
    assert!(relaxed.feasible().count() >= strict.feasible().count());

    // And the relaxed optimum defers purchases at least as late (the
    // objectives maximize purchase weeks).
    if let (Some(s), Some(r)) = (&strict.best, &relaxed.best) {
        let s1 = s.point.get("purchase1").unwrap();
        let r1 = r.point.get("purchase1").unwrap();
        assert!(
            r1 >= s1,
            "relaxed should defer at least as late: strict={s1} relaxed={r1}"
        );
    }

    // Every reported feasible answer must actually satisfy the constraint.
    for a in strict.feasible() {
        assert!(a.constraint_values[0] < 0.05, "{a:?}");
    }
}

#[test]
fn fingerprints_cut_offline_work_without_changing_the_answer() {
    let run = |enabled: bool| {
        let cfg = EngineConfig {
            worlds_per_point: 80,
            fingerprints_enabled: enabled,
            ..EngineConfig::default()
        };
        sweep(Scenario::parse(FIGURE2_SMALL).unwrap(), cfg)
    };
    let with_fp = run(true);
    let without_fp = run(false);

    // Same winner (fingerprint reuse must not change the decision).
    assert_eq!(
        with_fp.best.as_ref().map(|b| b.point.clone()),
        without_fp.best.as_ref().map(|b| b.point.clone()),
    );

    // And materially less simulation work (the paper's core claim).
    assert!(
        with_fp.metrics.worlds_simulated < without_fp.metrics.worlds_simulated / 2,
        "with: {} worlds, without: {} worlds",
        with_fp.metrics.worlds_simulated,
        without_fp.metrics.worlds_simulated
    );
    assert!(with_fp.metrics.points_mapped > 0);
    assert_eq!(without_fp.metrics.points_mapped, 0);
}

#[test]
fn exploration_map_matches_engine_metrics() {
    let scenario = Scenario::parse(FIGURE2_SMALL).unwrap();
    let p1 = scenario.script().param("purchase1").unwrap().clone();
    let p2 = scenario.script().param("purchase2").unwrap().clone();
    let handle = service(scenario, config(40))
        .submit(JobSpec::sweep("s"))
        .unwrap();
    // The map fills from the job's chunk stream, as `prophet --map` does.
    let mut map = ExplorationMap::new(&p1, &p2);
    let mut report = None;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(update) => {
                for (full, outcome) in &update.results {
                    map.record(full, outcome);
                }
            }
            JobEvent::Final(output) => report = Some(output.into_sweep().unwrap()),
            other => panic!("unexpected event {other:?}"),
        }
    }
    let report = report.expect("the sweep finishes");

    let (computed, mapped, cached, pending) = map.tally();
    assert_eq!(pending, 0, "the sweep visits every cell of the slice");
    assert!(computed > 0);
    assert!(
        mapped + cached > 0,
        "Figure 4 shows mappings; the map must too"
    );
    // Engine-level points and map cells agree in spirit: every evaluation
    // was observed.
    assert_eq!(report.metrics.points_total() as usize, {
        // groups × axis size: 5 × 5 × 2 groups × 14 axis points
        report.groups_total * 14
    });
}

#[test]
fn online_adjustment_is_cheaper_than_first_render() {
    let mut session = online(Scenario::figure2().unwrap(), config(60));
    let first = session.refresh().unwrap();
    let adjust = session.set_param("purchase2", 40).unwrap();
    assert!(
        adjust.weeks_simulated < first.weeks_simulated,
        "first render {} vs adjustment {}",
        first.weeks_simulated,
        adjust.weeks_simulated
    );
    // Engine metrics must show real fingerprint reuse for the session.
    let m = session.metrics();
    assert!(m.points_mapped + m.points_cached > 0);
}

/// §3.2: changing the feature release date re-simulates only the weeks
/// between the two release dates and re-maps or re-serves the rest
/// "despite the slope of the usage graph changing". Inequalities, not
/// pinned counts: the claim bounds the simulated weeks from above.
#[test]
fn feature_date_change_resimulates_only_the_weeks_between_the_dates() {
    let mut session = demo_session(100);

    let later = session.set_param("feature", 36).unwrap();
    assert_eq!(later.weeks_total, 53);
    assert!(later.weeks_simulated <= 24, "12 → 36: {later:?}");
    assert!(later.weeks_reused() >= 29, "12 → 36: {later:?}");

    let later_still = session.set_param("feature", 44).unwrap();
    assert!(later_still.weeks_simulated <= 8, "36 → 44: {later_still:?}");

    // Back to a setting the session has rendered: nothing to recompute.
    let back = session.set_param("feature", 12).unwrap();
    assert_eq!(
        (back.weeks_simulated, back.weeks_cached),
        (0, 53),
        "44 → 12: {back:?}"
    );
}
