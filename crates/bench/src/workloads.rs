//! Shared workload definitions for the experiment harness.

use fuzzy_prophet::prelude::*;
use prophet_models::demo_registry;

/// The demo's default slider settings (§3.2): first purchase week 16,
/// second week 36, feature release week 12.
pub const DEFAULT_PURCHASE1: i64 = 16;
/// See [`DEFAULT_PURCHASE1`].
pub const DEFAULT_PURCHASE2: i64 = 36;
/// See [`DEFAULT_PURCHASE1`].
pub const DEFAULT_FEATURE: i64 = 12;

/// A reduced-grid Figure 2 used by sweep-heavy experiments: identical
/// structure, coarser purchase grid so full sweeps complete in seconds.
/// `{THRESHOLD}` is substituted by the caller. (Shared with the examples
/// and differential tests through `prophet_models::scenarios`.)
pub use prophet_models::scenarios::FIGURE2_COARSE;

/// The coarse scenario with a threshold substituted in.
pub fn figure2_coarse(threshold: f64) -> Scenario {
    Scenario::parse(&prophet_models::scenarios::figure2_coarse_sql(threshold))
        .expect("coarse Figure 2 must parse")
}

/// Engine config used across experiments unless a knob is under study.
pub fn standard_config(worlds: usize) -> EngineConfig {
    EngineConfig {
        worlds_per_point: worlds,
        ..EngineConfig::default()
    }
}

/// A single-scenario service over the demo registry — each call builds a
/// fresh service (fresh basis store), which is what cold-vs-warm
/// comparisons need.
pub fn demo_service(scenario: Scenario, config: EngineConfig) -> Prophet {
    Prophet::builder()
        .scenario("bench", scenario)
        .registry(demo_registry())
        .config(config)
        .build()
        .expect("service construction")
}

/// An offline optimizer on a fresh service.
pub fn demo_optimizer(scenario: Scenario, config: EngineConfig) -> OfflineOptimizer {
    demo_service(scenario, config)
        .offline("bench")
        .expect("OPTIMIZE directive present")
}

/// An online session on the *full* Figure-2 scenario at the demo's default
/// sliders, already refreshed once (warm graph).
pub fn warm_session(worlds: usize) -> OnlineSession {
    let mut session = cold_session(worlds);
    session
        .set_param("purchase1", DEFAULT_PURCHASE1)
        .expect("valid slider");
    session
        .set_param("purchase2", DEFAULT_PURCHASE2)
        .expect("valid slider");
    session
        .set_param("feature", DEFAULT_FEATURE)
        .expect("valid slider");
    session.refresh().expect("initial render");
    session
}

/// A fresh (cold) session on the full Figure-2 scenario — *not* refreshed,
/// sliders at their domain minima. Callers set sliders themselves (which
/// costs a refresh each) or measure the cold render directly.
pub fn cold_session(worlds: usize) -> OnlineSession {
    demo_service(
        Scenario::figure2().expect("Figure 2 parses"),
        standard_config(worlds),
    )
    .online("bench")
    .expect("session construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_scenario_parses_for_both_thresholds() {
        assert_eq!(figure2_coarse(0.01).script().params.len(), 4);
        let s = figure2_coarse(0.05);
        assert!(
            (s.script().optimize.as_ref().unwrap().constraints[0].threshold - 0.05).abs() < 1e-12
        );
    }

    #[test]
    fn warm_session_has_a_full_graph() {
        let s = warm_session(8);
        assert_eq!(s.graph()[0].points.len(), 53);
        assert_eq!(s.sliders().get("purchase1"), Some(DEFAULT_PURCHASE1));
    }
}
