//! Integration tests for the `Prophet` service facade: the builder
//! round-trip, cross-session basis sharing, and the typed error
//! hierarchy.

use fuzzy_prophet::prelude::*;
use prophet_models::demo_registry;

fn figure2_service(worlds: usize) -> Prophet {
    Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: worlds,
            ..EngineConfig::default()
        })
        .build()
        .unwrap()
}

#[test]
fn builder_round_trip_with_cross_session_reuse() {
    // The acceptance path: register Figure 2, open two online sessions, and
    // assert the second session's initial render reuses basis entries the
    // first produced.
    let prophet = figure2_service(24);

    let mut first = prophet.online("figure2").unwrap();
    let cold = first.refresh().unwrap();
    assert!(
        cold.weeks_simulated > 0,
        "cold start must simulate: {cold:?}"
    );
    assert_eq!(cold.weeks_cached, 0);
    let entries = prophet.basis_len("figure2").unwrap();
    assert!(entries > 0, "first render must populate the shared store");

    let mut second = prophet.online("figure2").unwrap();
    let warm = second.refresh().unwrap();
    assert!(
        warm.weeks_mapped + warm.weeks_cached > 0,
        "second session's first refresh must reuse shared basis entries: {warm:?}"
    );
    assert_eq!(
        warm.weeks_simulated, 0,
        "same sliders ⇒ nothing left to simulate: {warm:?}"
    );

    // The reuse is through one store, not coincidence.
    assert!(first
        .engine()
        .basis_store()
        .shares_storage_with(second.engine().basis_store()));
}

#[test]
fn cross_session_reuse_survives_different_sliders() {
    let prophet = figure2_service(16);
    let mut first = prophet.online("figure2").unwrap();
    first.set_param("purchase1", 16).unwrap();
    first.set_param("purchase2", 36).unwrap();

    // The second session starts at the domain minima — a parameter point
    // the first session never rendered — yet still re-maps/caches most of
    // its first graph from the first session's simulations.
    let mut second = prophet.online("figure2").unwrap();
    let warm = second.refresh().unwrap();
    assert!(
        warm.weeks_mapped + warm.weeks_cached > 0,
        "fingerprint re-mapping must cross session boundaries: {warm:?}"
    );
}

#[test]
fn online_work_warms_the_offline_sweep() {
    let prophet = Prophet::builder()
        .scenario("figure2", Scenario::figure2().unwrap())
        .registry(demo_registry())
        .worlds_per_point(8)
        .build()
        .unwrap();
    let mut session = prophet.online("figure2").unwrap();
    session.refresh().unwrap();
    let warmed = prophet.basis_len("figure2").unwrap();
    assert!(warmed > 0);
    // An engine handed out later sees those entries as exact cache hits.
    let engine = prophet.engine("figure2").unwrap();
    let point = ParamPoint::from_pairs([
        ("current", 0i64),
        ("purchase1", 0),
        ("purchase2", 0),
        ("feature", 12),
    ]);
    let (_, outcome) = engine.evaluate(&point).unwrap();
    assert_eq!(
        outcome,
        EvalOutcome::Cached,
        "week 0 at minima was rendered by the session"
    );
}

#[test]
fn unknown_param_regression_lists_valid_names() {
    // Satellite regression: `set_param` on an unknown parameter must return
    // the structured UnknownParam variant naming the valid sliders — not a
    // generic eval error.
    let prophet = figure2_service(8);
    let mut session = prophet.online("figure2").unwrap();
    match session.set_param("purchase3", 16) {
        Err(ProphetError::UnknownParam { name, available }) => {
            assert_eq!(name, "purchase3");
            assert_eq!(available, ["feature", "purchase1", "purchase2"]);
        }
        other => panic!("expected ProphetError::UnknownParam, got {other:?}"),
    }
    // The error is also actionable as text.
    let msg = session.set_param("purchase3", 16).unwrap_err().to_string();
    assert!(
        msg.contains("purchase1") && msg.contains("purchase2") && msg.contains("feature"),
        "message must list candidates: {msg}"
    );
}

#[test]
fn typed_errors_cover_the_facade_surface() {
    let prophet = figure2_service(8);
    assert!(matches!(
        prophet.online("figure3"),
        Err(ProphetError::UnknownScenario { ref name, ref available })
            if name == "figure3" && available == &["figure2".to_owned()]
    ));
    let mut session = prophet.online("figure2").unwrap();
    assert!(matches!(
        session.set_param("current", 3),
        Err(ProphetError::AxisParam { ref name }) if name == "current"
    ));
    assert!(matches!(
        session.set_param("purchase1", 3),
        Err(ProphetError::OutOfDomain { ref name, value: 3 }) if name == "purchase1"
    ));
    assert!(matches!(
        session.progressive_expect("nope", 0, 0.1, 10),
        Err(ProphetError::UnknownColumn { .. })
    ));
    // Parse failures arrive as the Sql variant with position info intact.
    match Prophet::builder().scenario_sql("bad", "SELECT oops") {
        Err(ProphetError::Sql(e)) => assert!(e.to_string().contains("line")),
        other => panic!("expected ProphetError::Sql, got {other:?}"),
    }
}

/// One `EngineConfig::validate` behind both constructors: each degenerate
/// config is the same typed error from `Prophet::builder().build()` and
/// from `Engine::new`. A two-probe fingerprint fits any affine map
/// exactly, so with fingerprints on it would "match" everything; with
/// them off the length is never read.
#[test]
fn degenerate_configs_are_rejected_by_both_constructors() {
    let base = EngineConfig::default();
    let probes = |length: usize| {
        let mut config = base;
        config.fingerprint.length = length;
        config
    };
    for (config, message) in [
        (
            EngineConfig {
                worlds_per_point: 0,
                ..base
            },
            "worlds_per_point must be positive",
        ),
        (
            EngineConfig {
                basis_capacity: 0,
                ..base
            },
            "basis_capacity must be positive",
        ),
        (
            probes(2),
            "fingerprint.length must be at least 3 when fingerprints are enabled",
        ),
    ] {
        let want = ProphetError::InvalidConfig(message.to_owned());
        let built = Prophet::builder()
            .scenario("figure2", Scenario::figure2().unwrap())
            .config(config)
            .build();
        assert_eq!(built.err(), Some(want.clone()), "builder");
        let engine = Engine::new(&Scenario::figure2().unwrap(), demo_registry(), config);
        assert_eq!(engine.err(), Some(want), "Engine::new");
    }
    let unused = EngineConfig {
        fingerprints_enabled: false,
        ..probes(2)
    };
    for accepted in [unused, probes(3)] {
        assert!(Engine::new(&Scenario::figure2().unwrap(), demo_registry(), accepted).is_ok());
    }
}

#[test]
fn sessions_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<OnlineSession>();
    assert_send::<Prophet>();
}
