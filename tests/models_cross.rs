//! Cross-model integration: several VG models in one scenario, custom
//! configurations through the registry, and the stream-alignment discipline
//! holding across model boundaries.

use std::sync::Arc;

use fuzzy_prophet::prelude::*;
use prophet_models::{full_registry, CapacityConfig, DemandConfig};

#[test]
fn three_models_in_one_select() {
    // A composite dashboard: capacity risk and support backlog and revenue
    // in one scenario — all three models draw from per-call substreams, so
    // none can desynchronize another.
    let src = "\
DECLARE PARAMETER @week AS RANGE 0 TO 52 STEP BY 13;
DECLARE PARAMETER @agents AS SET (10);
DECLARE PARAMETER @price AS SET (20);
SELECT DemandModel(@week, 26) AS demand,
       QueueModel(@week, @agents) AS backlog,
       RevenueModel(@week, @price) AS revenue,
       CASE WHEN backlog > 25 THEN 1 ELSE 0 END AS breach
INTO results;";
    let engine = Engine::new(
        &Scenario::parse(src).unwrap(),
        full_registry(),
        EngineConfig {
            worlds_per_point: 60,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let p = ParamPoint::from_pairs([("week", 26i64), ("agents", 10), ("price", 20)]);
    let (s, _) = engine.evaluate(&p).unwrap();
    assert!(s.expect("demand").unwrap() > 8_000.0);
    assert!(s.expect("backlog").unwrap() >= 0.0);
    assert!(s.expect("revenue").unwrap() > 0.0);
    let breach = s.expect("breach").unwrap();
    assert!((0.0..=1.0).contains(&breach));
}

#[test]
fn literal_arguments_to_vg_functions_work() {
    // @feature replaced by a literal 26 — VG args are expressions.
    let src = "SELECT DemandModel(10, 13 * 2) AS demand INTO results;";
    let engine = Engine::new(
        &Scenario::parse(src).unwrap(),
        full_registry(),
        EngineConfig {
            worlds_per_point: 200,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let (s, _) = engine.evaluate(&ParamPoint::new()).unwrap();
    let d = s.expect("demand").unwrap();
    // week 10, feature at 26 (not yet released): mean ≈ 8000 + 700
    assert!((d - 8_700.0).abs() < 150.0, "demand {d}");
}

#[test]
fn changing_one_models_parameter_leaves_other_models_streams_intact() {
    // agents only feeds QueueModel; demand/revenue must be bit-identical
    // across agents settings under CRN.
    let src = "\
DECLARE PARAMETER @week AS SET (20);
DECLARE PARAMETER @agents AS SET (6, 14);
SELECT DemandModel(@week, 26) AS demand,
       QueueModel(@week, @agents) AS backlog,
       RevenueModel(@week, 20) AS revenue
INTO results;";
    let scenario = Scenario::parse(src).unwrap();
    let eval = |agents: i64| {
        // fresh engine each time so nothing is mapped/cached
        let engine = Engine::new(
            &scenario,
            full_registry(),
            EngineConfig {
                worlds_per_point: 40,
                fingerprints_enabled: false,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let p = ParamPoint::from_pairs([("week", 20i64), ("agents", agents)]);
        let (s, _) = engine.evaluate(&p).unwrap();
        (
            s.samples("demand").unwrap().to_vec(),
            s.samples("backlog").unwrap().to_vec(),
            s.samples("revenue").unwrap().to_vec(),
        )
    };
    let (d6, b6, r6) = eval(6);
    let (d14, b14, r14) = eval(14);
    assert_eq!(d6, d14, "demand stream must not depend on @agents");
    assert_eq!(r6, r14, "revenue stream must not depend on @agents");
    assert_ne!(b6, b14, "backlog must respond to staffing");
}

#[test]
fn custom_model_configs_flow_through_the_registry() {
    use prophet_models::demo_registry_with;

    // A fleet with double the purchase size: the capacity step doubles.
    let big = demo_registry_with(
        DemandConfig::default(),
        CapacityConfig {
            cores_per_purchase: 8_000.0,
            ..CapacityConfig::default()
        },
    );
    let src = "\
DECLARE PARAMETER @current AS SET (30);
SELECT CapacityModel(@current, 4, 52) AS capacity INTO results;";
    let engine = Engine::new(
        &Scenario::parse(src).unwrap(),
        big,
        EngineConfig {
            worlds_per_point: 300,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let (s, _) = engine
        .evaluate(&ParamPoint::from_pairs([("current", 30i64)]))
        .unwrap();
    let cap = s.expect("capacity").unwrap();
    // 10_000 initial + 8_000 (one deployed purchase) − ~31 weeks of decay
    assert!((15_000.0..17_500.0).contains(&cap), "capacity {cap}");
}

#[test]
fn shadowing_a_model_updates_every_consumer() {
    // The paper: updating a function definition updates all Prophet
    // instances. Re-registering `DemandModel` changes engine behaviour
    // without touching the scenario.
    use prophet_data::{DataResult, Value};
    use prophet_vg::rng::Xoshiro256StarStar;
    use prophet_vg::VgFunction;

    #[derive(Debug)]
    struct FlatDemand;
    impl VgFunction for FlatDemand {
        fn name(&self) -> &str {
            "DemandModel"
        }
        fn arity(&self) -> usize {
            2
        }
        fn invoke(&self, _: &[Value], _: &mut Xoshiro256StarStar) -> DataResult<f64> {
            Ok(1_234.0)
        }
    }

    let mut registry = prophet_models::demo_registry();
    registry.register(Arc::new(FlatDemand));
    let src =
        "DECLARE PARAMETER @w AS SET (9);\nSELECT DemandModel(@w, 26) AS demand INTO results;";
    let engine = Engine::new(
        &Scenario::parse(src).unwrap(),
        registry,
        EngineConfig {
            worlds_per_point: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let (s, _) = engine
        .evaluate(&ParamPoint::from_pairs([("w", 9i64)]))
        .unwrap();
    assert_eq!(s.expect("demand").unwrap(), 1_234.0);
    assert_eq!(s.expect_std_dev("demand").unwrap(), 0.0);
}
