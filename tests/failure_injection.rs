//! Failure injection: malformed scenarios, misbehaving models, and
//! degenerate configurations must produce errors or explicit NaNs — never
//! panics, hangs, or silently wrong numbers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fuzzy_prophet::prelude::*;
use prophet_data::{DataResult, Value};
use prophet_mc::TryClaim;
use prophet_models::{demo_registry, full_registry};
use prophet_sql::parse_script;
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::{VgFunction, VgRegistry};

// ---------------------------------------------------------------- DSL level

#[test]
fn malformed_scripts_error_cleanly() {
    for src in [
        "",
        "SELECT",
        "DECLARE PARAMETER current AS RANGE 0 TO 5 STEP BY 1;", // missing @
        "DECLARE PARAMETER @p AS RANGE 5 TO 0 STEP BY 1;\nSELECT 1 AS x INTO r;", // empty domain
        "DECLARE PARAMETER @p AS SET ();\nSELECT 1 AS x INTO r;", // empty set
        "SELECT 1 AS x INTO r; GRAPH OVER @missing EXPECT x;",
        "SELECT 1 AS x INTO r;\nOPTIMIZE SELECT @q FROM r WHERE MAX(EXPECT x) < 1 FOR MAX @q",
        "SELECT CASE WHEN THEN 1 END AS x INTO r;",
        "SELECT 1 AS x INTO r extra tokens",
        "SELECT 'unterminated AS x INTO r;",
    ] {
        assert!(parse_script(src).is_err(), "should reject: {src:?}");
    }
}

#[test]
fn unknown_vg_function_fails_at_evaluation_not_parse() {
    // Parsing cannot know the catalog; evaluation must report the miss.
    let scenario =
        Scenario::parse("DECLARE PARAMETER @p AS SET (1);\nSELECT NoSuchModel(@p) AS x INTO r;")
            .unwrap();
    let engine = Engine::new(
        &scenario,
        demo_registry(),
        EngineConfig {
            worlds_per_point: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let err = engine
        .evaluate(&ParamPoint::from_pairs([("p", 1i64)]))
        .unwrap_err();
    assert!(err.to_string().contains("NoSuchModel"), "{err}");
}

#[test]
fn wrong_arity_vg_call_is_reported() {
    let scenario = Scenario::parse(
        "DECLARE PARAMETER @p AS SET (1);\nSELECT DemandModel(@p) AS x INTO r;", // needs 2 args
    )
    .unwrap();
    let engine = Engine::new(
        &scenario,
        demo_registry(),
        EngineConfig {
            worlds_per_point: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let err = engine
        .evaluate(&ParamPoint::from_pairs([("p", 1i64)]))
        .unwrap_err();
    assert!(err.to_string().contains("expects 2 parameters"), "{err}");
}

// ------------------------------------------------------------- model level

/// A model that returns NaN for some parameter values.
#[derive(Debug)]
struct SometimesNan;

impl VgFunction for SometimesNan {
    fn name(&self) -> &str {
        "SometimesNan"
    }
    fn arity(&self) -> usize {
        1
    }
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        let p = params[0].as_i64()?;
        Ok(if p >= 5 { f64::NAN } else { rng.next_f64() })
    }
}

fn hostile_registry() -> VgRegistry {
    let mut r = VgRegistry::new();
    r.register(Arc::new(SometimesNan));
    r
}

#[test]
fn nan_outputs_surface_in_estimates_instead_of_vanishing() {
    let scenario = Scenario::parse(
        "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1;\nSELECT SometimesNan(@p) AS v INTO r;",
    )
    .unwrap();
    let engine = Engine::new(
        &scenario,
        hostile_registry(),
        EngineConfig {
            worlds_per_point: 16,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // Healthy region: finite estimates.
    let (good, _) = engine
        .evaluate(&ParamPoint::from_pairs([("p", 1i64)]))
        .unwrap();
    assert!(good.expect("v").unwrap().is_finite());
    // NaN region: the expectation must be NaN, not a silently filtered mean.
    let (bad, _) = engine
        .evaluate(&ParamPoint::from_pairs([("p", 7i64)]))
        .unwrap();
    assert!(bad.expect("v").unwrap().is_nan());
}

#[test]
fn nan_constraints_are_infeasible_not_satisfied() {
    let scenario = Scenario::parse(
        "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1;\n\
         DECLARE PARAMETER @w AS SET (0);\n\
         SELECT SometimesNan(@p) AS v INTO r;\n\
         OPTIMIZE SELECT @p FROM r WHERE MAX(EXPECT v) < 100 GROUP BY p FOR MAX @p",
    )
    .unwrap();
    let report = OfflineOptimizer::open(
        Engine::new(
            &scenario,
            hostile_registry(),
            EngineConfig {
                worlds_per_point: 8,
                ..EngineConfig::default()
            },
        )
        .unwrap(),
    )
    .unwrap()
    .run()
    .unwrap();
    // p in 5..=9 produce NaN metrics → infeasible; best feasible is p=4.
    let best = report.best.expect("p=4 is healthy and feasible");
    assert_eq!(best.point.get("p"), Some(4));
    for a in report
        .answers
        .iter()
        .filter(|a| a.point.get("p").unwrap() >= 5)
    {
        assert!(!a.feasible, "NaN groups must be infeasible: {a:?}");
    }
}

// ------------------------------------------------------------ engine level

#[test]
fn unbound_parameters_error_at_evaluation() {
    let scenario = Scenario::figure2().unwrap();
    let engine = Engine::new(
        &scenario,
        demo_registry(),
        EngineConfig {
            worlds_per_point: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // Point misses @feature entirely.
    let incomplete =
        ParamPoint::from_pairs([("current", 0i64), ("purchase1", 0), ("purchase2", 0)]);
    let err = engine.evaluate(&incomplete).unwrap_err();
    assert!(err.to_string().contains("unbound parameter"), "{err}");
}

#[test]
fn online_mode_without_graph_and_offline_without_optimize_error() {
    let bare = Scenario::parse("DECLARE PARAMETER @p AS SET (1);\nSELECT @p AS x INTO r;").unwrap();
    let prophet = Prophet::builder()
        .scenario("bare", bare.clone())
        .registry(demo_registry())
        .build()
        .unwrap();
    assert!(matches!(
        prophet.online("bare"),
        Err(ProphetError::MissingGraphDirective)
    ));
    assert!(matches!(
        prophet.submit(JobSpec::sweep("bare")),
        Err(ProphetError::MissingOptimizeDirective)
    ));
    let engine = Engine::new(&bare, demo_registry(), EngineConfig::default()).unwrap();
    assert!(matches!(
        OfflineOptimizer::open(engine),
        Err(ProphetError::MissingOptimizeDirective)
    ));
}

#[test]
fn nan_fingerprints_disable_mapping_but_not_answers() {
    // A NaN-producing model cannot be fingerprint-matched; the engine must
    // fall back to simulation (never map NaN garbage onto healthy points).
    let scenario = Scenario::parse(
        "DECLARE PARAMETER @p AS RANGE 4 TO 9 STEP BY 1;\nSELECT SometimesNan(@p) AS v INTO r;",
    )
    .unwrap();
    let engine = Engine::new(
        &scenario,
        hostile_registry(),
        EngineConfig {
            worlds_per_point: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let (_, o1) = engine
        .evaluate(&ParamPoint::from_pairs([("p", 7i64)]))
        .unwrap();
    let (_, o2) = engine
        .evaluate(&ParamPoint::from_pairs([("p", 8i64)]))
        .unwrap();
    assert_eq!(o1, EvalOutcome::Simulated);
    assert_eq!(
        o2,
        EvalOutcome::Simulated,
        "NaN fingerprints must not match each other"
    );
}

// -------------------------------------------------------------- runner seam

/// A model with three hit points (`p` in 1..=3 draw exactly what `p = 0`
/// draws, so they identity-map from it), mutually uncorrelated miss points
/// (`p >= 5`), and one point that starts failing after a set number of
/// invocations: 0 fails its fingerprint probe, the fingerprint length lets
/// the probe through and fails its first simulated world. It fails either
/// by returning `Err` from `invoke`, or — with `short_ledger`, which gives
/// the model a one-cell draw ledger (two cells at the bad point, whose
/// horizon is longer) — by drawing a ledger one cell short.
#[derive(Debug)]
struct Flaky {
    bad: i64,
    healthy_calls: u64,
    calls_at_bad: AtomicU64,
    short_ledger: bool,
}

impl Flaky {
    /// Count one invocation at `p`; true once the bad point has given out.
    fn gave_out(&self, p: i64) -> bool {
        p == self.bad && self.calls_at_bad.fetch_add(1, Ordering::SeqCst) >= self.healthy_calls
    }

    fn draw(p: i64, u: f64) -> f64 {
        if p < 5 {
            u
        } else {
            ((p + 1) as f64 * 9.7 * u).sin()
        }
    }
}

impl VgFunction for Flaky {
    fn name(&self) -> &str {
        "Flaky"
    }
    fn arity(&self) -> usize {
        1
    }
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        let p = params[0].as_i64()?;
        if self.gave_out(p) {
            return Err(prophet_data::DataError::InvalidOperation(format!(
                "Flaky({p}) gave out"
            )));
        }
        Ok(Flaky::draw(p, rng.next_f64()))
    }
    fn ledger_len(&self, params: &[Value]) -> DataResult<Option<usize>> {
        let p = params[0].as_i64()?;
        Ok(self
            .short_ledger
            .then_some(if p == self.bad { 2 } else { 1 }))
    }
    fn draw_ledger(&self, rng: &mut Xoshiro256StarStar, len: usize) -> Vec<f64> {
        let mut cells: Vec<f64> = (0..len).map(|_| rng.next_f64()).collect();
        // `draw_ledger` sees no arguments: only the bad point's calls ask
        // for two cells, so they are the ones counted.
        if len > 1 && self.calls_at_bad.fetch_add(1, Ordering::SeqCst) >= self.healthy_calls {
            cells.pop();
        }
        cells
    }
    fn replay(&self, params: &[Value], ledger: &[f64]) -> DataResult<f64> {
        Ok(Flaky::draw(params[0].as_i64()?, ledger[0]))
    }
}

fn flaky_registry(bad: i64, healthy_calls: u64, short_ledger: bool) -> VgRegistry {
    let mut r = VgRegistry::new();
    r.register(Arc::new(Flaky {
        bad,
        healthy_calls,
        calls_at_bad: AtomicU64::new(0),
        short_ledger,
    }));
    r
}

/// What a failed batch left behind, as either runner reports it.
#[derive(Debug, PartialEq)]
struct Aftermath {
    error: ProphetError,
    /// Per batch point: is its entry in the store?
    published: Vec<bool>,
    /// The failed batch's work counters.
    work: [u64; 11],
}

fn work_counters(m: &EngineMetrics) -> [u64; 11] {
    [
        m.points_cached,
        m.points_mapped,
        m.points_simulated,
        m.worlds_simulated,
        m.probe_evaluations,
        m.vector_walks,
        m.probe_call_sites,
        m.batch_probes,
        m.candidates_scanned,
        m.candidates_pruned,
        m.inflight_waits,
    ]
}

/// Drive `batch` — which must fail — through both runners of the batch
/// pipeline on fresh stores warmed with `warm`: the inline one
/// (`Engine::evaluate_batch`) and the pooled one (`Prophet::submit`,
/// one-point chunks). They must fail the same way — same typed error,
/// same points published before it, same work done — and leave no claim
/// behind. Returns the common aftermath and both stores.
fn fail_on_both_runners(
    label: &str,
    src: &str,
    registry: &dyn Fn() -> VgRegistry,
    cfg: EngineConfig,
    warm: Option<&ParamPoint>,
    batch: &[ParamPoint],
) -> (Aftermath, [SharedBasisStore; 2]) {
    let scenario = Scenario::parse(src).unwrap();
    let aftermath = |store: &SharedBasisStore, error, metrics: &EngineMetrics| {
        assert_eq!(
            store.inflight_len(),
            0,
            "{label}: a claim outlived the batch"
        );
        Aftermath {
            error,
            published: batch
                .iter()
                .map(|p| store.get_exact(p, cfg.worlds_per_point).is_some())
                .collect(),
            work: work_counters(metrics),
        }
    };

    // Inline runner: a bare engine.
    let engine = Engine::new(&scenario, registry(), cfg).unwrap();
    if let Some(warm) = warm {
        engine.evaluate(warm).unwrap();
    }
    let before = engine.metrics();
    let error = engine.evaluate_batch(batch).unwrap_err();
    let inline_store = engine.basis_store().clone();
    let inline = aftermath(&inline_store, error, &engine.metrics().since(&before));

    // Pooled runner: the same batches as jobs.
    let prophet = Prophet::builder()
        .scenario_sql("failing", src)
        .unwrap()
        .registry(registry())
        .config(cfg)
        .scheduler(SchedulerConfig {
            workers: 2,
            chunk_points: 1,
            ..SchedulerConfig::default()
        })
        .build()
        .unwrap();
    if let Some(warm) = warm {
        let warm = JobSpec::points("failing", vec![warm.clone()]);
        prophet.submit(warm).unwrap().wait().unwrap();
    }
    let handle = prophet
        .submit(JobSpec::points("failing", batch.to_vec()))
        .unwrap();
    let mut error = None;
    for event in handle.events() {
        match event {
            JobEvent::Failed(err) => error = Some(err),
            other => panic!("{label}: expected the job to fail, got {other:?}"),
        }
    }
    prophet.scheduler().wait_idle();
    let pooled_store = prophet.engine("failing").unwrap().basis_store().clone();
    let pooled = aftermath(
        &pooled_store,
        error.expect("a failed job ends with its error"),
        &handle.progress().metrics,
    );

    assert_eq!(inline, pooled, "{label}: the runners disagree");
    assert!(
        matches!(inline.error, ProphetError::Sql(_) | ProphetError::Data(_)),
        "{label}: {:?}",
        inline.error
    );
    (inline, [inline_store, pooled_store])
}

/// One VG failure — an `Err`, or a draw ledger of the wrong length —
/// inside a mixed hit/miss batch, on both runners: same typed error, same
/// points published before it, and every unpublished claim released — a
/// healthy engine on the same store then evaluates every point of the
/// batch without ever waiting.
#[test]
fn a_vg_error_mid_batch_leaves_both_runners_in_the_same_state() {
    const SRC: &str =
        "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1;\nSELECT Flaky(@p) AS v INTO r;";
    const BAD: i64 = 7;
    let point = |p: i64| ParamPoint::from_pairs([("p", p)]);
    // Batch order: hit, miss, hit, the failing miss, miss, hit.
    let batch: Vec<ParamPoint> = [1, 5, 2, BAD, 6, 3].map(point).to_vec();
    let probe_len = EngineConfig::default().fingerprint.length as u64;

    // (label, engine threads, fail by a short draw ledger, healthy
    // calls at BAD, the error's text, published after).
    let table = [
        // 3 misses on 2 threads simulate point-parallel; publishing stops
        // at BAD, so the later miss (6) is simulated but never published.
        (
            "simulate, point-parallel",
            2,
            false,
            probe_len,
            "gave out",
            [true, true, true, false, false, true],
        ),
        // 3 misses on 4 threads: fewer misses than threads.
        (
            "simulate, fewer misses than threads",
            4,
            false,
            probe_len,
            "gave out",
            [true, true, true, false, false, true],
        ),
        // A failed probe ends the batch before anything is matched.
        ("probe", 2, false, 0, "gave out", [false; 6]),
        // The model's draw ledger comes back one cell short for BAD's
        // simulation (its probe streams' ledgers went through): the
        // catalog's length check turns what would be a replay past the
        // drawn cells into the same typed failure.
        (
            "short ledger",
            2,
            true,
            probe_len,
            "drew a ledger of 1 cells when asked for 2",
            [true, true, true, false, false, true],
        ),
    ];
    for (label, threads, short_ledger, healthy_calls, expect_error, expect_published) in table {
        let cfg = EngineConfig {
            worlds_per_point: 16,
            threads,
            ..EngineConfig::default()
        };
        // Warmed with the hits' source.
        let registry = || flaky_registry(BAD, healthy_calls, short_ledger);
        let (aftermath, stores) =
            fail_on_both_runners(label, SRC, &registry, cfg, Some(&point(0)), &batch);
        assert!(
            aftermath.error.to_string().contains(expect_error),
            "{label}: {}",
            aftermath.error
        );
        assert_eq!(aftermath.published, expect_published, "{label}");

        // Every unpublished claim was released: a healthy engine on the
        // same store serves the published points from it and evaluates
        // the rest itself, never parking on a claim nobody will complete.
        let scenario = Scenario::parse(SRC).unwrap();
        for store in stores {
            let healthy = Arc::new(flaky_registry(BAD, u64::MAX, short_ledger));
            let healthy = Engine::with_basis_store(&scenario, healthy, cfg, store).unwrap();
            let results = healthy.evaluate_batch(&batch).unwrap();
            for ((_, outcome), &was_published) in results.iter().zip(&expect_published) {
                assert_eq!(*outcome == EvalOutcome::Cached, was_published, "{label}");
            }
            assert_eq!(healthy.metrics().inflight_waits, 0, "{label}");
        }
    }
}

/// The same table for the bundled models' own argument domains: a legal
/// `DECLARE PARAMETER` value the model cannot simulate — an arrival rate
/// compounded out of the representable range, a horizon no walk should
/// attempt, a Poisson rate whose sampler would never return — is a typed
/// error on both runners (no panic, no hang, no claim left), and the
/// store then serves the batch's other points.
/// A failed adjustment changes nothing: a `set_param` whose refresh
/// fails leaves the sliders, the adjustment count and every series point
/// as they were, and the next good adjustment succeeds.
#[test]
fn a_failed_set_param_leaves_the_session_as_it_was() {
    let src = "DECLARE PARAMETER @w AS RANGE 0 TO 3 STEP BY 1;
DECLARE PARAMETER @p AS SET (0, 5, 6, 7);
SELECT Flaky(@p) + @w AS y INTO r;
GRAPH OVER @w EXPECT y WITH red;";
    let prophet = Prophet::builder()
        .scenario_sql("flaky", src)
        .unwrap()
        .registry(flaky_registry(7, 0, false))
        .worlds_per_point(8)
        .build()
        .unwrap();
    let mut session = prophet.online("flaky").unwrap();
    session.set_param("p", 5).unwrap();
    let sliders = session.sliders().clone();
    let graph = session.graph().to_vec();
    let adjustments = session.adjustments();

    let err = session.set_param("p", 7).unwrap_err();
    assert!(err.to_string().contains("Flaky(7) gave out"), "{err}");
    assert_eq!(session.sliders(), &sliders, "sliders moved");
    assert_eq!(session.adjustments(), adjustments, "counted");
    assert_eq!(session.graph(), graph, "series moved");

    session.set_param("p", 6).unwrap();
    assert_eq!(session.sliders().get("p"), Some(6));
    assert_eq!(session.adjustments(), adjustments + 1);
}

#[test]
fn out_of_domain_model_arguments_fail_both_runners_alike() {
    // (label, script, the bad value of its first parameter, error text).
    let table = [
        (
            "QueueModel, rate underflows to 0",
            "DECLARE PARAMETER @week AS SET (0, 4, -60000, 8);\n\
             DECLARE PARAMETER @agents AS SET (10);\n\
             SELECT QueueModel(@week, @agents) AS backlog INTO r;",
            -60_000,
            "QueueModel arrival rate 0 per hour is outside (0, 10000]",
        ),
        (
            "QueueModel, rate overflows to infinity",
            "DECLARE PARAMETER @week AS SET (0, 4, 60000, 8);\n\
             DECLARE PARAMETER @agents AS SET (10);\n\
             SELECT QueueModel(@week, @agents) AS backlog INTO r;",
            60_000,
            "QueueModel arrival rate inf per hour is outside (0, 10000]",
        ),
        (
            "CapacityModel, unbounded horizon",
            "DECLARE PARAMETER @current AS SET (0, 4, 9000000000000, 8);\n\
             DECLARE PARAMETER @purchase1 AS SET (2);\n\
             SELECT CapacityModel(@current, @purchase1, 6) AS capacity INTO r;",
            9_000_000_000_000,
            "CapacityModel horizon @current = 9000000000000 exceeds the 4095-week maximum",
        ),
        (
            "InventoryModel, unbounded horizon",
            "DECLARE PARAMETER @week AS SET (0, 4, 9000000000000, 8);\n\
             DECLARE PARAMETER @qty AS SET (300);\n\
             SELECT InventoryModel(@week, 200, @qty) AS on_hand INTO r;",
            9_000_000_000_000,
            "InventoryModel horizon @week = 9000000000000 exceeds the 4095-week maximum",
        ),
        (
            "Poisson, rate above Poisson::MAX_RATE",
            "DECLARE PARAMETER @rate AS SET (5, 9, 1000, 12);\n\
             SELECT Poisson(CASE WHEN @rate = 1000 THEN 1e30 ELSE @rate END) AS arrivals INTO r;",
            1_000,
            "Poisson(lambda) got invalid parameters [Float(1e30)]",
        ),
    ];
    for (label, src, bad, expect_error) in table {
        let scenario = Scenario::parse(src).unwrap();
        let batch: Vec<ParamPoint> =
            prophet_mc::guide::GridGuide::new(&scenario.script().params).collect();
        let first = scenario.script().params[0].name.clone();
        assert_eq!(batch.len(), 4, "{label}");
        for tier in [ExecTier::Columnar, ExecTier::Scalar] {
            let cfg = EngineConfig {
                worlds_per_point: 16,
                threads: 2,
                tier,
                ..EngineConfig::default()
            };
            let (aftermath, stores) =
                fail_on_both_runners(label, src, &full_registry, cfg, None, &batch);
            assert!(
                aftermath.error.to_string().contains(expect_error),
                "{label} {tier:?}: {}",
                aftermath.error
            );
            // The bad point fails its probe, which ends the batch.
            assert_eq!(aftermath.published, [false; 4], "{label} {tier:?}");

            // The store is reusable: the other points evaluate on it.
            let good: Vec<ParamPoint> = batch
                .iter()
                .filter(|p| p.get(&first) != Some(bad))
                .cloned()
                .collect();
            assert_eq!(good.len(), 3, "{label}");
            for store in stores {
                let registry = Arc::new(full_registry());
                let engine = Engine::with_basis_store(&scenario, registry, cfg, store).unwrap();
                assert_eq!(engine.evaluate_batch(&good).unwrap().len(), 3);
                assert_eq!(engine.metrics().inflight_waits, 0, "{label} {tier:?}");
                assert_eq!(engine.basis_store().inflight_len(), 0, "{label} {tier:?}");
            }
        }
    }
}

// ------------------------------------------------------------ worker panics

/// `Panicky(p)` = `U[0,1)` whatever `p`: every point identity-maps from
/// any other, so an answer's bits do not depend on whether it was
/// simulated, mapped or cached. While `armed` it panics in the method
/// named `site`, at `p = BAD` (`draw_ledger` sees no arguments: at every
/// point), once `healthy_calls` armed calls there went through. With the
/// site `"invoke"` the model has nothing else — the catalog answers every
/// call with `invoke`; otherwise it keeps a one-cell draw ledger (the
/// uniform).
#[derive(Debug)]
struct Panicky {
    site: &'static str,
    healthy_calls: u64,
    armed: Arc<AtomicBool>,
    calls: AtomicU64,
}

impl Panicky {
    const BAD: i64 = 7;

    fn maybe_panic(&self, site: &str, p: i64) {
        if site == self.site
            && p == Panicky::BAD
            && self.armed.load(Ordering::SeqCst)
            && self.calls.fetch_add(1, Ordering::SeqCst) >= self.healthy_calls
        {
            panic!("injected panic in Panicky::{site}");
        }
    }
}

impl VgFunction for Panicky {
    fn name(&self) -> &str {
        "Panicky"
    }
    fn arity(&self) -> usize {
        1
    }
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        self.maybe_panic("invoke", params[0].as_i64()?);
        Ok(rng.next_f64())
    }
    fn ledger_len(&self, params: &[Value]) -> DataResult<Option<usize>> {
        params[0].as_i64()?;
        Ok((self.site != "invoke").then_some(1))
    }
    fn draw_ledger(&self, rng: &mut Xoshiro256StarStar, len: usize) -> Vec<f64> {
        self.maybe_panic("draw_ledger", Panicky::BAD);
        (0..len).map(|_| rng.next_f64()).collect()
    }
    fn replay(&self, params: &[Value], ledger: &[f64]) -> DataResult<f64> {
        self.maybe_panic("replay", params[0].as_i64()?);
        Ok(ledger[0])
    }
}

/// A VG model that panics inside a pooled chunk — in `invoke` during the
/// probe and during simulation, in `replay` (which runs under the
/// draw-ledger store's read guard once the warming job has drawn the
/// streams into the scenario's engine) and in `draw_ledger` (on a cold
/// engine, whose first probe draws) — costs exactly its own job:
/// a typed `Internal` error, no claim left in flight, no lock left
/// poisoned, and the same service and store then answer a healthy job bit
/// for bit as a service that never saw the panic. A session's
/// progressive estimate of the bad point is such a job too: the panic
/// comes back to its caller as the same error, not as an unwind.
#[test]
fn a_panicking_vg_fails_its_job_and_leaves_the_service_usable() {
    const SRC: &str = "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1;
SELECT Panicky(@p) AS v INTO r;
GRAPH OVER @p EXPECT v;";
    let point = |p: i64| ParamPoint::from_pairs([("p", p)]);
    let warm: Vec<ParamPoint> = [0, 1].map(point).to_vec();
    // Two healthy probes land (and, ledgered, draw the probe streams)
    // before the bad one starts, on either pool shape below; or the bad
    // point is the batch's lone miss, its worlds spread over the pool; or
    // a session estimates the bad point progressively, four worlds a wave.
    type Failing = Box<dyn Fn(&Prophet) -> ProphetResult<()>>;
    let batch = |points: Vec<ParamPoint>| -> Failing {
        let job = JobSpec::points("panicky", points);
        Box::new(move |prophet| prophet.submit(job.clone())?.wait().map(drop))
    };
    let progressive: Failing = Box::new(|prophet| {
        let mut session = prophet.online("panicky")?;
        session
            .progressive_expect("v", Panicky::BAD, 1e-12, 4)
            .map(drop)
    });
    let failing_inputs: [(&str, Failing); 3] = [
        (
            "a four-point batch",
            batch([2, 3, Panicky::BAD, 4].map(point).to_vec()),
        ),
        ("a lone point", batch(vec![point(Panicky::BAD)])),
        ("a progressive estimate", progressive),
    ];
    let healthy: Vec<ParamPoint> = [3, Panicky::BAD, 5, 0].map(point).to_vec();
    let cfg = EngineConfig {
        worlds_per_point: 16,
        threads: 2,
        ..EngineConfig::default()
    };
    // (site, healthy calls at BAD, warm the store first). With the probe's
    // calls let through on a cold store, the bad point misses and its
    // first simulated world panics. A warmed engine keeps the streams its
    // warming job drew, so the failing job would never draw: `draw_ledger`
    // panics on a cold one.
    let cases = [
        ("invoke", 0, true),
        ("invoke", cfg.fingerprint.length as u64, false),
        ("replay", 0, true),
        ("draw_ledger", 0, false),
    ];
    // One chunk per point on two executors; the whole phase as one chunk.
    let pools = [(2, 1), (1, 8)];
    for (((site, healthy_calls, warmed), (workers, chunk_points)), (input, failing)) in cases
        .iter()
        .flat_map(|c| pools.map(|p| (*c, p)))
        .flat_map(|c| failing_inputs.iter().map(move |f| (c, f)))
    {
        let label = format!(
            "{site} after {healthy_calls} on {workers} workers x {chunk_points}, {input} failing"
        );
        // The healthy batch's samples on a fresh service, after the
        // failing job or without it.
        let answers = |panics: bool| -> Vec<prophet_mc::SampleSet> {
            let armed = Arc::new(AtomicBool::new(false));
            let mut registry = VgRegistry::new();
            registry.register(Arc::new(Panicky {
                site,
                healthy_calls,
                armed: Arc::clone(&armed),
                calls: AtomicU64::new(0),
            }));
            let prophet = Prophet::builder()
                .scenario_sql("panicky", SRC)
                .unwrap()
                .registry(registry)
                .config(cfg)
                .scheduler(SchedulerConfig {
                    workers,
                    chunk_points,
                    ..SchedulerConfig::default()
                })
                .build()
                .unwrap();
            let run = |points: &[ParamPoint]| {
                let job = JobSpec::points("panicky", points.to_vec());
                prophet.submit(job).unwrap().wait()
            };
            if warmed {
                run(&warm).unwrap();
            }
            let store = prophet.engine("panicky").unwrap().basis_store().clone();
            if panics {
                armed.store(true, Ordering::SeqCst);
                let error = failing(&prophet).unwrap_err();
                armed.store(false, Ordering::SeqCst);
                assert!(
                    matches!(&error, ProphetError::Internal(msg) if msg.contains("worker panic")),
                    "{label}: {error:?}"
                );
                prophet.scheduler().wait_idle();
                assert_eq!(store.inflight_len(), 0, "{label}: a claim outlived the job");
            }
            // On the same service, pool and store: a lock the panic left
            // poisoned anywhere on the path fails this job.
            let results = run(&healthy).expect(&label).into_points().unwrap();
            assert_eq!(store.inflight_len(), 0, "{label}");
            results.into_iter().map(|(set, _)| set).collect()
        };
        assert_eq!(answers(true), answers(false), "{label}");
    }
}

// ------------------------------------------------------------ slow models

/// `Slow(p)` = `U[0,1)` whatever `p`, after sleeping `pause`; counts its
/// calls.
#[derive(Debug)]
struct Slow {
    calls: Arc<AtomicU64>,
    pause: Duration,
}

impl VgFunction for Slow {
    fn name(&self) -> &str {
        "Slow"
    }
    fn arity(&self) -> usize {
        1
    }
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        params[0].as_i64()?;
        self.calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.pause);
        Ok(rng.next_f64())
    }
}

/// A cancel reaches inside one cold point's simulation. With a model that
/// takes ≈ 1 ms a world, a job cancelled early in its 400 worlds runs at
/// most the one world span already in flight (the executor's
/// `SPAN_WORLDS` = 100 worlds, one span per chunk here), ends `Cancelled`,
/// leaves neither a claim nor an entry behind, and the point then
/// simulates bit-equal to a service that never saw the cancel. A
/// progressive estimate that cannot converge stops the same way, within
/// the one `batch`-world span of its wave.
///
/// Two inputs per job: the job claims the point itself, or it first waits
/// on a claim another session holds and re-claims the point once that
/// claim is dropped — the re-claimed point must go through the same world
/// spans and stop the same way.
#[test]
fn a_cancel_stops_a_slow_simulation_within_one_world_span() {
    const SRC: &str = "DECLARE PARAMETER @p AS SET (1);\nSELECT Slow(@p) AS v INTO r;";
    const SPAN_WORLDS: u64 = 100;
    let cfg = EngineConfig {
        worlds_per_point: 400,
        fingerprints_enabled: false,
        ..EngineConfig::default()
    };
    let service = |pause: Duration| {
        let calls = Arc::new(AtomicU64::new(0));
        let mut registry = VgRegistry::new();
        registry.register(Arc::new(Slow {
            calls: Arc::clone(&calls),
            pause,
        }));
        let prophet = Prophet::builder()
            .scenario_sql("slow", SRC)
            .unwrap()
            .registry(registry)
            .config(cfg)
            .scheduler(SchedulerConfig {
                workers: 1,
                chunk_points: 1,
                ..SchedulerConfig::default()
            })
            .build()
            .unwrap();
        (prophet, calls)
    };
    const BATCH: usize = 10;
    let point = ParamPoint::from_pairs([("p", 1i64)]);
    // (name, job, worlds it may simulate after a cancel)
    let jobs = [
        (
            "points",
            JobSpec::points("slow", vec![point.clone()]),
            SPAN_WORLDS,
        ),
        (
            "progressive",
            JobSpec::progressive("slow", point.clone(), "v", 1e-12, BATCH),
            BATCH as u64,
        ),
    ];
    // A re-submission's answer, as bits.
    let bits = |prophet: &Prophet, job: &JobSpec| -> Vec<u64> {
        match prophet.submit(job.clone()).unwrap().wait().unwrap() {
            JobOutput::Progressive(e) => {
                let flags = [e.used_basis, e.converged].map(u64::from);
                [e.estimate.to_bits(), e.worlds_used as u64]
                    .into_iter()
                    .chain(flags)
                    .collect()
            }
            output => {
                let set = &output.into_points().unwrap()[0].0;
                set.samples("v")
                    .unwrap()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            }
        }
    };

    let claims = |prophet: &Prophet| {
        let events = prophet.trace_events();
        let claims = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::StoreClaim);
        claims.count()
    };

    for ((name, job, span), reclaim) in jobs.iter().flat_map(|j| [false, true].map(|r| (j, r))) {
        let label = format!("{name} job, reclaim {reclaim}");
        let (prophet, calls) = service(Duration::from_millis(1));
        let engine = prophet.engine("slow").unwrap();
        let held = reclaim.then(|| match engine.basis_store().try_claim(&point, 400) {
            TryClaim::Owner(guard) => guard,
            _ => panic!("a cold point is claimable"),
        });
        let handle = prophet.submit(job.clone()).unwrap();
        if let Some(guard) = held {
            // Once the job's plan has claimed too it is waiting on `guard`;
            // dropping it hands the point back for the job to re-claim.
            while claims(&prophet) < 2 {
                std::thread::sleep(Duration::from_micros(200));
            }
            drop(guard);
        }
        while calls.load(Ordering::SeqCst) < 10 {
            std::thread::sleep(Duration::from_micros(200));
        }
        handle.cancel();
        let at_cancel = calls.load(Ordering::SeqCst);
        assert!(
            matches!(handle.wait(), Err(ProphetError::JobCancelled)),
            "{label}: the job did not end cancelled"
        );
        prophet.scheduler().wait_idle();
        let after_cancel = calls.load(Ordering::SeqCst) - at_cancel;
        assert!(
            after_cancel <= *span,
            "{label}: {after_cancel} worlds simulated after cancel() returned"
        );
        assert_eq!(engine.basis_store().inflight_len(), 0, "{label}");
        assert_eq!(
            engine.basis_len(),
            0,
            "{label}: a partly simulated point was published"
        );

        let (reference, _) = service(Duration::ZERO);
        assert_eq!(bits(&prophet, job), bits(&reference, job), "{label}");
    }
}
