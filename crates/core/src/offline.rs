//! Offline mode: automated constrained parameter optimization.
//!
//! §3.3: "the simulation goal is to determine the parameter values that
//! minimize the total cost of ownership while keeping the risk of overload
//! under a threshold … results are computed for the entire parameter space,
//! and the query returns the latest purchase dates that keep the expected
//! chance of overload below" the threshold.
//!
//! An offline sweep executes the scenario's `OPTIMIZE` directive: it
//! sweeps the cartesian product of the *selected* parameters (the GROUP BY
//! keys), evaluates every value of the remaining axis parameters per group
//! (in Figure 2, the 53 weeks of `@current`), applies the outer aggregate
//! (`MAX(EXPECT overload)`), filters feasible groups, and ranks them by the
//! lexicographic `FOR MAX/MIN` objectives. Deferring purchases *is* the
//! cost-of-ownership objective: later purchase weeks mean fewer
//! hardware-weeks paid for.
//!
//! The sweep's *plan* — grouping, per-group axis expansion, constraint
//! aggregation, feasibility, ranking — and the one loop that executes it
//! live in the crate-internal `SweepPlan`. The loop is parameterised only
//! by how a group's batch is evaluated and who is told about it, and it
//! has two runners:
//!
//! * the sweep job, submitted as
//!   [`Prophet::submit`](crate::service::Prophet::submit)`(JobSpec::sweep(..))`,
//!   is the production path: it evaluates each batch on the service's
//!   pool, can be cancelled between batches, and streams each finished
//!   batch as chunk events, so concurrent jobs interleave with it chunk
//!   by chunk;
//! * [`OfflineOptimizer`], opened over a bare engine, is the serial
//!   reference: it evaluates each batch on the caller's thread
//!   ([`Engine::evaluate_batch`]) and reports every point to an observer
//!   callback. The sweep job is differentially tested against it.

use std::cmp::Ordering;
use std::time::Duration;

use prophet_mc::guide::GridGuide;
use prophet_mc::{ParamPoint, SampleSet};
use prophet_sql::ast::{AggMetric, ObjectiveDirection, OptimizeSpec, OuterAgg, ParameterDecl};
use prophet_sql::Script;

use crate::engine::{Engine, EvalOutcome};
use crate::error::{ProphetError, ProphetResult};
use crate::executor::BatchResults;
use crate::metrics::{EngineMetrics, Stopwatch};
use crate::scenario::space_size;

/// One feasible (or candidate) answer of the OPTIMIZE query.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeAnswer {
    /// The group's parameter values (the selected parameters only).
    pub point: ParamPoint,
    /// Outer-aggregated metric per constraint, in constraint order.
    pub constraint_values: Vec<f64>,
    /// Whether every constraint held.
    pub feasible: bool,
}

/// Result of an offline run.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineReport {
    /// Best feasible answer under the lexicographic objectives, if any.
    pub best: Option<OptimizeAnswer>,
    /// Every evaluated group, feasible first, each sorted best-first.
    pub answers: Vec<OptimizeAnswer>,
    /// Number of groups examined (product of selected-parameter domains).
    pub groups_total: usize,
    /// Engine work counters for this run only.
    pub metrics: EngineMetrics,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
}

impl OfflineReport {
    /// Feasible answers only, best first.
    pub fn feasible(&self) -> impl Iterator<Item = &OptimizeAnswer> {
        self.answers.iter().filter(|a| a.feasible)
    }
}

/// The declarative shape of one OPTIMIZE sweep: which parameters form the
/// GROUP BY grid, which sweep per group as the axis, how constraint
/// metrics aggregate, and how answers rank. Pure data + pure functions,
/// plus the one loop ([`SweepPlan::run`]) that both the blocking sweep
/// and the scheduled sweep job execute.
#[derive(Debug)]
pub(crate) struct SweepPlan {
    spec: OptimizeSpec,
    group_decls: Vec<ParameterDecl>,
    /// The axis grid, built once: each group binds a clone of it, which
    /// shares its names and domains.
    axis_grid: GridGuide,
    /// Sizes of the two grids, counted (overflow-checked) at construction.
    groups_total: usize,
    axis_total: usize,
}

impl SweepPlan {
    /// Extract the plan from a script; the script must carry an OPTIMIZE
    /// directive, and both of its grids must be small enough to count
    /// ([`ProphetError::ParameterSpaceTooLarge`] otherwise).
    pub(crate) fn from_script(script: &Script) -> ProphetResult<Self> {
        let spec = script
            .optimize
            .clone()
            .ok_or(ProphetError::MissingOptimizeDirective)?;
        let group_decls: Vec<ParameterDecl> = script
            .params
            .iter()
            .filter(|p| spec.select_params.contains(&p.name))
            .cloned()
            .collect();
        let axis_decls: Vec<ParameterDecl> = script
            .params
            .iter()
            .filter(|p| !spec.select_params.contains(&p.name))
            .cloned()
            .collect();
        // The whole space first: `groups_total × axis_total` (a sweep's
        // point count) is then overflow-free as well.
        space_size(&script.params)?;
        Ok(SweepPlan {
            spec,
            groups_total: space_size(&group_decls)?,
            axis_total: space_size(&axis_decls)?,
            group_decls,
            axis_grid: GridGuide::new(&axis_decls),
        })
    }

    pub(crate) fn spec(&self) -> &OptimizeSpec {
        &self.spec
    }

    /// Number of groups the sweep examines.
    pub(crate) fn groups_total(&self) -> usize {
        self.groups_total
    }

    /// Axis points evaluated per group.
    pub(crate) fn axis_total(&self) -> usize {
        self.axis_total
    }

    /// Every group point, in the canonical row-major sweep order.
    fn groups(&self) -> Vec<ParamPoint> {
        GridGuide::new(&self.group_decls).collect()
    }

    /// One group's full evaluation batch: the axis grid bound onto the
    /// group's values, in the canonical axis order. Every point is one
    /// allocation stamped into one template, so the batch shares one set
    /// of parameter names.
    fn group_points(&self, group: &ParamPoint) -> Vec<ParamPoint> {
        self.axis_grid.clone().onto(group).collect()
    }

    /// Fold one group's batch results into its answer: accumulate the
    /// outer aggregate per constraint and test feasibility.
    fn answer_for(
        &self,
        group: &ParamPoint,
        results: &[(SampleSet, EvalOutcome)],
        output_columns: &[String],
    ) -> ProphetResult<OptimizeAnswer> {
        let mut aggs: Vec<OuterAccumulator> = self
            .spec
            .constraints
            .iter()
            .map(|c| OuterAccumulator::new(c.outer))
            .collect();
        for (samples, _) in results {
            for (constraint, acc) in self.spec.constraints.iter().zip(&mut aggs) {
                let metric = match constraint.metric {
                    AggMetric::Expect => samples.expect(&constraint.column),
                    AggMetric::ExpectStdDev => samples.expect_std_dev(&constraint.column),
                }
                .ok_or_else(|| {
                    ProphetError::unknown_column(constraint.column.clone(), output_columns.to_vec())
                })?;
                acc.push(metric);
            }
        }
        let constraint_values: Vec<f64> = aggs.iter().map(OuterAccumulator::value).collect();
        let feasible = self
            .spec
            .constraints
            .iter()
            .zip(&constraint_values)
            .all(|(c, &v)| v.is_finite() && c.op.test(v.partial_cmp(&c.threshold)));
        Ok(OptimizeAnswer {
            point: group.clone(),
            constraint_values,
            feasible,
        })
    }

    /// Rank answers (feasible before infeasible, then lexicographic
    /// objectives) and pick the best feasible one.
    fn rank(
        &self,
        mut answers: Vec<OptimizeAnswer>,
    ) -> (Option<OptimizeAnswer>, Vec<OptimizeAnswer>) {
        answers.sort_by(|a, b| match (a.feasible, b.feasible) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => self.compare_objectives(&a.point, &b.point),
        });
        let best = answers.first().filter(|a| a.feasible).cloned();
        (best, answers)
    }

    /// The sweep loop: evaluate every group's batch in canonical order
    /// through `evaluate` (`Ok(None)` = cancelled, which ends the sweep
    /// with `Ok(None)`), hand each finished batch to `sink` as `(group,
    /// its full points, their results)`, fold it into the group's answer,
    /// and rank. The report's wall clock covers this run only, and its
    /// metrics are what `metrics` reads at the end: the run's counters.
    pub(crate) fn run(
        &self,
        engine: &Engine,
        mut evaluate: impl FnMut(&[ParamPoint]) -> ProphetResult<Option<BatchResults>>,
        mut sink: impl FnMut(&ParamPoint, &[ParamPoint], &BatchResults),
        metrics: impl FnOnce() -> EngineMetrics,
    ) -> ProphetResult<Option<OfflineReport>> {
        let start = Stopwatch::start();
        let mut answers = Vec::with_capacity(self.groups_total);
        for group in self.groups() {
            let points = self.group_points(&group);
            let Some(results) = evaluate(&points)? else {
                return Ok(None);
            };
            sink(&group, &points, &results);
            answers.push(self.answer_for(&group, &results, engine.output_columns())?);
        }
        let (best, answers) = self.rank(answers);
        Ok(Some(OfflineReport {
            best,
            answers,
            groups_total: self.groups_total,
            metrics: metrics(),
            wall: start.elapsed(),
        }))
    }

    /// Lexicographic objective comparison: earlier objectives dominate.
    fn compare_objectives(&self, a: &ParamPoint, b: &ParamPoint) -> Ordering {
        for obj in &self.spec.objectives {
            let va = a.get(&obj.param).unwrap_or(i64::MIN);
            let vb = b.get(&obj.param).unwrap_or(i64::MIN);
            let ord = match obj.direction {
                ObjectiveDirection::Max => vb.cmp(&va), // larger first
                ObjectiveDirection::Min => va.cmp(&vb), // smaller first
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        // Stable tiebreak so reports are deterministic.
        a.cmp(b)
    }
}

/// Executes the scenario's OPTIMIZE directive over the whole grid on the
/// caller's thread — the serial reference the sweep job is tested against.
pub struct OfflineOptimizer {
    engine: Engine,
    plan: SweepPlan,
}

impl std::fmt::Debug for OfflineOptimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OfflineOptimizer")
            .field("spec", self.plan.spec())
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl OfflineOptimizer {
    /// Open an optimizer over an already-built engine; the scenario must
    /// carry an OPTIMIZE directive. A service's sweeps do not go through
    /// here: submit [`JobSpec::sweep`](crate::job::JobSpec::sweep) to
    /// [`Prophet::submit`](crate::service::Prophet::submit) instead.
    pub fn open(engine: Engine) -> ProphetResult<Self> {
        let plan = SweepPlan::from_script(engine.scenario().script())?;
        Ok(OfflineOptimizer { engine, plan })
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The OPTIMIZE specification being executed.
    pub fn spec(&self) -> &OptimizeSpec {
        self.plan.spec()
    }

    /// Number of groups the sweep will examine.
    pub fn groups_total(&self) -> usize {
        self.plan.groups_total()
    }

    /// Run the full sweep to completion on the caller's thread.
    pub fn run(&self) -> ProphetResult<OfflineReport> {
        self.run_with_observer(|_, _, _| {})
    }

    /// Run the full sweep on the caller's thread, reporting every point
    /// evaluation to `observer` as `(group point, full point, outcome)`.
    /// This is the sweep loop on the inline runner; the observer runs
    /// inline, in canonical sweep order. A sweep job streams the same
    /// `(full point, outcome)` pairs as its chunk events.
    pub fn run_with_observer(
        &self,
        mut observer: impl FnMut(&ParamPoint, &ParamPoint, &EvalOutcome),
    ) -> ProphetResult<OfflineReport> {
        let before = self.engine.metrics();
        let report = self.plan.run(
            &self.engine,
            |points| self.engine.evaluate_batch(points).map(Some),
            |group, points, results| {
                for (full, (_, outcome)) in points.iter().zip(results) {
                    observer(group, full, outcome);
                }
            },
            || self.engine.metrics().since(&before),
        )?;
        Ok(report.expect("invariant: the inline runner is never cancelled"))
    }
}

/// Streaming outer aggregate (MAX/MIN/AVG across the axis sweep).
#[derive(Debug, Clone, Copy)]
struct OuterAccumulator {
    agg: OuterAgg,
    acc: f64,
    count: u64,
}

impl OuterAccumulator {
    fn new(agg: OuterAgg) -> Self {
        let acc = match agg {
            OuterAgg::Max => f64::NEG_INFINITY,
            OuterAgg::Min => f64::INFINITY,
            OuterAgg::Avg => 0.0,
        };
        OuterAccumulator { agg, acc, count: 0 }
    }

    fn push(&mut self, x: f64) {
        self.count += 1;
        // NaN poisons the aggregate permanently (f64::max/min would silently
        // drop it), so a NaN metric can never satisfy a constraint.
        if self.acc.is_nan() {
            return;
        }
        if x.is_nan() {
            self.acc = f64::NAN;
            return;
        }
        match self.agg {
            OuterAgg::Max => self.acc = self.acc.max(x),
            OuterAgg::Min => self.acc = self.acc.min(x),
            OuterAgg::Avg => self.acc += x,
        }
    }

    fn value(&self) -> f64 {
        match self.agg {
            OuterAgg::Avg if self.count > 0 => self.acc / self.count as f64,
            OuterAgg::Avg => f64::NAN,
            _ => self.acc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::scenario::Scenario;
    use prophet_models::demo_registry;

    /// A small scenario whose answer is analytically known: pick the
    /// largest @x with E[x + noise] ≤ 6.05, i.e. x = 6.
    const TOY: &str = "\
DECLARE PARAMETER @x AS RANGE 0 TO 10 STEP BY 2;
DECLARE PARAMETER @w AS SET (0, 1);
SELECT @x + 0 AS load INTO results;
OPTIMIZE SELECT @x FROM results
WHERE MAX(EXPECT load) <= 6.05
GROUP BY x
FOR MAX @x";

    fn optimizer_for(source: &str, worlds: usize) -> OfflineOptimizer {
        let engine = Engine::new(
            &Scenario::parse(source).unwrap(),
            demo_registry(),
            EngineConfig {
                worlds_per_point: worlds,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        OfflineOptimizer::open(engine).unwrap()
    }

    fn toy_optimizer() -> OfflineOptimizer {
        optimizer_for(TOY, 8)
    }

    #[test]
    fn requires_optimize_directive() {
        let s =
            Scenario::parse("DECLARE PARAMETER @p AS SET (1);\nSELECT @p AS x INTO r;").unwrap();
        let engine = Engine::new(&s, demo_registry(), EngineConfig::default()).unwrap();
        let err = OfflineOptimizer::open(engine);
        assert!(
            matches!(err, Err(ProphetError::MissingOptimizeDirective)),
            "{err:?}"
        );
    }

    /// A script that never went through `Scenario::parse` is checked at
    /// plan construction: the sweep's point count must be countable.
    #[test]
    fn a_sweep_too_large_to_count_is_rejected_at_plan_construction() {
        let script = prophet_sql::parser::parse_script(
            "DECLARE PARAMETER @x AS RANGE 0 TO 9223372036854775807 STEP BY 1;\n\
             DECLARE PARAMETER @w AS SET (0, 1, 2);\n\
             SELECT @x + @w AS load INTO results;\n\
             OPTIMIZE SELECT @x FROM results WHERE MAX(EXPECT load) <= 1 GROUP BY x FOR MAX @x",
        )
        .unwrap();
        match SweepPlan::from_script(&script) {
            Err(ProphetError::ParameterSpaceTooLarge { params }) => {
                assert_eq!(params, ["x", "w"])
            }
            other => panic!("expected ParameterSpaceTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn toy_answer_is_exact() {
        let opt = toy_optimizer();
        assert_eq!(opt.groups_total(), 6);
        let report = opt.run().unwrap();
        let best = report.best.clone().expect("x=6 is feasible");
        assert_eq!(best.point.get("x"), Some(6));
        assert!(best.feasible);
        assert!((best.constraint_values[0] - 6.0).abs() < 1e-9);
        // groups 0,2,4,6 feasible; 8,10 not
        assert_eq!(report.feasible().count(), 4);
        assert_eq!(report.answers.len(), 6);
        // feasible answers sorted best (largest x) first
        let xs: Vec<i64> = report
            .feasible()
            .map(|a| a.point.get("x").unwrap())
            .collect();
        assert_eq!(xs, vec![6, 4, 2, 0]);
    }

    #[test]
    fn infeasible_thresholds_yield_no_best() {
        let src = TOY.replace("<= 6.05", "<= -1.0");
        let opt = optimizer_for(&src, 4);
        let report = opt.run().unwrap();
        assert!(report.best.is_none());
        assert_eq!(report.feasible().count(), 0);
        assert_eq!(
            report.answers.len(),
            6,
            "infeasible groups are still reported"
        );
    }

    #[test]
    fn observer_sees_every_point() {
        let opt = toy_optimizer();
        let mut calls = 0usize;
        let mut simulated = 0usize;
        opt.run_with_observer(|group, full, outcome| {
            calls += 1;
            assert!(group.get("x").is_some());
            assert!(full.get("w").is_some(), "axis param bound in full point");
            if matches!(outcome, EvalOutcome::Simulated) {
                simulated += 1;
            }
        })
        .unwrap();
        // 6 groups × 2 axis values
        assert_eq!(calls, 12);
        assert!(simulated <= calls);
    }

    #[test]
    fn metrics_cover_only_this_run() {
        let opt = toy_optimizer();
        let r1 = opt.run().unwrap();
        assert_eq!(r1.metrics.points_total(), 12);
        // A second run is fully cached — and its metrics say so.
        let r2 = opt.run().unwrap();
        assert_eq!(r2.metrics.points_total(), 12);
        assert_eq!(r2.metrics.points_cached, 12);
        assert_eq!(r2.metrics.worlds_simulated, 0);
    }

    #[test]
    fn min_objective_direction() {
        let src = TOY.replace("FOR MAX @x", "FOR MIN @x");
        let opt = optimizer_for(&src, 4);
        let report = opt.run().unwrap();
        assert_eq!(report.best.unwrap().point.get("x"), Some(0));
    }

    #[test]
    fn plan_counts_groups_and_axis_points() {
        let opt = toy_optimizer();
        assert_eq!(opt.plan.groups_total(), 6);
        assert_eq!(opt.plan.axis_total(), 2);
        assert_eq!(opt.plan.groups().len(), 6);
        let group = &opt.plan.groups()[0];
        let points = opt.plan.group_points(group);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.get("x") == group.get("x")));
        for p in &points[1..] {
            for ((a, _), (b, _)) in points[0].iter().zip(p.iter()) {
                assert!(std::ptr::eq(a, b), "{p} allocated `{b}` again");
            }
        }
    }

    /// The engine's internal tables hash with `FastBuild`: every Figure-2
    /// sweep point, and every `CapacityModel(@current, @purchase1,
    /// @purchase2)` call-site key the probe memo files (call index 1,
    /// after `DemandModel`'s), must get a distinct 64-bit hash.
    #[test]
    fn figure2_keys_hash_to_distinct_words() {
        use prophet_sql::columnar::{ArgBits, CallSiteKey};
        use prophet_vg::FastBuild;
        use std::hash::BuildHasher;

        let plan = SweepPlan::from_script(Scenario::figure2().unwrap().script()).unwrap();
        let points: Vec<ParamPoint> = plan
            .groups()
            .iter()
            .flat_map(|group| plan.group_points(group))
            .collect();
        let distinct = |mut hashes: Vec<u64>| {
            hashes.sort_unstable();
            hashes.dedup();
            hashes.len()
        };
        let build = FastBuild::default();
        assert_eq!(points.len(), 31_164);
        assert_eq!(
            distinct(points.iter().map(|p| build.hash_one(p)).collect()),
            31_164
        );

        let tuples: std::collections::BTreeSet<[i64; 3]> = points
            .iter()
            .map(|p| ["current", "purchase1", "purchase2"].map(|name| p.get(name).unwrap()))
            .collect();
        let keys: Vec<CallSiteKey> = tuples
            .into_iter()
            .map(|args| CallSiteKey {
                function: "CapacityModel".to_owned(),
                call_index: 1,
                args: args.map(ArgBits::Int).to_vec(),
            })
            .collect();
        assert_eq!(keys.len(), 10_388);
        assert_eq!(
            distinct(keys.iter().map(|k| build.hash_one(k)).collect()),
            10_388
        );
    }

    #[test]
    fn outer_accumulator_behaviour() {
        let mut max = OuterAccumulator::new(OuterAgg::Max);
        max.push(1.0);
        max.push(3.0);
        max.push(2.0);
        assert_eq!(max.value(), 3.0);

        let mut min = OuterAccumulator::new(OuterAgg::Min);
        min.push(1.0);
        min.push(-3.0);
        assert_eq!(min.value(), -3.0);

        let mut avg = OuterAccumulator::new(OuterAgg::Avg);
        avg.push(1.0);
        avg.push(3.0);
        assert_eq!(avg.value(), 2.0);

        let mut poisoned = OuterAccumulator::new(OuterAgg::Max);
        poisoned.push(1.0);
        poisoned.push(f64::NAN);
        poisoned.push(9.0);
        assert!(
            poisoned.value().is_nan(),
            "NaN must not be masked by later maxima"
        );
    }
}
