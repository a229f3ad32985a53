//! Online sessions: user-directed parameter exploration.
//!
//! §3.2: guests set slider values; the first render "takes a few dozen
//! seconds to generate accurate statistics"; on a second adjustment "only
//! portions of the graph changed by the adjustment are re-rendered"; and
//! the GUI shows "which parameter values are proactively being explored
//! anticipating their future usage".
//!
//! [`OnlineSession`] reproduces those behaviours programmatically: sliders
//! are `set_param` calls, the graph is a set of [`Series`], each adjustment
//! returns an [`AdjustReport`] saying how many weeks were re-simulated vs
//! re-mapped vs untouched, and idle time can be donated to
//! [`OnlineSession::prefetch_tick`].
//!
//! Sessions are opened through
//! [`Prophet::online`](crate::service::Prophet::online), which wires every
//! session of a scenario onto one shared basis store — what one session
//! simulates, another re-maps — and runs its work on the service's
//! scheduler.
//!
//! The graph's *plan* — slider validation, default sliders, and the
//! expansion of one slider setting across the `GRAPH OVER` axis — lives
//! in the crate-internal `GraphPlan`, which the session and the service's
//! refresh job share.

use std::sync::Arc;
use std::time::Duration;

use prophet_mc::guide::PriorityGuide;
use prophet_mc::{ParamPoint, Series};
use prophet_sql::ast::{GraphDirective, ParameterDecl};
use prophet_sql::Script;

use crate::engine::{Engine, EvalOutcome};
use crate::error::{ProphetError, ProphetResult};
use crate::executor::StopRule;
use crate::job::{JobOutput, Priority};
use crate::metrics::{EngineMetrics, Stopwatch};
use crate::scheduler::Scheduler;

/// What one slider adjustment (or initial render) cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjustReport {
    /// X-axis values in the graph (weeks in the demo).
    pub weeks_total: usize,
    /// Weeks whose distributions were fully re-simulated.
    pub weeks_simulated: usize,
    /// Weeks re-mapped from correlated basis entries.
    pub weeks_mapped: usize,
    /// Weeks served from the exact cache (unchanged by the adjustment).
    pub weeks_cached: usize,
    /// Wall-clock time for the refresh.
    pub wall: Duration,
}

impl AdjustReport {
    /// Fraction of the graph that needed fresh simulation — the paper's
    /// "only portions of the graph … are re-rendered" claim quantified.
    pub fn rerender_fraction(&self) -> f64 {
        if self.weeks_total == 0 {
            0.0
        } else {
            self.weeks_simulated as f64 / self.weeks_total as f64
        }
    }

    /// Weeks served without fresh simulation (mapped + cached).
    pub fn weeks_reused(&self) -> usize {
        self.weeks_mapped + self.weeks_cached
    }
}

/// Result of a progressive (anytime) estimate — the paper's
/// time-to-first-accurate-guess, asserted in `tests/jobs.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveEstimate {
    /// The converged (or best-effort) expectation.
    pub estimate: f64,
    /// Worlds consumed before convergence.
    pub worlds_used: usize,
    /// Whether a basis distribution seeded the estimate.
    pub used_basis: bool,
    /// Whether the convergence criterion was met.
    pub converged: bool,
}

/// The declarative shape of one online graph: the `GRAPH OVER` directive,
/// the axis values, and the slider declarations (every parameter but the
/// axis). Built once from a script; [`OnlineSession`] and the service's
/// refresh job validate sliders and expand them into graph batches
/// through it, so both reject the same sliders the same way and evaluate
/// the same points.
#[derive(Debug)]
pub(crate) struct GraphPlan {
    graph: GraphDirective,
    x_values: Vec<i64>,
    sliders: Vec<ParameterDecl>,
}

impl GraphPlan {
    /// Extract the plan from a script; the script must carry a
    /// `GRAPH OVER` directive.
    pub(crate) fn from_script(script: &Script) -> ProphetResult<Self> {
        let graph = script
            .graph
            .clone()
            .ok_or(ProphetError::MissingGraphDirective)?;
        let x_values = script
            .param(&graph.x_param)
            .expect("invariant: the parser rejects GRAPH OVER an undeclared parameter")
            .domain
            .values();
        let sliders = script
            .params
            .iter()
            .filter(|p| p.name != graph.x_param)
            .cloned()
            .collect();
        Ok(GraphPlan {
            graph,
            x_values,
            sliders,
        })
    }

    /// Every slider at its domain minimum.
    fn default_sliders(&self) -> ParamPoint {
        self.sliders
            .iter()
            .map(|p| (p.name.clone(), p.domain.values()[0]))
            .collect()
    }

    /// Names of the sliders, sorted.
    fn slider_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sliders.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names
    }

    /// Check one slider value: the graph axis yields
    /// [`ProphetError::AxisParam`], an undeclared name
    /// [`ProphetError::UnknownParam`] listing the sliders, and an off-grid
    /// value [`ProphetError::OutOfDomain`].
    fn check_slider(&self, name: &str, value: i64) -> ProphetResult<()> {
        if name == self.graph.x_param {
            return Err(ProphetError::AxisParam {
                name: name.to_owned(),
            });
        }
        let decl = self
            .sliders
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| ProphetError::unknown_param(name, self.slider_names()))?;
        if !decl.domain.contains(value) {
            return Err(ProphetError::OutOfDomain {
                name: name.to_owned(),
                value,
            });
        }
        Ok(())
    }

    /// The graph batch for a refresh job's sliders: every value checked
    /// as [`GraphPlan::check_slider`] does, and every slider present
    /// ([`ProphetError::MissingSlider`] otherwise).
    pub(crate) fn refresh_points(&self, sliders: &ParamPoint) -> ProphetResult<Vec<ParamPoint>> {
        for (name, value) in sliders.iter() {
            self.check_slider(name, value)?;
        }
        if let Some(missing) = self.sliders.iter().find(|p| sliders.get(&p.name).is_none()) {
            return Err(ProphetError::MissingSlider {
                name: missing.name.clone(),
                required: self.slider_names(),
            });
        }
        Ok(self.points(sliders))
    }

    /// One point per axis value at `sliders`, in axis order. Every point
    /// is stamped into one clone of `sliders`, so the batch shares its
    /// parameter names.
    fn points(&self, sliders: &ParamPoint) -> Vec<ParamPoint> {
        let mut point = sliders.clone();
        self.x_values
            .iter()
            .map(|&x| {
                point.set(&self.graph.x_param, x);
                point.clone()
            })
            .collect()
    }
}

/// An interactive what-if session over one scenario: sliders, the graph
/// over the `GRAPH OVER` axis at those sliders, and the paper's one
/// prefetch policy — a FIFO queue of the domain neighbours of the slider
/// last touched, drained by [`OnlineSession::prefetch_tick`].
pub struct OnlineSession {
    engine: Arc<Engine>,
    plan: GraphPlan,
    sliders: ParamPoint,
    series: Vec<Series>,
    guide: PriorityGuide,
    adjustments: u64,
    /// The work of this session's finished jobs, summed.
    metrics: EngineMetrics,
    /// The service's shared scheduler: refreshes run on it as
    /// [`Priority::High`] jobs, idle prefetches as [`Priority::Low`] ones.
    scheduler: Arc<Scheduler>,
}

impl std::fmt::Debug for OnlineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineSession")
            .field("sliders", &self.sliders)
            .field("adjustments", &self.adjustments)
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl OnlineSession {
    /// Open a session over a service engine, evaluating through the
    /// service's scheduler ([`Prophet::online`]'s constructor). The
    /// scenario must carry a `GRAPH OVER` directive; sliders for every
    /// non-axis parameter start at their domain minimum.
    ///
    /// [`Prophet::online`]: crate::service::Prophet::online
    pub(crate) fn new(engine: Arc<Engine>, scheduler: Arc<Scheduler>) -> ProphetResult<Self> {
        let plan = GraphPlan::from_script(engine.scenario().script())?;
        Ok(OnlineSession {
            sliders: plan.default_sliders(),
            series: plan.graph.series.iter().map(Series::new).collect(),
            guide: PriorityGuide::new(&plan.sliders),
            plan,
            engine,
            adjustments: 0,
            metrics: EngineMetrics::default(),
            scheduler,
        })
    }

    /// Evaluate a batch of points — under `rule`, as an anytime estimate
    /// — as a submitted job on the service scheduler, so other sessions'
    /// higher-priority chunks can interleave, and wait for its output.
    /// The job runs the batch pipeline that [`Engine::evaluate_batch`]
    /// runs inline, so its results are bit-identical to it (the
    /// `tests/jobs.rs` differential suite enforces it). The job's work,
    /// read from its counters once it ended, joins the session's.
    fn run_job(
        &mut self,
        points: Vec<ParamPoint>,
        priority: Priority,
        rule: Option<StopRule>,
    ) -> ProphetResult<JobOutput> {
        let engine = Arc::clone(&self.engine);
        let job = self.scheduler.submit_batch(engine, points, priority, rule);
        let core = Arc::clone(&job.core);
        let output = job.wait();
        self.metrics = self.metrics.plus(&core.metrics.get());
        output
    }

    /// Current slider values (everything but the graph axis).
    pub fn sliders(&self) -> &ParamPoint {
        &self.sliders
    }

    /// Names of the adjustable parameters (everything but the graph axis),
    /// sorted.
    pub fn slider_names(&self) -> Vec<String> {
        self.plan.slider_names()
    }

    /// The plotted series (column order follows the GRAPH directive).
    pub fn graph(&self) -> &[Series] {
        &self.series
    }

    /// One series by column name.
    pub fn series(&self, column: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.column == column)
    }

    /// The scenario's engine, which every session and job of the
    /// scenario shares (basis introspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// This session's work counters (simulated vs mapped vs cached
    /// points, in-flight waits, probe/simulation phase wall-clock): the
    /// sum over its finished refreshes, prefetches and progressive
    /// estimates, and nobody else's work on the scenario.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Number of slider adjustments performed so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Set one slider and refresh the graph. Returns what the refresh cost.
    ///
    /// Unknown names yield [`ProphetError::UnknownParam`] listing the valid
    /// sliders; the graph axis yields [`ProphetError::AxisParam`]; off-grid
    /// values yield [`ProphetError::OutOfDomain`]. The slider, the
    /// adjustment count and the graph change only when the refresh
    /// succeeds: after an `Err` the session is as it was before the call.
    pub fn set_param(&mut self, name: &str, value: i64) -> ProphetResult<AdjustReport> {
        self.plan.check_slider(name, value)?;
        let sliders = self.sliders.with(name, value);
        let report = self.render(&sliders)?;
        self.sliders = sliders;
        self.adjustments += 1;
        // Anticipate the user's next move (paper §3.2): the touched
        // slider's domain neighbours are the likeliest next adjustments.
        self.guide.prefetch_neighbours(&self.sliders, name);
        Ok(report)
    }

    /// Recompute every graph point for the current sliders, as one batch:
    /// every week probes the shared store in a single source-parallel scan
    /// and the changed weeks simulate in parallel. The batch runs as a
    /// [`Priority::High`] job on the shared scheduler — this call stays
    /// blocking (it is `submit(refresh).wait()`), but the work interleaves
    /// with, and overtakes, lower-priority jobs instead of queueing behind
    /// them.
    pub fn refresh(&mut self) -> ProphetResult<AdjustReport> {
        let sliders = self.sliders.clone();
        self.render(&sliders)
    }

    /// Evaluate the graph at `sliders` and, only if every point evaluated,
    /// replace the series with it.
    fn render(&mut self, sliders: &ParamPoint) -> ProphetResult<AdjustReport> {
        let start = Stopwatch::start();
        let mut report = AdjustReport {
            weeks_total: self.plan.x_values.len(),
            weeks_simulated: 0,
            weeks_mapped: 0,
            weeks_cached: 0,
            wall: Duration::ZERO,
        };
        let points = self.plan.points(sliders);
        let results = self.run_job(points, Priority::High, None)?.into_points()?;
        for (&x, (samples, outcome)) in self.plan.x_values.iter().zip(&results) {
            match outcome {
                EvalOutcome::Cached => report.weeks_cached += 1,
                EvalOutcome::Mapped { .. } => report.weeks_mapped += 1,
                EvalOutcome::Simulated => report.weeks_simulated += 1,
            }
            for series in &mut self.series {
                series.update_from(x, samples);
            }
        }
        report.wall = start.elapsed();
        Ok(report)
    }

    /// Donate idle time: evaluate up to `budget` proactively queued points
    /// (slider neighbours, and points a progressive estimate left below
    /// full depth). Returns how many were evaluated.
    ///
    /// The drained points expand across every week of the graph axis and
    /// go through as one batch, so anticipatory work gets the same batched
    /// probing and parallel simulation as a user-facing refresh — but as a
    /// [`Priority::Low`] job, so any interactive refresh submitted
    /// meanwhile overtakes it chunk by chunk.
    pub fn prefetch_tick(&mut self, budget: usize) -> ProphetResult<usize> {
        let mut drained = Vec::new();
        while drained.len() < budget {
            let Some(point) = self.guide.next_point() else {
                break;
            };
            drained.push(point);
        }
        if drained.is_empty() {
            return Ok(0);
        }
        // Prefetched points cover the whole graph for that slider setting,
        // so warm every week of the axis.
        let batch = drained.iter().flat_map(|p| self.plan.points(p)).collect();
        self.run_job(batch, Priority::Low, None)?;
        Ok(drained.len())
    }

    /// Progressive (anytime) expectation of `column` at the *current*
    /// sliders and week `x`: adds Monte Carlo work batch by batch until
    /// the 95%-CI half-width drops below `epsilon`. A basis hit makes the
    /// very first guess accurate — the paper's lower "time to
    /// first-accurate-guess".
    ///
    /// The estimate runs as a [`Priority::High`] progressive job
    /// ([`JobSpec::progressive`](crate::job::JobSpec::progressive)) on the
    /// shared scheduler and this call waits for it: a cold point
    /// simulates `batch`-world spans (the engine's world-span primitive
    /// keeps each span bit-identical to the corresponding slice of a full
    /// run, because the world→sample assignment is seed-based) and stops
    /// as soon as the criterion holds, instead of blocking on the whole
    /// `worlds_per_point` budget up front. Whatever was simulated is
    /// published to the shared basis store — partial progress is
    /// observable, not discarded — and a point left below full depth
    /// joins the prefetch queue, so an idle-time
    /// [`OnlineSession::prefetch_tick`] deepens it later.
    pub fn progressive_expect(
        &mut self,
        column: &str,
        x: i64,
        epsilon: f64,
        batch: usize,
    ) -> ProphetResult<ProgressiveEstimate> {
        let rule = StopRule::new(&self.engine, column, epsilon, batch)?;
        let point = self.sliders.with(&self.plan.graph.x_param, x);
        let job = self.run_job(vec![point.clone()], Priority::High, Some(rule))?;
        let estimate = job.into_progressive()?;
        let full = self.engine.config().worlds_per_point;
        if !estimate.used_basis && self.engine.basis_store().get_exact(&point, full).is_none() {
            // The simulation stopped below full depth: queue it as a
            // prefetch so idle time can finish it.
            self.guide.enqueue_prefetch(point);
        }
        Ok(estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::service::Prophet;
    use prophet_models::demo_registry;

    /// A session on Figure 2 from a fresh one-scenario service.
    fn session(worlds: usize) -> OnlineSession {
        Prophet::builder()
            .scenario("figure2", Scenario::figure2().unwrap())
            .registry(demo_registry())
            .worlds_per_point(worlds)
            .build()
            .unwrap()
            .online("figure2")
            .unwrap()
    }

    #[test]
    fn construction_requires_graph_directive() {
        let err = Prophet::builder()
            .scenario_sql(
                "bare",
                "DECLARE PARAMETER @p AS SET (1);\nSELECT @p AS x INTO r;",
            )
            .unwrap()
            .registry(demo_registry())
            .build()
            .unwrap()
            .online("bare");
        assert!(
            matches!(err, Err(ProphetError::MissingGraphDirective)),
            "{err:?}"
        );
    }

    #[test]
    fn sliders_start_at_domain_minima() {
        let s = session(16);
        assert_eq!(s.sliders().get("purchase1"), Some(0));
        assert_eq!(s.sliders().get("purchase2"), Some(0));
        assert_eq!(s.sliders().get("feature"), Some(12));
        assert_eq!(s.sliders().get("current"), None, "axis is not a slider");
        assert_eq!(s.slider_names(), ["feature", "purchase1", "purchase2"]);
    }

    #[test]
    fn first_refresh_computes_every_week_with_no_cache_hits() {
        let mut s = session(24);
        let r = s.refresh().unwrap();
        assert_eq!(r.weeks_total, 53);
        // A cold start has nothing cached; every week is either simulated
        // or — for strongly week-to-week-correlated stretches of the
        // Markovian capacity chain — mapped from an earlier week of the
        // same sweep (the intra-sweep mappings Figure 4 visualizes).
        assert_eq!(r.weeks_cached, 0);
        assert_eq!(r.weeks_simulated + r.weeks_mapped, 53);
        assert!(
            r.weeks_simulated >= 20,
            "cold start must do real work: {r:?}"
        );
        // graph got all three series, fully populated
        assert_eq!(s.graph().len(), 3);
        for series in s.graph() {
            assert_eq!(series.points.len(), 53);
        }
    }

    #[test]
    fn second_adjustment_rerenders_only_a_fraction() {
        let mut s = session(24);
        s.refresh().unwrap();
        // Move the second purchase later: weeks before its deployment are
        // unchanged (identity/offset mapped), weeks after map too.
        let r = s.set_param("purchase2", 40).unwrap();
        assert_eq!(r.weeks_total, 53);
        assert!(
            r.rerender_fraction() < 0.5,
            "adjustment should re-simulate a minority of weeks, got {}",
            r.rerender_fraction()
        );
        assert!(r.weeks_reused() > 26, "most weeks reused: {r:?}");
    }

    #[test]
    fn setting_axis_or_bad_values_is_rejected_with_typed_errors() {
        let mut s = session(8);
        assert!(matches!(
            s.set_param("current", 3),
            Err(ProphetError::AxisParam { ref name }) if name == "current"
        ));
        assert!(matches!(
            s.set_param("purchase1", 3),
            Err(ProphetError::OutOfDomain { ref name, value: 3 }) if name == "purchase1"
        ));
        match s.set_param("nope", 0) {
            Err(ProphetError::UnknownParam { name, available }) => {
                assert_eq!(name, "nope");
                assert_eq!(available, ["feature", "purchase1", "purchase2"]);
            }
            other => panic!("expected UnknownParam, got {other:?}"),
        }
        assert_eq!(s.adjustments(), 0);
    }

    #[test]
    fn overload_series_reacts_to_feature_release() {
        let mut s = session(48);
        s.set_param("purchase1", 16).unwrap();
        s.set_param("purchase2", 36).unwrap();
        s.refresh().unwrap();
        let overload = s.series("overload").unwrap();
        // Before the feature release (week 12) and with 10k cores vs ~8k
        // demand, overload is rare; after release and before purchase1
        // deploys (week 16+lag), it spikes.
        let before = overload.at(5).unwrap().y;
        let spike = overload.at(15).unwrap().y;
        assert!(before < 0.2, "early overload should be rare, got {before}");
        assert!(
            spike > before,
            "overload must rise after feature release: {before} → {spike}"
        );
    }

    #[test]
    fn prefetch_tick_consumes_anticipated_neighbours() {
        let mut s = session(8);
        s.refresh().unwrap();
        s.set_param("purchase2", 36).unwrap(); // queues neighbours 32 and 40
        let done = s.prefetch_tick(8).unwrap();
        assert_eq!(done, 2, "two domain neighbours should be prefetched");
        // prefetched points now serve from cache: adjusting to a prefetched
        // value re-renders nothing
        let r = s.set_param("purchase2", 40).unwrap();
        assert_eq!(r.weeks_simulated, 0, "{r:?}");
    }

    #[test]
    fn progressive_estimate_converges_faster_warm() {
        let mut s = session(200);
        s.refresh().unwrap();
        // cold engine for comparison
        let mut cold = session(200);
        let warm = s.progressive_expect("overload", 20, 0.05, 20).unwrap();
        let cold_est = cold.progressive_expect("overload", 20, 0.05, 20).unwrap();
        assert!(warm.used_basis);
        assert!(!cold_est.used_basis);
        assert_eq!(warm.worlds_used, 0, "warm estimate needs no fresh worlds");
        assert!(cold_est.worlds_used > 0);
        assert!((warm.estimate - cold_est.estimate).abs() < 0.15);
    }
}
