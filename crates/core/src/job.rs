//! Jobs: the asynchronous unit of evaluation work.
//!
//! The paper's whole point is *interactive* exploration — a user drags a
//! slider and watches estimates refine while the heavy Monte Carlo work
//! happens behind the scenes. A blocking API cannot serve that posture:
//! `OfflineOptimizer::run` seized the caller until the last point landed.
//! This module is the service-shaped surface instead: callers
//! [`submit`](crate::service::Prophet::submit) a [`JobSpec`] describing a
//! sweep, a graph refresh, a raw point batch, or an anytime estimate of
//! one point, and get back a
//! [`JobHandle`] they can poll ([`JobHandle::progress`]), stream
//! ([`JobHandle::recv`] / [`JobHandle::events`]), cancel
//! ([`JobHandle::cancel`]) or block on ([`JobHandle::wait`]).
//!
//! Execution happens on the service's shared
//! [`Scheduler`](crate::scheduler::Scheduler): jobs are split into
//! chunk-sized slices of work so concurrent jobs interleave by
//! [`Priority`] instead of queueing whole-sweep-at-a-time. A job runs the
//! same batch pipeline as [`Engine::evaluate_batch`], on the pool instead
//! of inline ([`executor`](crate::executor) carries the argument), so its
//! final answer is bit-identical to the blocking call's at any chunk
//! size, priority mix, and worker count — the differential suite in
//! `tests/jobs.rs` enforces it. A progressive job runs that pipeline under
//! a stop rule, so it stops simulating its point at the first world
//! prefix that meets its criterion.
//!
//! Dropping a [`JobHandle`] detaches it: the job still runs to completion
//! (its publications land in the shared basis store exactly as if someone
//! were watching), only the event stream is discarded.
//!
//! Event granularity: chunk results stream per finalized *batch* (a
//! sweep streams group by group; a raw point batch or a progressive
//! estimate emits its chunks when the batch completes) — see
//! [`ChunkUpdate`] for why. Poll
//! [`JobHandle::progress`] for liveness finer than that.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use prophet_mc::trace::{TraceEvent, TraceEventKind, Tracer, NO_CHUNK};
use prophet_mc::{ParamPoint, SampleSet};

use crate::engine::{Engine, EvalOutcome};
use crate::error::{ProphetError, ProphetResult};
use crate::metrics::{Counters, EngineMetrics};
use crate::offline::OfflineReport;
use crate::session::ProgressiveEstimate;
use crate::sync::OrderedMutex;

/// Scheduling class of a job: chunks of a higher-priority job are always
/// dispatched before chunks of a lower-priority one, whatever their
/// submission order. Within a class, earlier jobs win (FIFO), so equal
/// priorities never starve each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work (idle-time prefetch).
    Low,
    /// Batch work (offline sweeps).
    #[default]
    Normal,
    /// Interactive work (a user is watching).
    High,
}

/// What a job should do. Constructed through [`JobSpec::sweep`],
/// [`JobSpec::refresh`], [`JobSpec::points`] or [`JobSpec::progressive`],
/// with a fluent [`JobSpec::with_priority`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The work description.
    pub kind: JobKind,
    /// The scheduling class. Defaults to [`Priority::Normal`].
    pub priority: Priority,
}

/// The work a [`JobSpec`] describes.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Execute the named scenario's `OPTIMIZE` directive — the full
    /// offline sweep. The sweep's group axes and lexicographic objectives
    /// come from the directive itself, exactly as
    /// [`OfflineOptimizer::run`](crate::offline::OfflineOptimizer::run)
    /// executes them.
    Sweep {
        /// The registered scenario name.
        scenario: String,
    },
    /// Recompute every graph week of the named scenario at the given
    /// slider values — the job behind
    /// [`OnlineSession::refresh`](crate::session::OnlineSession::refresh).
    Refresh {
        /// The registered scenario name.
        scenario: String,
        /// One value per non-axis parameter.
        sliders: ParamPoint,
    },
    /// Evaluate an explicit batch of parameter points, in order.
    Points {
        /// The registered scenario name.
        scenario: String,
        /// The points to evaluate.
        points: Vec<ParamPoint>,
    },
    /// Estimate `EXPECT column` at one point, anytime: world prefixes
    /// growing by `batch` are tested until the 95 % confidence half-width
    /// is at most `epsilon`, and the point's samples are published at
    /// that depth — the job behind
    /// [`OnlineSession::progressive_expect`](crate::session::OnlineSession::progressive_expect).
    Progressive {
        /// The registered scenario name.
        scenario: String,
        /// The point to estimate at.
        point: ParamPoint,
        /// The output column to estimate.
        column: String,
        /// The target 95 % confidence half-width.
        epsilon: f64,
        /// Worlds added per prefix (at least 1).
        batch: usize,
    },
}

impl JobSpec {
    /// A full offline sweep of `scenario`'s OPTIMIZE directive.
    pub fn sweep(scenario: impl Into<String>) -> Self {
        JobSpec::of(JobKind::Sweep {
            scenario: scenario.into(),
        })
    }

    /// A graph refresh of `scenario` at the given sliders.
    pub fn refresh(scenario: impl Into<String>, sliders: ParamPoint) -> Self {
        JobSpec::of(JobKind::Refresh {
            scenario: scenario.into(),
            sliders,
        })
    }

    /// A raw point batch against `scenario`.
    pub fn points(scenario: impl Into<String>, points: Vec<ParamPoint>) -> Self {
        JobSpec::of(JobKind::Points {
            scenario: scenario.into(),
            points,
        })
    }

    /// An anytime estimate of `EXPECT column` at `point` of `scenario`.
    pub fn progressive(
        scenario: impl Into<String>,
        point: ParamPoint,
        column: impl Into<String>,
        epsilon: f64,
        batch: usize,
    ) -> Self {
        JobSpec::of(JobKind::Progressive {
            scenario: scenario.into(),
            point,
            column: column.into(),
            epsilon,
            batch,
        })
    }

    /// `kind` at the default priority.
    fn of(kind: JobKind) -> Self {
        JobSpec {
            kind,
            priority: Priority::default(),
        }
    }

    /// Set the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// A live snapshot of how far a job has progressed.
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Parameter points whose results have been finalized.
    pub points_done: u64,
    /// Parameter points the job will evaluate in total.
    pub points_total: u64,
    /// Work chunks completed on the scheduler so far.
    pub chunks_done: u64,
    /// Work chunks dispatched so far (grows as the job plans batches).
    pub chunks_dispatched: u64,
    /// Whether [`JobHandle::cancel`] has been observed.
    pub cancelled: bool,
    /// Whether the job has finished (final event emitted).
    pub finished: bool,
    /// This job's own work counters so far — including the per-phase
    /// wall clocks (`probe_nanos` / `sim_nanos` / `match_scan_nanos` /
    /// `probe_eval_nanos`). A job counts into counters of its own, not
    /// into its scenario's engine, so jobs running at once on one
    /// scenario never see each other's work. Once a sweep job has
    /// finished they equal its report's
    /// [`metrics`](crate::offline::OfflineReport::metrics).
    pub metrics: EngineMetrics,
}

impl JobProgress {
    /// Completed fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.points_total == 0 {
            1.0
        } else {
            (self.points_done as f64 / self.points_total as f64).min(1.0)
        }
    }
}

/// One chunk's worth of finalized point results.
///
/// Granularity: results are streamed as each *batch* of the job
/// finalizes — a sweep emits its chunk updates group by group as the
/// sweep advances; a points/refresh job (a single batch) emits them when
/// that batch completes, just before the final event. Publishing is
/// deliberately deferred to batch finalization so that store insertion
/// order (and therefore every future match tie-break) is identical to
/// the blocking path — the bit-identity contract outranks mid-batch
/// streaming. Live *progress* is not deferred:
/// [`JobHandle::progress`] advances as chunks complete inside a batch.
#[derive(Debug, Clone)]
pub struct ChunkUpdate {
    /// Zero-based chunk sequence within the job.
    pub chunk: u64,
    /// `(point, how it was served)` per finalized point, in batch order.
    pub results: Vec<(ParamPoint, EvalOutcome)>,
}

/// The final answer of a completed job.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// A [`JobKind::Sweep`] finished: the ranked offline report, exactly
    /// what the blocking [`OfflineOptimizer::run`] returns. (Boxed: a
    /// report is an order of magnitude larger than the point-results
    /// vector header, and events carrying a `JobOutput` move by value.)
    ///
    /// [`OfflineOptimizer::run`]: crate::offline::OfflineOptimizer::run
    Sweep(Box<OfflineReport>),
    /// A [`JobKind::Refresh`] or [`JobKind::Points`] finished: one
    /// `(samples, outcome)` per requested point, in request order (for a
    /// refresh, graph-axis order).
    Points(Vec<(SampleSet, EvalOutcome)>),
    /// A [`JobKind::Progressive`] finished: the estimate, with the fresh
    /// worlds it took — which only the run knows.
    Progressive(ProgressiveEstimate),
}

impl JobOutput {
    /// The sweep report, if this was a sweep job.
    pub fn into_sweep(self) -> ProphetResult<OfflineReport> {
        match self {
            JobOutput::Sweep(report) => Ok(*report),
            other => Err(other.mismatch("a sweep output")),
        }
    }

    /// The per-point results, if this was a refresh/points job.
    pub fn into_points(self) -> ProphetResult<Vec<(SampleSet, EvalOutcome)>> {
        match self {
            JobOutput::Points(results) => Ok(results),
            other => Err(other.mismatch("point outputs")),
        }
    }

    /// The estimate, if this was a progressive job.
    pub fn into_progressive(self) -> ProphetResult<ProgressiveEstimate> {
        match self {
            JobOutput::Progressive(estimate) => Ok(estimate),
            other => Err(other.mismatch("a progressive estimate")),
        }
    }

    /// The error for reading this output as `expected`.
    fn mismatch(self, expected: &str) -> ProphetError {
        ProphetError::Internal(format!("expected {expected}, got {self:?}"))
    }
}

/// An incremental notification from a running job.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// A chunk of point results was finalized and published.
    Chunk(ChunkUpdate),
    /// The job completed; this is always the last event on success.
    Final(JobOutput),
    /// The job observed a cancel: unstarted chunks were dropped, in-flight
    /// chunks finished and their results were published.
    Cancelled,
    /// The job failed; this is always the last event on error.
    Failed(ProphetError),
}

/// Shared state between a [`JobHandle`] and the scheduler's job driver.
pub(crate) struct JobCore {
    pub(crate) id: u64,
    pub(crate) priority: Priority,
    pub(crate) cancelled: AtomicBool,
    pub(crate) finished: AtomicBool,
    pub(crate) points_done: AtomicU64,
    pub(crate) points_total: AtomicU64,
    pub(crate) chunks_done: AtomicU64,
    pub(crate) chunks_dispatched: AtomicU64,
    /// Event sink; send failures (dropped handle) are ignored — the job is
    /// detached, not aborted. The scheduler takes the sender when the job
    /// finishes, so the handle's receiver disconnects and event iteration
    /// terminates after the final event.
    pub(crate) events: OrderedMutex<Option<Sender<JobEvent>>>,
    /// The job's engine: its scenario's one engine on the service.
    pub(crate) engine: Arc<Engine>,
    /// What the job's pooled runner counts into (`progress().metrics`).
    pub(crate) metrics: Counters,
    /// The scheduler's flight recorder ([`Tracer::off`] when tracing is
    /// disabled) — lets the handle read this job's events back and the
    /// cancel path stamp its `job_cancel` marker.
    pub(crate) tracer: Tracer,
}

impl JobCore {
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    pub(crate) fn emit(&self, event: JobEvent) {
        if let Some(tx) = &*self.events.lock() {
            let _ = tx.send(event);
        }
    }

    /// Close the event stream (the job will send nothing further).
    pub(crate) fn close_events(&self) {
        self.events.lock().take();
    }
}

/// A handle onto a submitted job. See the [module docs](self) for the
/// lifecycle; dropping the handle detaches the job without cancelling it.
pub struct JobHandle {
    pub(crate) core: Arc<JobCore>,
    pub(crate) rx: Receiver<JobEvent>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.core.id)
            .field("priority", &self.core.priority)
            .field("cancelled", &self.core.is_cancelled())
            .field("finished", &self.core.finished.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The job's scheduler-wide id (submission order).
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// The job's scheduling class.
    pub fn priority(&self) -> Priority {
        self.core.priority
    }

    /// Live progress: points done/total, chunk accounting, and the job's
    /// work counters (per-phase nanos included).
    pub fn progress(&self) -> JobProgress {
        JobProgress {
            points_done: self.core.points_done.load(Ordering::Acquire),
            points_total: self.core.points_total.load(Ordering::Acquire),
            chunks_done: self.core.chunks_done.load(Ordering::Acquire),
            chunks_dispatched: self.core.chunks_dispatched.load(Ordering::Acquire),
            cancelled: self.core.is_cancelled(),
            finished: self.core.finished.load(Ordering::Acquire),
            metrics: self.core.metrics.get(),
        }
    }

    /// Request cancellation: chunks not yet started are dropped; chunks
    /// already in flight finish and publish, so the shared basis store
    /// never sees a half-published chunk. The job ends with
    /// [`JobEvent::Cancelled`]. Idempotent; a job that already finished is
    /// unaffected.
    pub fn cancel(&self) {
        self.core.cancelled.store(true, Ordering::Release);
        // Stamped *after* the flag is visible: any chunk that records a
        // `chunk_run` event after this instant read the flag later than
        // the store above, so it must have started before the cancel —
        // in a sorted trace no chunk of this job begins after the
        // `job_cancel` marker.
        self.core
            .tracer
            .instant(TraceEventKind::JobCancel, self.core.id, NO_CHUNK);
    }

    /// This job's flight-recorder events (submit/start/finish markers,
    /// chunk queue traffic, driver phase spans), sorted by timestamp.
    /// Empty when the scheduler's [`TraceConfig`] is `Off` — and possibly
    /// missing *oldest* events if the bounded ring wrapped; check
    /// [`Tracer::telemetry`]'s `events_dropped` when completeness
    /// matters. See `docs/OBSERVABILITY.md` for the event taxonomy.
    ///
    /// [`TraceConfig`]: prophet_mc::trace::TraceConfig
    /// [`Tracer::telemetry`]: prophet_mc::trace::Tracer::telemetry
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.core.tracer.events_for_job(self.core.id)
    }

    /// Block until the next event. `None` once the job has ended and every
    /// event has been drained.
    pub fn recv(&self) -> Option<JobEvent> {
        self.rx.recv().ok()
    }

    /// The next event if one is ready, without blocking.
    pub fn try_recv(&self) -> Option<JobEvent> {
        self.rx.try_recv().ok()
    }

    /// A blocking iterator over the job's remaining events, ending after
    /// the final event.
    pub fn events(&self) -> impl Iterator<Item = JobEvent> + '_ {
        std::iter::from_fn(move || self.recv())
    }

    /// Block until the job ends, discarding incremental events, and return
    /// the final answer. Cancellation surfaces as
    /// [`ProphetError::JobCancelled`].
    pub fn wait(self) -> ProphetResult<JobOutput> {
        for event in self.events() {
            match event {
                JobEvent::Chunk(_) => {}
                JobEvent::Final(output) => return Ok(output),
                JobEvent::Cancelled => return Err(ProphetError::JobCancelled),
                JobEvent::Failed(err) => return Err(err),
            }
        }
        Err(ProphetError::Internal(
            "job ended without a final event (scheduler shut down?)".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn spec_builders_carry_priority() {
        let spec = JobSpec::sweep("s").with_priority(Priority::High);
        assert!(matches!(spec.kind, JobKind::Sweep { ref scenario } if scenario == "s"));
        assert_eq!(spec.priority, Priority::High);
        let spec = JobSpec::points("s", vec![ParamPoint::new()]);
        assert_eq!(spec.priority, Priority::Normal);
    }

    #[test]
    fn progress_fraction_saturates() {
        let p = JobProgress {
            points_done: 3,
            points_total: 4,
            chunks_done: 0,
            chunks_dispatched: 0,
            cancelled: false,
            finished: false,
            metrics: EngineMetrics::default(),
        };
        assert!((p.fraction() - 0.75).abs() < 1e-12);
        let empty = JobProgress {
            points_total: 0,
            ..p.clone()
        };
        assert_eq!(empty.fraction(), 1.0);
    }
}
