//! The shared job scheduler: one long-lived worker pool per
//! [`Prophet`](crate::service::Prophet), executing submitted jobs as
//! priority-interleaved chunks.
//!
//! # Why a scheduler
//!
//! Before this module, every evaluation call built its own
//! `std::thread::scope` pool and seized the caller until the last point
//! landed: an offline sweep monopolized the process, and an interactive
//! refresh submitted behind it waited for the whole sweep. The scheduler
//! inverts that: the service owns one worker pool, jobs are split into
//! chunk-sized slices of work, and the pool always runs the
//! highest-priority chunk available — so a [`Priority::High`] refresh's
//! chunks overtake a [`Priority::Low`] sweep's chunks mid-sweep instead of
//! queueing behind them.
//!
//! # Execution model
//!
//! Each job runs as a *driver* task plus many *chunk* tasks:
//!
//! * the **driver** executes the job's sequential skeleton — for a batch,
//!   `run_batch` (the Figure-1 pipeline, documented with its phase table
//!   in [`executor`](crate::executor)) on this module's pooled runner; for
//!   a sweep, the sweep plan's one loop over such batches — and each
//!   parallel phase of the pipeline fans out to the pool as chunks of at
//!   most [`SchedulerConfig::chunk_points`] items (points, or world spans
//!   in the simulate phase);
//! * while a phase is outstanding the driver *helps*: it executes queued
//!   chunks (its own or, by priority, anyone else's) instead of sleeping,
//!   so a pool of `W` workers running `W` concurrent jobs cannot deadlock
//!   and never idles while chunk work is queued. A helping driver never
//!   starts another job's *driver*: chunks are pure, always-terminating
//!   computations, whereas a nested driver could block on store claims
//!   held by the suspended outer frame (deadlock) or run a whole foreign
//!   job inline ahead of the helper's own final answer (priority
//!   inversion) — only a worker's top-level loop starts drivers.
//!
//! The queue orders chunks by `(priority, job id, chunk sequence)`:
//! higher-priority jobs first, then older jobs, then earlier chunks.
//!
//! # Determinism
//!
//! This module is a pool, a queue and a job lifecycle; it evaluates
//! nothing itself. A job's answer is bit-identical to
//! [`Engine::evaluate_batch`]'s because both runners execute the same
//! function, and a runner may only reorder independent items: chunk
//! results land in index-addressed slots, and everything order-sensitive
//! (claims, the candidate snapshot, publication) stays on the driver, in
//! batch order. Chunking therefore changes *when* independent point
//! computations run, never *what* they compute or *in which order their
//! results become visible*. The differential suite in `tests/jobs.rs`
//! enforces this across every bundled scenario, chunk sizes {1, default,
//! whole-sweep}, 1 vs 8 workers, and concurrent jobs at mixed priorities.
//!
//! # Cancellation
//!
//! [`JobHandle::cancel`](crate::job::JobHandle::cancel) is chunk-granular:
//! chunks never observe the flag mid-chunk, so an in-flight chunk always
//! finishes its items; a chunk that had not started is skipped and its
//! slots come back empty, which the pipeline treats as "publish what
//! landed, release the rest". A simulate-phase item is one world span of
//! at most `SPAN_WORLDS` = 100 worlds, never a whole point, so after a
//! cancel each in-flight chunk runs at most
//! [`SchedulerConfig::chunk_points`] × 100 more worlds; a progressive
//! job's wave is one span of its `batch` worlds, so it runs at most that.
//! This holds for a point the job re-claims after a wait on another
//! session's abandoned claim too: the re-claim is a later round of the
//! same pipeline, on the same runner.
//!
//! # Concurrency conformance
//!
//! Every lock in this module is a rank-ordered wrapper from
//! [`crate::sync`] (the scheduler's locks hold ranks 10, 20, 70 and 80
//! of the workspace table: its queues, a job's event sender, a chunked
//! phase's result slots and the worker join handles), and [`SchedulerConfig::perturb`] arms the
//! seeded chaos scheduler that `tests/chaos.rs` sweeps to prove the
//! determinism argument above holds under adversarial interleavings.
//! `docs/CONCURRENCY.md` carries the full rank table, the store's
//! claim/publish protocol, and the lint rules that pin thread spawning
//! and raw lock construction to their sanctioned modules.
//!
//! # Observability
//!
//! The pool carries a [`Tracer`] (flight recorder + latency histograms,
//! configured through [`SchedulerConfig::trace`]): job lifecycle and
//! chunk queue events and queue-wait/service-time histograms are recorded
//! here, the pipeline records its phase spans into the same tracer
//! through the runner, and [`JobHandle::trace`] /
//! [`Prophet::telemetry`](crate::service::Prophet::telemetry) read them
//! back. Tracing *observes* scheduling — no control path reads the
//! recorder — so the determinism argument above is untouched by it; the
//! default service-tier configuration records into a bounded ring. See
//! `docs/OBSERVABILITY.md` for the event taxonomy and clock model.
//!
//! [`JobHandle::trace`]: crate::job::JobHandle::trace
//! [`Engine::evaluate_batch`]: crate::engine::Engine::evaluate_batch

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use prophet_mc::trace::{self, TraceConfig, TraceEventKind, Tracer, NO_CHUNK};
use prophet_mc::ParamPoint;

use crate::engine::Engine;
use crate::error::ProphetError;
use crate::executor::{run_batch, BatchResults, Runner, StopRule};
use crate::job::{ChunkUpdate, JobCore, JobEvent, JobHandle, JobOutput, Priority};
use crate::metrics::Counters;
use crate::offline::SweepPlan;
use crate::sync::{
    OrderedCondvar, OrderedMutex, CHUNK_RESULTS, JOB_EVENTS, SCHEDULER_HANDLES, SCHEDULER_STATE,
};

/// Default number of points per scheduled chunk: small enough that a
/// high-priority job overtakes a running sweep within a few points (and
/// that a graph-sized batch fans out across the whole pool), large enough
/// that queue traffic stays negligible next to simulation cost.
pub const DEFAULT_CHUNK_POINTS: usize = 8;

/// Scheduler tuning knobs, set through
/// [`ProphetBuilder::scheduler`](crate::service::ProphetBuilder::scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Worker threads in the pool. `0` (the default) means "derive from
    /// the engine configuration": `EngineConfig::threads`, floored at 2
    /// so an interactive job's driver always has a lane beside a running
    /// batch job's driver. Note that drivers occupy a worker for their
    /// job's whole duration (only *chunks* preempt by priority), so a
    /// pool explicitly configured with 1 worker serializes whole jobs in
    /// priority order rather than overtaking mid-job.
    pub workers: usize,
    /// Maximum items per scheduled chunk (clamped to at least 1): points
    /// in the probe and match phases, world spans of at most 100 worlds in
    /// the simulate phase. An upper bound: phases with fewer than
    /// `workers × chunk_points` items split finer so even small batches
    /// fan out across the whole pool.
    pub chunk_points: usize,
    /// Chaos-mode seed ([`SchedulerConfig::perturb`]): `Some(seed)`
    /// injects seeded yields and chunk-pop shuffles at the scheduler's
    /// preemption points. `None` (the default) runs undisturbed.
    pub chaos_seed: Option<u64>,
    /// Flight-recorder configuration for the pool's [`Tracer`]. The
    /// service tier defaults to a bounded ring
    /// ([`TraceConfig::ring`]) so [`JobHandle::trace`] and
    /// [`Prophet::telemetry`](crate::service::Prophet::telemetry) work
    /// out of the box; set [`TraceConfig::Off`] to compile every
    /// recording call down to an `Option::None` check.
    ///
    /// [`JobHandle::trace`]: crate::job::JobHandle::trace
    pub trace: TraceConfig,
}

impl SchedulerConfig {
    /// Enable chaos mode: every chunk pickup may yield the thread a few
    /// times and swap the heap's top two chunks, seeded by `seed` — so a
    /// test sweep over seeds explores many more interleavings than the
    /// quiet scheduler would produce. Answers, chosen sources and work
    /// counters must stay bit-identical under every seed (the scheduler's
    /// determinism contract, `docs/CONCURRENCY.md`); `tests/chaos.rs`
    /// enforces it. Perturbation only reorders *independent* work: chunk
    /// execution order within a phase carries no semantic weight, which
    /// is exactly what the sweep proves.
    pub fn perturb(mut self, seed: u64) -> Self {
        self.chaos_seed = Some(seed);
        self
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 0,
            chunk_points: DEFAULT_CHUNK_POINTS,
            chaos_seed: None,
            trace: TraceConfig::ring(),
        }
    }
}

/// Seeded schedule perturbation (chaos mode). Each decision draws from a
/// counter-keyed splitmix64 stream: cheap, lock-free, and seed-dependent,
/// so different seeds explore different interleavings. (The decision
/// *sequence* still depends on OS scheduling — chaos mode is a schedule
/// explorer, not a schedule replayer; determinism of the *answers* is
/// what the chaos sweep asserts.)
struct Chaos {
    seed: u64,
    ticks: AtomicU64,
}

impl Chaos {
    fn new(seed: u64) -> Self {
        Chaos {
            seed,
            ticks: AtomicU64::new(0),
        }
    }

    fn roll(&self) -> u64 {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Yield the thread 0–3 times: a seeded preemption point.
    fn maybe_yield(&self) {
        for _ in 0..(self.roll() & 3) {
            std::thread::yield_now();
        }
    }

    /// A seeded coin flip (chunk-pop shuffles).
    fn coin(&self) -> bool {
        self.roll() & 1 == 0
    }
}

/// SplitMix64 output mixer (Steele et al.) — the same generator family
/// `prophet-vg` seeds worlds with; inlined here because chaos draws are a
/// scheduler-internal detail, not part of any model's sample stream.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unit of pool work: the task plus its queue key.
struct QueuedTask {
    priority: Priority,
    job: u64,
    seq: u64,
    run: Run,
}

/// What a queued task runs.
enum Run {
    /// A job's driver.
    Driver(Box<dyn FnOnce() + Send>),
    /// Chunk `index` of a phase [`run_chunked`] fanned out, which every
    /// chunk of it shares.
    Chunk(Arc<dyn ChunkedPhase>, usize),
}

/// Queue-wait histogram lane for a priority (index into
/// [`TraceTelemetry::queue_wait`](prophet_mc::TraceTelemetry::queue_wait)).
fn lane_of(priority: Priority) -> usize {
    match priority {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

impl QueuedTask {
    /// Max-heap key: higher priority first, then older job, then earlier
    /// chunk.
    fn key(&self) -> (Priority, std::cmp::Reverse<u64>, std::cmp::Reverse<u64>) {
        (
            self.priority,
            std::cmp::Reverse(self.job),
            std::cmp::Reverse(self.seq),
        )
    }
}

impl PartialEq for QueuedTask {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for QueuedTask {}
impl PartialOrd for QueuedTask {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedTask {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.key().cmp(&other.key())
    }
}

struct State {
    /// Job driver tasks. Kept apart from chunks because only *workers*
    /// may start a driver: a driver helping with its own phase must never
    /// pop another job's driver — the nested job could block on store
    /// claims held by the suspended outer frame (deadlock), and even
    /// without shared points it would run an entire foreign job inline
    /// before finishing its own (priority inversion).
    drivers: BinaryHeap<QueuedTask>,
    /// Phase chunk tasks: pure, non-blocking computations. Safe for
    /// anyone — worker or helping driver — to run.
    chunks: BinaryHeap<QueuedTask>,
    /// Jobs submitted but not yet finished (drives [`Scheduler::wait_idle`]).
    active_jobs: usize,
    shutdown: bool,
}

impl State {
    /// Highest-priority task of either kind (workers' top-level loop).
    fn pop_any(&mut self, chaos: Option<&Chaos>) -> Option<QueuedTask> {
        match (self.drivers.peek(), self.chunks.peek()) {
            (Some(driver), Some(chunk)) => {
                if driver.cmp(chunk) == CmpOrdering::Greater {
                    self.drivers.pop()
                } else {
                    self.pop_chunk(chaos)
                }
            }
            (Some(_), None) => self.drivers.pop(),
            (None, _) => self.pop_chunk(chaos),
        }
    }

    /// Pop the next chunk — under chaos, sometimes the *second*-best
    /// chunk instead, shuffling execution order inside and across phases.
    /// Legal because chunk order never carries semantics: results land in
    /// index-addressed slots and publication happens later, on the
    /// driver, in batch order.
    fn pop_chunk(&mut self, chaos: Option<&Chaos>) -> Option<QueuedTask> {
        let first = self.chunks.pop()?;
        if let Some(chaos) = chaos {
            if chaos.coin() {
                if let Some(second) = self.chunks.pop() {
                    self.chunks.push(first);
                    return Some(second);
                }
            }
        }
        Some(first)
    }
}

pub(crate) struct Inner {
    state: OrderedMutex<State>,
    ready: OrderedCondvar,
    chunk_points: usize,
    workers: usize,
    next_job: AtomicU64,
    /// Chaos-mode perturbation source; `None` outside chaos runs.
    chaos: Option<Chaos>,
    /// The pool's flight recorder (shared with every [`JobCore`] and the
    /// slot stores). Observation only: no scheduling decision reads it.
    tracer: Tracer,
}

impl Inner {
    /// Chunk size for a phase of `n` items: at most `chunk_points`, but
    /// split finer when needed so even a small batch fans out across the
    /// whole pool (a 3-point phase on an 8-worker pool must not collapse
    /// into one sequential chunk).
    fn phase_chunk(&self, n: usize) -> usize {
        self.chunk_points.min(n.div_ceil(self.workers)).max(1)
    }
}

impl Inner {
    /// Wake every worker/helper/waiter. Taking the state lock first
    /// serializes with `help_until`'s condition check, so no wakeup is
    /// lost between "condition observed false" and "wait".
    fn notify(&self) {
        let _guard = self.state.lock();
        self.ready.notify_all();
    }

    fn push_chunks(&self, tasks: Vec<QueuedTask>) {
        let mut state = self.state.lock();
        for task in tasks {
            state.chunks.push(task);
        }
        self.tracer.gauge_queue_depth(state.chunks.len());
        self.ready.notify_all();
    }

    /// Run queued *chunk* tasks (any job's, by priority) until `done()`
    /// holds, sleeping only when no chunk is runnable. This is what lets
    /// a driver block on its own phase without wasting its thread or
    /// deadlocking the pool: chunks are pure computations that always
    /// terminate, so every outstanding phase drains even if all workers
    /// are themselves drivers stuck helping. Driver tasks are deliberately
    /// out of reach here — see [`State::drivers`].
    fn help_until(&self, done: impl Fn() -> bool) {
        loop {
            let task = {
                let mut state = self.state.lock();
                loop {
                    if done() {
                        return;
                    }
                    if let Some(task) = state.pop_chunk(self.chaos.as_ref()) {
                        self.tracer.gauge_queue_depth(state.chunks.len());
                        break task;
                    }
                    state = self.ready.wait(state);
                }
            };
            if let Some(chaos) = &self.chaos {
                chaos.maybe_yield();
            }
            run_task(task);
        }
    }
}

/// Execute one task, containing panics so a poisoned chunk cannot take a
/// pool worker down with it (the chunk's completion guard still fires
/// during unwinding, and the driver reports the lost slot as an error).
fn run_task(task: QueuedTask) {
    let _ = catch_unwind(AssertUnwindSafe(|| match task.run {
        Run::Driver(run) => run(),
        Run::Chunk(phase, index) => phase.run_chunk(index, task.seq),
    }));
}

/// A long-lived worker pool executing jobs as priority-ordered chunks.
/// One per [`Prophet`](crate::service::Prophet); see the [module
/// docs](self) for the execution model.
pub struct Scheduler {
    inner: Arc<Inner>,
    handles: OrderedMutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.inner.workers)
            .field("chunk_points", &self.inner.chunk_points)
            .field("active_jobs", &self.active_jobs())
            .finish()
    }
}

impl Scheduler {
    /// Spawn a pool. `config.workers == 0` falls back to one worker.
    /// (The [`Prophet`](crate::service::Prophet) builder resolves `0` to
    /// its engine thread count, floored at 2, before calling this.)
    /// Crate-private: jobs can only be submitted through a
    /// [`Prophet`](crate::service::Prophet), which owns its pool — a
    /// freestanding scheduler would have no public way to receive work.
    pub(crate) fn new(config: SchedulerConfig) -> Self {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            state: OrderedMutex::new(
                SCHEDULER_STATE,
                State {
                    drivers: BinaryHeap::new(),
                    chunks: BinaryHeap::new(),
                    active_jobs: 0,
                    shutdown: false,
                },
            ),
            ready: OrderedCondvar::new(),
            chunk_points: config.chunk_points.max(1),
            workers,
            next_job: AtomicU64::new(0),
            chaos: config.chaos_seed.map(Chaos::new),
            tracer: Tracer::new(config.trace),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    // Stamp this thread's events with its pool index and
                    // route its lock-wait edges (`--features check`) into
                    // the pool's recorder.
                    trace::set_worker(i as u32);
                    trace::install(&inner.tracer);
                    worker_loop(&inner)
                })
            })
            .collect();
        Scheduler {
            inner,
            handles: OrderedMutex::new(SCHEDULER_HANDLES, handles),
        }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Maximum points per scheduled chunk.
    pub fn chunk_points(&self) -> usize {
        self.inner.chunk_points
    }

    /// Jobs submitted and not yet finished (running or queued).
    pub fn active_jobs(&self) -> usize {
        self.inner.state.lock().active_jobs
    }

    /// The pool's flight recorder (shared with every job handle and slot
    /// store).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Block until every submitted job has finished — the way to observe
    /// completion of a job whose [`JobHandle`] was dropped (detached).
    pub fn wait_idle(&self) {
        let mut state = self.inner.state.lock();
        while state.active_jobs > 0 {
            state = self.inner.ready.wait(state);
        }
    }

    /// Submit an offline sweep job (the scenario's whole OPTIMIZE grid).
    pub(crate) fn submit_sweep(
        &self,
        engine: Arc<Engine>,
        plan: SweepPlan,
        priority: Priority,
    ) -> JobHandle {
        let points_total = (plan.groups_total() * plan.axis_total()) as u64;
        self.spawn_job(engine, priority, points_total, move |inner, core| {
            drive_sweep(&inner, &core, &plan);
        })
    }

    /// Submit a point-batch job: a raw batch or a graph refresh, or under
    /// a stop `rule` a progressive estimate, whose final output is then
    /// its (one point's) estimate.
    pub(crate) fn submit_batch(
        &self,
        engine: Arc<Engine>,
        points: Vec<ParamPoint>,
        priority: Priority,
        rule: Option<StopRule>,
    ) -> JobHandle {
        let points_total = points.len() as u64;
        self.spawn_job(engine, priority, points_total, move |inner, core| {
            drive_batch(&inner, &core, points, rule);
        })
    }

    fn spawn_job(
        &self,
        engine: Arc<Engine>,
        priority: Priority,
        points_total: u64,
        body: impl FnOnce(Arc<Inner>, Arc<JobCore>) + Send + 'static,
    ) -> JobHandle {
        let id = self.inner.next_job.fetch_add(1, Ordering::AcqRel);
        let (tx, rx) = mpsc::channel();
        let core = Arc::new(JobCore {
            id,
            priority,
            cancelled: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            points_done: AtomicU64::new(0),
            points_total: AtomicU64::new(points_total),
            chunks_done: AtomicU64::new(0),
            chunks_dispatched: AtomicU64::new(0),
            events: OrderedMutex::new(JOB_EVENTS, Some(tx)),
            engine,
            metrics: Counters::new(),
            tracer: self.inner.tracer.clone(),
        });
        self.inner
            .tracer
            .instant(TraceEventKind::JobSubmit, id, NO_CHUNK);
        let driver_core = Arc::clone(&core);
        let driver_inner = Arc::clone(&self.inner);
        let task = QueuedTask {
            priority,
            job: id,
            seq: 0,
            run: Run::Driver(Box::new(move || {
                driver_inner
                    .tracer
                    .instant(TraceEventKind::JobStart, id, NO_CHUNK);
                // Finishes the job however the driver ends. A panicking
                // driver must still fail the job: without this guard,
                // `wait()` would block forever (the event sender never
                // drops) and `wait_idle` would never settle.
                let _done = DriverDone {
                    inner: Arc::clone(&driver_inner),
                    core: Arc::clone(&driver_core),
                };
                body(driver_inner, driver_core);
            })),
        };
        {
            let mut state = self.inner.state.lock();
            state.active_jobs += 1;
            state.drivers.push(task);
            self.inner.ready.notify_all();
        }
        JobHandle { core, rx }
    }
}

impl Drop for Scheduler {
    /// Drain the queue (every submitted job runs to completion, so shared
    /// stores are never abandoned mid-claim), then join the workers.
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock();
            state.shutdown = true;
            self.inner.ready.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut state = inner.state.lock();
            loop {
                if let Some(task) = state.pop_any(inner.chaos.as_ref()) {
                    inner.tracer.gauge_queue_depth(state.chunks.len());
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = inner.ready.wait(state);
            }
        };
        if let Some(chaos) = &inner.chaos {
            chaos.maybe_yield();
        }
        inner.tracer.worker_busy();
        run_task(task);
        inner.tracer.worker_idle();
    }
}

// ------------------------------------------------------------- job drivers

/// Finishes its job when its driver returns or unwinds (a panic is
/// reported as the job's failure first): marks the job finished, closes
/// its event stream so the handle's iterator terminates, and wakes
/// idle-waiters — so handles and `wait_idle` never hang on a poisoned
/// driver.
struct DriverDone {
    inner: Arc<Inner>,
    core: Arc<JobCore>,
}

impl Drop for DriverDone {
    fn drop(&mut self) {
        let (inner, core) = (&self.inner, &self.core);
        if std::thread::panicking() {
            let panicked = ProphetError::Internal("job driver panicked".into());
            core.emit(JobEvent::Failed(panicked));
        }
        inner
            .tracer
            .instant(TraceEventKind::JobFinish, core.id, NO_CHUNK);
        core.finished.store(true, Ordering::Release);
        core.close_events();
        let mut state = inner.state.lock();
        state.active_jobs -= 1;
        inner.ready.notify_all();
    }
}

/// Stream a completed batch's results as chunk events, in batch order.
fn emit_chunks(
    inner: &Inner,
    core: &JobCore,
    event_chunk: &mut u64,
    points: &[ParamPoint],
    results: &BatchResults,
) {
    for (points, results) in points
        .chunks(inner.chunk_points)
        .zip(results.chunks(inner.chunk_points))
    {
        core.emit(JobEvent::Chunk(ChunkUpdate {
            chunk: *event_chunk,
            results: points
                .iter()
                .zip(results)
                .map(|(p, (_, outcome))| (p.clone(), outcome.clone()))
                .collect(),
        }));
        *event_chunk += 1;
    }
}

fn drive_sweep(inner: &Arc<Inner>, core: &Arc<JobCore>, plan: &SweepPlan) {
    let runner = Pooled { inner, core };
    let mut event_chunk = 0u64;
    let report = plan.run(
        &core.engine,
        |points| Ok(run_batch(&runner, points, None)?.map(|batch| batch.results)),
        |_, points, results| emit_chunks(inner, core, &mut event_chunk, points, results),
        || core.metrics.get(),
    );
    core.emit(match report {
        Ok(Some(report)) => JobEvent::Final(JobOutput::Sweep(Box::new(report))),
        Ok(None) => JobEvent::Cancelled,
        Err(err) => JobEvent::Failed(err),
    });
}

fn drive_batch(
    inner: &Arc<Inner>,
    core: &Arc<JobCore>,
    points: Vec<ParamPoint>,
    rule: Option<StopRule>,
) {
    match run_batch(&Pooled { inner, core }, &points, rule.as_ref()) {
        Ok(Some(mut batch)) => {
            emit_chunks(inner, core, &mut 0, &points, &batch.results);
            core.emit(JobEvent::Final(match batch.estimates.pop() {
                Some(estimate) => JobOutput::Progressive(estimate),
                None => JobOutput::Points(batch.results),
            }));
        }
        Ok(None) => core.emit(JobEvent::Cancelled),
        Err(err) => core.emit(JobEvent::Failed(err)),
    }
}

// ------------------------------------------------------- the pooled runner

/// The pipeline's view of one job on this pool: phases fan out as
/// priority-ordered chunks, the job's cancel flag stops the batch, its
/// progress counter ticks, its work goes to the job's counters, and
/// phase spans go to the pool's tracer.
struct Pooled<'a> {
    inner: &'a Arc<Inner>,
    core: &'a Arc<JobCore>,
}

impl Runner for Pooled<'_> {
    fn engine(&self) -> &Engine {
        &self.core.engine
    }

    fn metrics(&self) -> &Counters {
        &self.core.metrics
    }

    fn fan_out<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<Option<T>>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(&Engine, &Counters, I) -> T + Send + Sync + 'static,
    {
        let chunk = self.inner.phase_chunk(items.len());
        let core = Arc::clone(self.core);
        run_chunked(self.inner, self.core, items, chunk, move |item| {
            f(&core.engine, &core.metrics, item)
        })
    }

    fn is_cancelled(&self) -> bool {
        self.core.is_cancelled()
    }

    fn points_done(&self, n: u64) {
        self.core.points_done.fetch_add(n, Ordering::AcqRel);
    }

    fn trace(&self) -> (Tracer, u64) {
        (self.inner.tracer.clone(), self.core.id)
    }
}

/// Decrements the phase's outstanding-chunk count and wakes the driver on
/// drop — *on drop*, so a panicking chunk still completes the phase
/// instead of hanging it.
struct ChunkDone<'a> {
    remaining: &'a AtomicUsize,
    core: &'a JobCore,
    inner: &'a Inner,
}

impl Drop for ChunkDone<'_> {
    fn drop(&mut self) {
        self.core.chunks_done.fetch_add(1, Ordering::AcqRel);
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        self.inner.notify();
    }
}

/// Fan `items` out to the pool as chunks of at most `chunk` items of `f`
/// (which takes each item by value, so it can hand parts of it back in
/// its result), helping until every chunk finished. Slot `i` of the
/// result is `None` if its chunk was skipped (job cancelled before the
/// chunk started) or its item was lost to a panic.
///
/// The chunks share one [`Phase`]: each takes its items out of the
/// phase's slots and puts their results back, so a fan-out allocates the
/// phase, its slots, the task list and the returned vector — nothing per
/// chunk.
fn run_chunked<I, T, F>(
    inner: &Arc<Inner>,
    core: &Arc<JobCore>,
    items: Vec<I>,
    chunk: usize,
    f: F,
) -> Vec<Option<T>>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let chunks = len.div_ceil(chunk);

    // One enqueue stamp for the whole dispatch (they go into the queue in
    // one push). Read *before* the cancel check: if the flag read false,
    // the stamp precedes any `job_cancel` marker — so a cancelled job's
    // sorted trace never shows chunk traffic after its cancel event.
    let enqueued = inner.tracer.now();
    let dispatch_cancelled = core.is_cancelled();
    let phase = Arc::new(Phase {
        inner: Arc::clone(inner),
        core: Arc::clone(core),
        slots: OrderedMutex::new(CHUNK_RESULTS, items.into_iter().map(Slot::Item).collect()),
        f,
        len,
        chunk,
        remaining: AtomicUsize::new(chunks),
        enqueued,
    });
    let tasks = (0..chunks)
        .map(|index| {
            let seq = core.chunks_dispatched.fetch_add(1, Ordering::AcqRel) + 1;
            if !dispatch_cancelled {
                inner
                    .tracer
                    .instant_at(TraceEventKind::ChunkEnqueue, core.id, seq, enqueued);
            }
            QueuedTask {
                priority: core.priority,
                job: core.id,
                seq,
                run: Run::Chunk(Arc::clone(&phase) as Arc<dyn ChunkedPhase>, index),
            }
        })
        .collect();
    inner.push_chunks(tasks);
    inner.help_until(|| phase.remaining.load(Ordering::Acquire) == 0);
    let slots = std::mem::take(&mut *phase.slots.lock());
    (slots.into_iter())
        .map(|slot| match slot {
            Slot::Done(value) => Some(value),
            Slot::Item(_) | Slot::Taken => None,
        })
        .collect()
}

/// A phase [`run_chunked`] fanned out: its items and results, and what
/// each of its chunks needs. Every chunk task holds it.
struct Phase<I, T, F> {
    inner: Arc<Inner>,
    core: Arc<JobCore>,
    slots: OrderedMutex<Vec<Slot<I, T>>>,
    f: F,
    /// Items in the phase.
    len: usize,
    /// Items per chunk (the last may hold fewer).
    chunk: usize,
    /// Chunks not yet finished.
    remaining: AtomicUsize,
    /// The dispatch's enqueue stamp.
    enqueued: u64,
}

/// One item's slot in a [`Phase`]: the item until its chunk takes it,
/// then its result.
enum Slot<I, T> {
    Item(I),
    /// Taken by a chunk that has not put a result back (it panicked).
    Taken,
    Done(T),
}

/// A [`Phase`] as its chunk tasks run it.
trait ChunkedPhase: Send + Sync {
    /// Run chunk `index`, queued as chunk `seq` of its job.
    fn run_chunk(&self, index: usize, seq: u64);
}

impl<I, T, F> ChunkedPhase for Phase<I, T, F>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Send + Sync,
{
    fn run_chunk(&self, index: usize, seq: u64) {
        let (inner, core) = (&*self.inner, &*self.core);
        let _done = ChunkDone {
            remaining: &self.remaining,
            core,
            inner,
        };
        if let Some(chaos) = &inner.chaos {
            chaos.maybe_yield();
        }
        // Clock before flag: a chunk that passes the check below anchors
        // all its events at `t0`, which then provably precedes any cancel
        // marker (see `docs/OBSERVABILITY.md`).
        let t0 = inner.tracer.now();
        // Cancellation is chunk-granular: the flag is consulted once,
        // before any work — an in-flight chunk always finishes every item
        // it started (a probe, a match, or one world span of a
        // simulation).
        if core.is_cancelled() {
            return;
        }
        inner
            .tracer
            .instant_at(TraceEventKind::ChunkDequeue, core.id, seq, t0);
        inner
            .tracer
            .record_queue_wait(lane_of(core.priority), t0.saturating_sub(self.enqueued));
        let start = index * self.chunk;
        for i in start..(start + self.chunk).min(self.len) {
            let taken = std::mem::replace(&mut self.slots.lock()[i], Slot::Taken);
            let Slot::Item(item) = taken else {
                unreachable!("every slot holds its item until its one chunk runs")
            };
            let value = (self.f)(item);
            self.slots.lock()[i] = Slot::Done(value);
        }
        inner
            .tracer
            .span(TraceEventKind::ChunkRun, core.id, seq, t0);
        let service = inner.tracer.now().saturating_sub(t0);
        inner.tracer.record_chunk_service(service);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::scenario::Scenario;

    /// A driver that panics fails its job with a typed error and still
    /// finishes it: the handle's `wait` returns and `wait_idle` settles.
    #[test]
    fn a_panicking_driver_fails_and_finishes_its_job() {
        let scheduler = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        let scenario =
            Scenario::parse("DECLARE PARAMETER @p AS SET (1);\nSELECT @p AS x INTO r;").unwrap();
        let registry = prophet_models::demo_registry();
        let engine = Engine::new(&scenario, registry, EngineConfig::default()).unwrap();
        let handle = scheduler.spawn_job(Arc::new(engine), Priority::High, 0, |_, _| {
            panic!("injected driver panic")
        });
        assert!(
            matches!(handle.wait(), Err(ProphetError::Internal(ref m)) if m == "job driver panicked")
        );
        scheduler.wait_idle();
        assert_eq!(scheduler.active_jobs(), 0);
    }
}
