//! Flight recorder and latency telemetry: the observability layer shared
//! by the store (this crate) and the scheduler/engine tier
//! (`fuzzy_prophet`, which re-exports this module as
//! `fuzzy_prophet::trace` — the same layering as [`crate::sync`]).
//!
//! Three pieces:
//!
//! * **[`Tracer`]** — a cheaply-cloneable handle over an optional
//!   private recorder. With [`TraceConfig::Off`] the handle is `None`: no
//!   ring is allocated, every record call is one branch, and
//!   [`Tracer::now`] never reads the clock — a true passthrough.
//!   With [`TraceConfig::Ring`] events land in one bounded ring buffer
//!   (oldest events overwritten once it fills; drops are counted, never
//!   blocked on).
//! * **[`TraceEvent`]** — one typed, `Copy` record: a kind
//!   ([`TraceEventKind`]), a start timestamp and span duration in
//!   nanoseconds since the recorder's epoch, and the job id / chunk
//!   sequence / worker id it belongs to (sentinels [`NO_JOB`],
//!   [`NO_CHUNK`], [`NO_WORKER`] where not applicable).
//! * **[`LatencyHistogram`]** — log-bucketed (power-of-two bucket
//!   boundaries, one bucket per bit length) latency counts with
//!   deterministic subtraction and monotone percentile accessors. The
//!   bucket table is *fixed*, so a histogram minus an earlier snapshot
//!   of itself is exactly the histogram of what was recorded since.
//!
//! **Determinism.** Events observe, never decide: nothing in the
//! evaluation pipeline reads the recorder, timestamps never feed
//! scheduling or matching decisions, and the chaos suite
//! (`tests/chaos.rs`) proves answers bit-identical with tracing on.
//! The clock ([`TraceClock`]) is this module's single `Instant` read —
//! the `analysis` wall-clock lint permits `Instant::now()` only in
//! `metrics.rs`, `trace.rs`, and the bench crate.
//!
//! **Lock-wait edges.** Under `cfg(any(test, feature = "check"))`,
//! [`crate::sync::OrderedMutex::lock`] first tries the lock without
//! blocking; on contention it records a [`TraceEventKind::LockWait`]
//! span against the thread's installed tracer (see [`install`]). The
//! ring's own lock ranks at the very top of the lock-rank table
//! ([`TRACE_RING`], rank 90) so recording is legal while holding any
//! other lock, and the hook skips rank-90 locks so tracing the ring
//! never recurses into itself.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::sync::{LockRank, OrderedMutex};

/// Rank-table entry for the trace ring's lock (and nothing else): the
/// table's strict leaf, above every scheduler/store/engine lock, so an
/// event can be recorded while holding any of them.
pub const TRACE_RING: LockRank = LockRank::new(90, "trace ring");

/// Sentinel job id for events not tied to a job.
pub const NO_JOB: u64 = u64::MAX;
/// Sentinel chunk sequence for events not tied to a chunk.
pub const NO_CHUNK: u64 = u64::MAX;
/// Sentinel worker id for events recorded off the worker pool (a job
/// driver helping from the caller's thread, or an external session).
pub const NO_WORKER: u32 = u32::MAX;

/// Number of priority lanes in the queue-wait telemetry (High, Normal,
/// Low — the scheduler maps its `Priority` onto these indices).
pub const QUEUE_LANES: usize = 3;

// ----------------------------------------------------------------- the clock

/// The trace time source: a monotonic epoch captured at recorder
/// construction, read as nanoseconds-since-epoch. This is the
/// observability layer's one wall-clock boundary besides
/// `metrics::Stopwatch`; the `analysis` lint confines `Instant::now()`
/// to exactly these files.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    epoch: Instant,
}

impl TraceClock {
    /// Capture the epoch now.
    pub fn new() -> Self {
        TraceClock {
            epoch: Instant::now(),
        }
    }

    /// Monotonic nanoseconds since the epoch.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Default for TraceClock {
    fn default() -> Self {
        TraceClock::new()
    }
}

// -------------------------------------------------------------- event model

/// What happened. Span kinds carry a nonzero `dur_nanos` on their
/// [`TraceEvent`]; instant kinds record `dur_nanos == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// A job entered the scheduler (instant, submit-side).
    JobSubmit,
    /// A job's driver began executing (instant).
    JobStart,
    /// A job finished — result or error published (instant).
    JobFinish,
    /// A job's cancel flag was raised (instant). Chunks observe the
    /// flag before running, so no `ChunkRun` event starts after this.
    JobCancel,
    /// A chunk was pushed onto the priority queue (instant).
    ChunkEnqueue,
    /// A chunk was popped off the priority queue (instant); queue wait
    /// feeds the per-priority queue-wait histograms.
    ChunkDequeue,
    /// A chunk executed on a worker (span: the chunk's service time).
    ChunkRun,
    /// Batch driver phase: fingerprint probes fanned out (span).
    PhaseProbe,
    /// Batch driver phase: the match scan's candidate snapshot, taken on
    /// the driver (span).
    PhaseSnapshot,
    /// Batch driver phase: per-probe match-then-remap (the scan) fanned
    /// out (span).
    PhaseScan,
    /// Batch driver phase: miss simulation fanned out (span).
    PhaseSimulate,
    /// Batch driver phase: in-order publication of results (span).
    PhasePublish,
    /// A store claim was taken or resolved (instant).
    StoreClaim,
    /// A session blocked on another session's in-flight simulation
    /// (span: the wait).
    StoreWait,
    /// An owned claim published its samples to the store (instant).
    StorePublish,
    /// A basis entry was evicted to make room (instant).
    StoreEvict,
    /// A rank-ordered lock was contended (span: the wait). Only
    /// recorded under `cfg(any(test, feature = "check"))`, where the
    /// ordered wrappers try-lock first.
    LockWait {
        /// The contended lock's rank-table name.
        lock: &'static str,
    },
}

impl TraceEventKind {
    /// Stable short name, used by the Chrome trace export and logs.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::JobSubmit => "job_submit",
            TraceEventKind::JobStart => "job_start",
            TraceEventKind::JobFinish => "job_finish",
            TraceEventKind::JobCancel => "job_cancel",
            TraceEventKind::ChunkEnqueue => "chunk_enqueue",
            TraceEventKind::ChunkDequeue => "chunk_dequeue",
            TraceEventKind::ChunkRun => "chunk_run",
            TraceEventKind::PhaseProbe => "phase_probe",
            TraceEventKind::PhaseSnapshot => "phase_snapshot",
            TraceEventKind::PhaseScan => "phase_scan",
            TraceEventKind::PhaseSimulate => "phase_simulate",
            TraceEventKind::PhasePublish => "phase_publish",
            TraceEventKind::StoreClaim => "store_claim",
            TraceEventKind::StoreWait => "store_wait",
            TraceEventKind::StorePublish => "store_publish",
            TraceEventKind::StoreEvict => "store_evict",
            TraceEventKind::LockWait { .. } => "lock_wait",
        }
    }
}

/// One flight-recorder record. `Copy` and fixed-size: the ring is a
/// flat `Vec<TraceEvent>` with no per-event allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time, nanoseconds since the recorder's epoch.
    pub nanos: u64,
    /// Span duration in nanoseconds; `0` for instant events.
    pub dur_nanos: u64,
    /// Owning job id, or [`NO_JOB`].
    pub job: u64,
    /// Chunk sequence within the job, or [`NO_CHUNK`].
    pub chunk: u64,
    /// Pool worker that recorded the event, or [`NO_WORKER`].
    pub worker: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

// ---------------------------------------------------------------- histograms

/// Number of log buckets: bucket `i` holds durations whose bit length
/// is `i` (bucket 0 holds exactly 0 ns), so bucket 39 tops out at
/// 2³⁹−1 ns ≈ 550 s — beyond any latency this system produces; larger
/// values clamp into it.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Map a duration to its bucket: the bit length of the nanosecond
/// count, clamped to the table.
#[inline]
fn bucket_of(nanos: u64) -> usize {
    ((u64::BITS - nanos.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive) of bucket `i` in nanoseconds. Percentiles
/// report this ceiling, so p50 ≤ p90 ≤ p99 holds *by construction* —
/// cumulative counts are monotone over a fixed, ordered bucket table.
#[inline]
fn bucket_ceiling(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// A log-bucketed latency histogram over the fixed
/// [`HISTOGRAM_BUCKETS`] power-of-two table.
///
/// Because every histogram shares the same bucket boundaries,
/// [`since`](Self::since) is element-wise subtraction — deterministic,
/// exactly like the scalar counters in `EngineMetrics`
/// (which embeds two of these for the per-point probe/simulate
/// latency percentile block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    // Manual: std derives array Default only up to 32 elements.
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one observation of `nanos`.
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Raw bucket counts, index = bit length of the duration.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Bucket-wise difference `self − baseline` (saturating), the
    /// histogram of observations recorded since `baseline` was
    /// snapshotted.
    pub fn since(&self, baseline: &LatencyHistogram) -> LatencyHistogram {
        self.zip(baseline, u64::saturating_sub)
    }

    /// Combine the two histograms' counts bucket by bucket with `f`: `+`
    /// is the histogram of both sets of observations.
    pub fn zip(&self, other: &LatencyHistogram, f: impl Fn(u64, u64) -> u64) -> LatencyHistogram {
        let mut out = *self;
        for (a, b) in out.counts.iter_mut().zip(other.counts) {
            *a = f(*a, b);
        }
        out
    }

    /// The value (bucket ceiling, ns) at or below which `permille`/1000
    /// of observations fall. Returns 0 for an empty histogram.
    /// Monotone in `permille` by construction.
    pub fn percentile(&self, permille: u32) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let permille = u64::from(permille.min(1000));
        let target = ((total * permille).div_ceil(1000)).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_ceiling(i);
            }
        }
        bucket_ceiling(HISTOGRAM_BUCKETS - 1)
    }

    /// Median (ns, bucket ceiling).
    pub fn p50(&self) -> u64 {
        self.percentile(500)
    }

    /// 90th percentile (ns, bucket ceiling).
    pub fn p90(&self) -> u64 {
        self.percentile(900)
    }

    /// 95th percentile (ns, bucket ceiling).
    pub fn p95(&self) -> u64 {
        self.percentile(950)
    }

    /// 99th percentile (ns, bucket ceiling).
    pub fn p99(&self) -> u64 {
        self.percentile(990)
    }
}

/// Lock-free histogram cell: the in-recorder form, updated by workers
/// with relaxed bucket increments and snapshotted into a
/// [`LatencyHistogram`] value on read.
struct AtomicHistogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, nanos: u64) {
        self.counts[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (i, c) in self.counts.iter().enumerate() {
            out.counts[i] = c.load(Ordering::Relaxed);
        }
        out
    }
}

// ------------------------------------------------------------- configuration

/// How much a tier records. `Off` is the default for bare engines (the
/// blocking reference tier); the `Prophet` service tier defaults to
/// `Ring` via `SchedulerConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// No recorder at all: no allocation, record calls are one branch,
    /// the clock is never read.
    #[default]
    Off,
    /// Flight recorder on: a ring holding up to `capacity` events
    /// (oldest overwritten first, drops counted).
    Ring {
        /// Event capacity of the ring.
        capacity: usize,
    },
}

impl TraceConfig {
    /// The service tier's default ring size: 64Ki events (~3 MiB),
    /// enough for every chunk of a multi-thousand-point sweep.
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

    /// `Ring` at the default capacity.
    pub fn ring() -> Self {
        TraceConfig::Ring {
            capacity: Self::DEFAULT_RING_CAPACITY,
        }
    }
}

// ------------------------------------------------------------------ recorder

/// The bounded ring: a flat event vector overwritten oldest-first once
/// full. One ring under one lock — the lock is held for a single `Vec`
/// write, which the pool's event rate (tens of events per millisecond)
/// never contends on, and every thread can use the whole capacity.
struct Ring {
    events: Vec<TraceEvent>,
    /// Next overwrite position once `events` reached capacity.
    head: usize,
    capacity: usize,
}

impl Ring {
    fn push(&mut self, event: TraceEvent) -> bool {
        if self.events.len() < self.capacity {
            self.events.push(event);
            false
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            true
        }
    }
}

/// Aggregated telemetry read out of a [`Tracer`]: the latency
/// histograms plus the scheduler gauges. The service facade augments
/// this with store gauges into its `TelemetrySnapshot`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceTelemetry {
    /// Chunk service time (the `ChunkRun` span).
    pub chunk_service: LatencyHistogram,
    /// Queue wait (enqueue → dequeue) per priority lane:
    /// `[High, Normal, Low]`.
    pub queue_wait: [LatencyHistogram; QUEUE_LANES],
    /// Per-probe correlation match scans.
    pub match_scan: LatencyHistogram,
    /// Cross-session in-flight store waits.
    pub store_wait: LatencyHistogram,
    /// Chunks currently queued.
    pub queue_depth: usize,
    /// High-watermark of `queue_depth` since recorder creation.
    pub max_queue_depth: usize,
    /// Workers currently executing a task.
    pub workers_busy: usize,
    /// Events accepted by the ring (including later-overwritten ones).
    pub events_recorded: u64,
    /// Events that overwrote an older one (ring at capacity).
    pub events_dropped: u64,
}

/// The flight recorder proper: clock, ring, histograms, gauges.
/// Always reached through a [`Tracer`] handle.
struct Recorder {
    clock: TraceClock,
    ring: OrderedMutex<Ring>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    chunk_service: AtomicHistogram,
    queue_wait: [AtomicHistogram; QUEUE_LANES],
    match_scan: AtomicHistogram,
    store_wait: AtomicHistogram,
    queue_depth: AtomicUsize,
    max_queue_depth: AtomicUsize,
    workers_busy: AtomicUsize,
}

impl Recorder {
    fn new(capacity: usize) -> Self {
        Recorder {
            clock: TraceClock::new(),
            ring: OrderedMutex::new(
                TRACE_RING,
                Ring {
                    events: Vec::new(),
                    head: 0,
                    capacity: capacity.max(1),
                },
            ),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            chunk_service: AtomicHistogram::new(),
            queue_wait: std::array::from_fn(|_| AtomicHistogram::new()),
            match_scan: AtomicHistogram::new(),
            store_wait: AtomicHistogram::new(),
            queue_depth: AtomicUsize::new(0),
            max_queue_depth: AtomicUsize::new(0),
            workers_busy: AtomicUsize::new(0),
        }
    }

    fn record(&self, event: TraceEvent) {
        let overwrote = self.ring.lock().push(event);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if overwrote {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ------------------------------------------------------------- thread locals

thread_local! {
    /// Pool worker id for events recorded from this thread.
    static WORKER: Cell<u32> = const { Cell::new(NO_WORKER) };
    /// The tracer lock-wait edges report to (see [`install`]).
    static CURRENT: RefCell<Tracer> = const { RefCell::new(Tracer(None)) };
}

/// Tag this thread's recorded events with pool worker id `id`
/// (scheduler workers call this once at spawn). Returns the previous
/// id so scoped helpers can restore it.
pub fn set_worker(id: u32) -> u32 {
    WORKER.with(|w| w.replace(id))
}

/// Install `tracer` as this thread's lock-wait sink: contended
/// [`OrderedMutex`] acquisitions (checked builds only) record
/// [`TraceEventKind::LockWait`] spans against it. Returns the
/// previously installed tracer so scoped callers can restore it.
pub fn install(tracer: &Tracer) -> Tracer {
    CURRENT.with(|current| current.replace(tracer.clone()))
}

/// Lock-wait hook, called by [`crate::sync::OrderedMutex::lock`] after
/// a failed `try_lock` (checked builds only): the wait's start
/// timestamp, or `None` when nothing is recording. Rank-90 locks (the
/// trace ring itself) are skipped so recording never recurses.
#[cfg(any(test, feature = "check"))]
pub(crate) fn lock_wait_start(rank: LockRank) -> Option<u64> {
    if rank.rank >= TRACE_RING.rank {
        return None;
    }
    CURRENT.with(|current| {
        let tracer = current.borrow();
        if tracer.0.is_some() {
            Some(tracer.now())
        } else {
            None
        }
    })
}

/// Second half of the lock-wait hook: the lock was acquired after a
/// recorded contention, so emit the `LockWait` span.
#[cfg(any(test, feature = "check"))]
pub(crate) fn lock_wait_end(rank: LockRank, start: Option<u64>) {
    let Some(start) = start else { return };
    CURRENT.with(|current| {
        current.borrow().span(
            TraceEventKind::LockWait { lock: rank.name },
            NO_JOB,
            NO_CHUNK,
            start,
        );
    });
}

// -------------------------------------------------------------------- tracer

/// Cheaply-cloneable handle to a shared (private) recorder — or to nothing
/// ([`TraceConfig::Off`]), in which case every method is a no-op
/// behind a single `Option` branch and no ring exists anywhere.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Recorder>>);

impl Tracer {
    /// Build from a [`TraceConfig`]: `Off` allocates nothing.
    pub fn new(config: TraceConfig) -> Self {
        match config {
            TraceConfig::Off => Tracer(None),
            TraceConfig::Ring { capacity } => Tracer(Some(Arc::new(Recorder::new(capacity)))),
        }
    }

    /// The disabled tracer (same as `new(TraceConfig::Off)`).
    pub fn off() -> Self {
        Tracer(None)
    }

    /// Nanoseconds since the recorder epoch — or 0 when off, without
    /// touching the clock (span call sites pair `now()` with
    /// [`span`](Self::span), so the off path never reads time).
    pub fn now(&self) -> u64 {
        match &self.0 {
            Some(recorder) => recorder.clock.now_nanos(),
            None => 0,
        }
    }

    /// Record an instant event (zero duration), stamped with this
    /// thread's worker id.
    pub fn instant(&self, kind: TraceEventKind, job: u64, chunk: u64) {
        let Some(recorder) = &self.0 else { return };
        recorder.record(TraceEvent {
            nanos: recorder.clock.now_nanos(),
            dur_nanos: 0,
            job,
            chunk,
            worker: WORKER.with(Cell::get),
            kind,
        });
    }

    /// Record an instant event stamped at an explicit prior clock reading
    /// (a [`now`](Self::now) result) instead of the current time. Used
    /// where the stamp must be ordered against an atomic flag check — a
    /// stamp read *before* a successful not-cancelled check is guaranteed
    /// to sort before the cancel marker recorded after the flag store
    /// (the cancellation ordering argument in `docs/OBSERVABILITY.md`).
    pub fn instant_at(&self, kind: TraceEventKind, job: u64, chunk: u64, nanos: u64) {
        let Some(recorder) = &self.0 else { return };
        recorder.record(TraceEvent {
            nanos,
            dur_nanos: 0,
            job,
            chunk,
            worker: WORKER.with(Cell::get),
            kind,
        });
    }

    /// Record a span that began at `start` (a prior [`now`](Self::now)
    /// reading) and ends now.
    pub fn span(&self, kind: TraceEventKind, job: u64, chunk: u64, start: u64) {
        let Some(recorder) = &self.0 else { return };
        let end = recorder.clock.now_nanos();
        recorder.record(TraceEvent {
            nanos: start,
            dur_nanos: end.saturating_sub(start),
            job,
            chunk,
            worker: WORKER.with(Cell::get),
            kind,
        });
    }

    /// Count a chunk's service time.
    pub fn record_chunk_service(&self, nanos: u64) {
        if let Some(recorder) = &self.0 {
            recorder.chunk_service.record(nanos);
        }
    }

    /// Count a chunk's queue wait in priority lane `lane`
    /// (0 = High, 1 = Normal, 2 = Low; out-of-range clamps to Low).
    pub fn record_queue_wait(&self, lane: usize, nanos: u64) {
        if let Some(recorder) = &self.0 {
            recorder.queue_wait[lane.min(QUEUE_LANES - 1)].record(nanos);
        }
    }

    /// Count one probe's match-scan duration.
    pub fn record_match_scan(&self, nanos: u64) {
        if let Some(recorder) = &self.0 {
            recorder.match_scan.record(nanos);
        }
    }

    /// Count one cross-session in-flight wait.
    pub fn record_store_wait(&self, nanos: u64) {
        if let Some(recorder) = &self.0 {
            recorder.store_wait.record(nanos);
        }
    }

    /// Update the queue-depth gauge (and its high watermark).
    pub fn gauge_queue_depth(&self, depth: usize) {
        if let Some(recorder) = &self.0 {
            recorder.queue_depth.store(depth, Ordering::Relaxed);
            recorder.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// A worker began executing a task.
    pub fn worker_busy(&self) {
        if let Some(recorder) = &self.0 {
            recorder.workers_busy.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A worker finished its task.
    pub fn worker_idle(&self) {
        if let Some(recorder) = &self.0 {
            recorder.workers_busy.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Every retained event, sorted by start time. Empty when off.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(recorder) = &self.0 else {
            return Vec::new();
        };
        let mut all = {
            let ring = recorder.ring.lock();
            // Ring order: head..end is the older half once wrapped.
            [&ring.events[ring.head..], &ring.events[..ring.head]].concat()
        };
        all.sort_by_key(|e| (e.nanos, e.dur_nanos));
        all
    }

    /// The retained events belonging to job `job`, sorted by start
    /// time (the `JobHandle::trace()` surface).
    pub fn events_for_job(&self, job: u64) -> Vec<TraceEvent> {
        let mut events = self.events();
        events.retain(|e| e.job == job);
        events
    }

    /// Snapshot the histograms and gauges. Default (all-empty) when
    /// off.
    pub fn telemetry(&self) -> TraceTelemetry {
        let Some(recorder) = &self.0 else {
            return TraceTelemetry::default();
        };
        TraceTelemetry {
            chunk_service: recorder.chunk_service.snapshot(),
            queue_wait: std::array::from_fn(|i| recorder.queue_wait[i].snapshot()),
            match_scan: recorder.match_scan.snapshot(),
            store_wait: recorder.store_wait.snapshot(),
            queue_depth: recorder.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: recorder.max_queue_depth.load(Ordering::Relaxed),
            workers_busy: recorder.workers_busy.load(Ordering::Relaxed),
            events_recorded: recorder.recorded.load(Ordering::Relaxed),
            events_dropped: recorder.dropped.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(recorder) => f
                .debug_struct("Tracer")
                .field(
                    "events_recorded",
                    &recorder.recorded.load(Ordering::Relaxed),
                )
                .finish(),
            None => f.write_str("Tracer(off)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_allocates_no_ring_and_records_nothing() {
        let tracer = Tracer::new(TraceConfig::Off);
        assert!(tracer.0.is_none(), "Off must not allocate a recorder");
        assert_eq!(tracer.now(), 0, "Off never reads the clock");
        tracer.instant(TraceEventKind::JobSubmit, 1, NO_CHUNK);
        tracer.span(TraceEventKind::ChunkRun, 1, 2, 0);
        tracer.record_chunk_service(100);
        assert!(tracer.events().is_empty());
        assert_eq!(tracer.telemetry().events_recorded, 0);
    }

    #[test]
    fn clock_is_monotone() {
        let clock = TraceClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn events_round_trip_with_worker_and_job_stamps() {
        let tracer = Tracer::new(TraceConfig::Ring { capacity: 64 });
        let prev = set_worker(3);
        let start = tracer.now();
        tracer.instant(TraceEventKind::JobSubmit, 7, NO_CHUNK);
        tracer.span(TraceEventKind::ChunkRun, 7, 2, start);
        set_worker(prev);
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert_eq!(e.job, 7);
            assert_eq!(e.worker, 3);
        }
        let runs: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::ChunkRun)
            .collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].chunk, 2);
        assert_eq!(tracer.events_for_job(8).len(), 0);
        assert_eq!(tracer.events_for_job(7).len(), 2);
    }

    #[test]
    fn ring_bounds_capacity_and_counts_drops() {
        let tracer = Tracer::new(TraceConfig::Ring { capacity: 2 });
        tracer.instant(TraceEventKind::JobSubmit, 1, NO_CHUNK);
        tracer.instant(TraceEventKind::JobFinish, 2, NO_CHUNK);
        assert_eq!(tracer.telemetry().events_dropped, 0, "the ring holds 2");
        tracer.instant(TraceEventKind::JobFinish, 3, NO_CHUNK);
        let jobs: Vec<u64> = tracer.events().iter().map(|e| e.job).collect();
        assert_eq!(jobs, [2, 3], "oldest event overwritten first");
        let telemetry = tracer.telemetry();
        assert_eq!(telemetry.events_recorded, 3);
        assert_eq!(telemetry.events_dropped, 1);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 1, "zero lands in bucket 0");
        assert_eq!(h.buckets()[1], 1, "1 has bit length 1");
        assert_eq!(h.buckets()[2], 2, "2 and 3 have bit length 2");
        assert_eq!(h.buckets()[11], 1, "1024 has bit length 11");
        // Clamp: a value beyond the table lands in the last bucket.
        let mut big = LatencyHistogram::new();
        big.record(u64::MAX);
        assert_eq!(big.buckets()[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn percentiles_are_monotone_and_report_bucket_ceilings() {
        let mut h = LatencyHistogram::new();
        for nanos in [10u64, 20, 30, 1000, 2000, 4000, 100_000, 1_000_000] {
            h.record(nanos);
        }
        let (p50, p90, p95, p99) = (h.p50(), h.p90(), h.p95(), h.p99());
        assert!(
            p50 <= p90 && p90 <= p95 && p95 <= p99,
            "{p50} {p90} {p95} {p99}"
        );
        // Ceilings are 2^i - 1 by construction.
        for p in [p50, p90, p95, p99] {
            assert!(p == 0 || (p + 1).is_power_of_two(), "{p}");
        }
        assert_eq!(h.percentile(0), h.percentile(1));
        assert_eq!(LatencyHistogram::new().p99(), 0, "empty histogram");
    }

    #[test]
    fn histogram_merge_and_since_are_inverse() {
        let mut a = LatencyHistogram::new();
        a.record(5);
        a.record(700);
        let mut b = LatencyHistogram::new();
        b.record(5);
        b.record(1_000_000);
        // `a`'s and `b`'s observations recorded into one histogram.
        let mut merged = a;
        merged.record(5);
        merged.record(1_000_000);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.since(&b), a);
        assert_eq!(merged.since(&a), b);
        assert_eq!(a.zip(&b, |x, y| x + y), merged);
    }

    #[test]
    fn telemetry_histograms_and_gauges_snapshot() {
        let tracer = Tracer::new(TraceConfig::ring());
        tracer.record_chunk_service(1000);
        tracer.record_queue_wait(0, 50);
        tracer.record_queue_wait(1, 500);
        tracer.record_queue_wait(2, 5000);
        tracer.record_match_scan(250);
        tracer.record_store_wait(123);
        tracer.gauge_queue_depth(4);
        tracer.gauge_queue_depth(9);
        tracer.gauge_queue_depth(2);
        tracer.worker_busy();
        let t = tracer.telemetry();
        assert_eq!(t.chunk_service.count(), 1);
        assert_eq!(t.queue_wait[0].count(), 1);
        assert_eq!(t.queue_wait[1].count(), 1);
        assert_eq!(t.queue_wait[2].count(), 1);
        assert_eq!(t.match_scan.count(), 1);
        assert_eq!(t.store_wait.count(), 1);
        assert_eq!(t.queue_depth, 2);
        assert_eq!(t.max_queue_depth, 9, "watermark survives the drop");
        assert_eq!(t.workers_busy, 1);
        tracer.worker_idle();
        assert_eq!(tracer.telemetry().workers_busy, 0);
    }

    /// Contended ordered-lock acquisition records a `LockWait` span
    /// against the thread's installed tracer (checked builds — this
    /// test module always compiles with `cfg(test)`).
    #[test]
    fn contended_ordered_mutex_records_a_lock_wait_edge() {
        use std::sync::mpsc;

        let tracer = Tracer::new(TraceConfig::ring());
        let lock = Arc::new(OrderedMutex::new(LockRank::new(55, "contended probe"), ()));
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _g = lock.lock();
                held_tx.send(()).expect("signal held");
                release_rx.recv().expect("hold until told");
            })
        };
        held_rx.recv().expect("holder has the lock");
        let prev = install(&tracer);
        // Contended: try_lock fails, the wait is recorded.
        let waiter = {
            let lock = Arc::clone(&lock);
            let tracer = tracer.clone();
            std::thread::spawn(move || {
                install(&tracer);
                let _g = lock.lock();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        release_tx.send(()).expect("release holder");
        holder.join().expect("holder thread");
        waiter.join().expect("waiter thread");
        install(&prev);
        let waits: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceEventKind::LockWait { .. }))
            .collect();
        assert_eq!(waits.len(), 1, "one contended acquisition, one edge");
        assert_eq!(
            waits[0].kind,
            TraceEventKind::LockWait {
                lock: "contended probe"
            }
        );
    }
}
