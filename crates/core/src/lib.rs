//! # fuzzy-prophet
//!
//! A reproduction of **Fuzzy Prophet** (Kennedy, Lee, Loboz, Smyl, Nath —
//! SIGMOD 2011): a probabilistic-database tool for constructing, simulating
//! and analyzing business scenarios with uncertain data, whose key
//! innovation is *fingerprinting* — detecting correlations between
//! parameterizations of black-box stochastic models so that Monte Carlo
//! results computed for one parameter point can be re-mapped to others
//! instead of re-simulated.
//!
//! ## Quick start
//!
//! The front door is the [`service::Prophet`] facade: a long-lived service
//! that registers scenarios by name and hands out sessions which share one
//! basis store per scenario — what any session simulates, every other
//! session re-maps or serves from cache.
//!
//! ```
//! use fuzzy_prophet::prelude::*;
//!
//! let prophet = Prophet::builder()
//!     // The paper's Figure-2 scenario, verbatim.
//!     .scenario("figure2", Scenario::figure2().unwrap())
//!     .registry(prophet_models::demo_registry())
//!     .config(EngineConfig { worlds_per_point: 64, ..EngineConfig::default() })
//!     .build()
//!     .unwrap();
//!
//! // Online mode: interactive sliders + live graph.
//! let mut session = prophet.online("figure2").unwrap();
//! let first = session.refresh().unwrap();
//! assert_eq!(first.weeks_cached, 0); // cold start: nothing reusable yet
//!
//! // Adjust a slider: most of the graph is re-mapped or cached, not
//! // re-simulated.
//! let report = session.set_param("purchase2", 40).unwrap();
//! assert!(report.weeks_simulated < first.weeks_simulated);
//!
//! // A second session starts warm: its first render reuses everything the
//! // first session computed through the shared basis store.
//! let mut another = prophet.online("figure2").unwrap();
//! let warm = another.refresh().unwrap();
//! assert_eq!(warm.weeks_simulated, 0);
//!
//! // Typed errors replace string matching.
//! match session.set_param("nope", 0) {
//!     Err(ProphetError::UnknownParam { available, .. }) => {
//!         assert_eq!(available, ["feature", "purchase1", "purchase2"]);
//!     }
//!     other => panic!("{other:?}"),
//! }
//! ```
//!
//! ## Architecture (paper Figure 1, service edition)
//!
//! ```text
//!                       ┌───────────────────────────────────────────┐
//!  online("figure2") ──▶│              Prophet service              │◀── submit(JobSpec::sweep(..))
//!                       │  scenarios by name · registry · config    │
//!                       └────────┬─────────────────────────┬────────┘
//!                                ▼                         ▼
//!                       ┌────────────────┐        ┌────────────────┐
//!                       │ OnlineSession  │        │   sweep job    │
//!                       │ (GraphPlan,    │        │ (SweepPlan,    │
//!                       │ prefetch FIFO) │        │ grid order)    │
//!                       └───────┬────────┘        └───────┬────────┘
//!                               ▼    batches of points    ▼
//!                       ┌───────────────────────────────────────────┐
//!                       │ Scheduler: one worker pool, chunks run by │
//!                       │ priority through the batch pipeline       │
//!                       └─────────────────────┬─────────────────────┘
//!                                             ▼  the scenario's one Engine
//!   ┌─────────────────┐  pure TSQL  ┌────────────┐  rows  ┌───────────────────┐
//!   │ Query Generator │ ──────────▶ │ SQL engine │ ─────▶ │ SharedBasisStore  │
//!   └─────────────────┘             └────────────┘        │ (the engine's,    │
//!                                                         │ shared by every   │
//!   ┌─────────────────┐  samples: simulated, re-mapped    │ session and job)  │
//!   │ Result          │ ◀──────────────────────────────── │                   │
//!   │ Aggregator      │  or cached                        └───────────────────┘
//!   │ (graph series,  │
//!   │ OPTIMIZE fold)  │
//!   └─────────────────┘
//! ```
//!
//! [`engine::Engine`] implements the cycle; [`session::OnlineSession`]
//! and the sweep job are the two user-facing modes from the paper's
//! demonstration, both handed out by [`service::Prophet`] and both run
//! on its pool. [`offline::OfflineOptimizer`] over a bare engine is the
//! offline mode's serial reference, and [`Engine::evaluate_batch`] the
//! batch pipeline's. Every public API reports failures as the typed
//! [`error::ProphetError`] — no raw SQL-layer errors escape this crate.
//!
//! ## Asynchronous jobs (0.3)
//!
//! The evaluation surface is job-shaped: [`Prophet::submit`] takes a
//! [`job::JobSpec`] (an OPTIMIZE sweep, a graph refresh, or a raw point
//! batch, with a [`job::Priority`]) and returns a [`job::JobHandle`]
//! immediately. The service owns one long-lived worker pool (the
//! [`scheduler::Scheduler`]); jobs execute as chunk-sized slices ordered
//! by priority, so an interactive refresh overtakes a running sweep
//! mid-flight instead of queueing behind it. Handles expose
//! [`progress`](job::JobHandle::progress) (points done/total plus the
//! job's own work counters, per-phase clocks included, live at chunk
//! granularity), a
//! [`recv`](job::JobHandle::recv) / [`events`](job::JobHandle::events)
//! stream of incremental [`job::JobEvent`]s (chunk results as each batch
//! of the job finalizes — a sweep streams group by group — then the
//! final answer), chunk-granular [`cancel`](job::JobHandle::cancel) (an
//! in-flight chunk finishes at most `chunk_points` × 100 worlds of
//! simulation after it), and
//! a blocking [`wait`](job::JobHandle::wait). Dropping a handle detaches
//! the job; it still completes.
//!
//! ```
//! use fuzzy_prophet::prelude::*;
//!
//! let prophet = Prophet::builder()
//!     .scenario("figure2", Scenario::figure2().unwrap())
//!     .scenario_sql("toy", "\
//! DECLARE PARAMETER @x AS RANGE 0 TO 6 STEP BY 2;
//! DECLARE PARAMETER @w AS SET (0, 1);
//! SELECT @x + 0 AS load INTO results;
//! OPTIMIZE SELECT @x FROM results
//! WHERE MAX(EXPECT load) <= 4.5 GROUP BY x FOR MAX @x").unwrap()
//!     .registry(prophet_models::demo_registry())
//!     .config(EngineConfig { worlds_per_point: 8, threads: 2, ..EngineConfig::default() })
//!     .build()
//!     .unwrap();
//!
//! // A sweep runs in the background…
//! let sweep = prophet.submit(JobSpec::sweep("toy").with_priority(Priority::Low)).unwrap();
//! // …while interactive work overtakes it on the same pool.
//! let mut session = prophet.online("figure2").unwrap();
//! session.refresh().unwrap(); // = submit(refresh).wait(), at Priority::High
//! let report = sweep.wait().unwrap().into_sweep().unwrap();
//! assert_eq!(report.best.unwrap().point.get("x"), Some(4));
//! ```
//!
//! [`OnlineSession::refresh`] is a thin client: it is exactly
//! `submit(...).wait()`, and the differential suite in `tests/jobs.rs`
//! proves a job's final answer is bit-identical to the inline reference
//! — [`Engine::evaluate_batch`], and [`OfflineOptimizer::run`] for a
//! sweep — at every chunk size, priority mix, and worker count: both run
//! the one batch pipeline in [`executor`], whose module docs carry the
//! argument.
//!
//! ## Observability (0.8)
//!
//! The scheduler carries a zero-dependency flight recorder ([`trace`]):
//! job lifecycle and chunk queue events, driver phase spans, store
//! claim/wait/publish/evict markers, and log-bucketed latency histograms
//! (chunk service time, queue wait by priority, match scans, in-flight
//! waits). Read a job's events via [`JobHandle::trace`](job::JobHandle::trace),
//! snapshot service-wide percentiles and gauges via
//! [`Prophet::telemetry`](service::Prophet::telemetry), and export a
//! `chrome://tracing`-loadable file via [`obs::chrome_trace_json`].
//! Tracing observes, never decides: determinism contracts are untouched,
//! and [`trace::TraceConfig::Off`] makes every recording call a no-op.
//! `docs/OBSERVABILITY.md` carries the event taxonomy and clock model.
//!
//! [`Prophet::submit`]: service::Prophet::submit
//! [`OfflineOptimizer::run`]: offline::OfflineOptimizer::run
//! [`OnlineSession::refresh`]: session::OnlineSession::refresh

pub mod engine;
pub mod error;
pub mod executor;
pub mod exploration;
pub mod job;
mod ledger_store;
pub mod metrics;
pub mod obs;
pub mod offline;
mod probe_memo;
mod recipe_memo;
pub mod render;
pub mod scenario;
pub mod scheduler;
pub mod service;
pub mod session;
pub mod sync;
pub mod trace;

pub use engine::{Engine, EngineConfig, EvalOutcome, ExecTier};
pub use error::{ProphetError, ProphetResult};
pub use exploration::{CellState, ExplorationMap};
pub use job::{
    ChunkUpdate, JobEvent, JobHandle, JobKind, JobOutput, JobProgress, JobSpec, Priority,
};
pub use metrics::EngineMetrics;
pub use obs::{chrome_trace_json, TelemetrySnapshot};
pub use offline::{OfflineOptimizer, OfflineReport, OptimizeAnswer};
pub use scenario::Scenario;
pub use scheduler::{Scheduler, SchedulerConfig};
pub use service::{Prophet, ProphetBuilder};
pub use session::{AdjustReport, OnlineSession, ProgressiveEstimate};
pub use trace::{
    LatencyHistogram, TraceConfig, TraceEvent, TraceEventKind, TraceTelemetry, Tracer,
};

/// Convenience re-exports for applications.
pub mod prelude {
    pub use crate::engine::{Engine, EngineConfig, EvalOutcome, ExecTier};
    pub use crate::error::{ProphetError, ProphetResult};
    pub use crate::exploration::{CellState, ExplorationMap};
    pub use crate::job::{
        ChunkUpdate, JobEvent, JobHandle, JobKind, JobOutput, JobProgress, JobSpec, Priority,
    };
    pub use crate::metrics::EngineMetrics;
    pub use crate::obs::{chrome_trace_json, TelemetrySnapshot};
    pub use crate::offline::{OfflineOptimizer, OfflineReport, OptimizeAnswer};
    pub use crate::scenario::Scenario;
    pub use crate::scheduler::{Scheduler, SchedulerConfig};
    pub use crate::service::{Prophet, ProphetBuilder};
    pub use crate::session::{AdjustReport, OnlineSession, ProgressiveEstimate};
    pub use crate::trace::{
        LatencyHistogram, TraceConfig, TraceEvent, TraceEventKind, TraceTelemetry, Tracer,
    };
    pub use prophet_mc::{ParamPoint, SharedBasisStore, SnapshotError, StoreStatsSnapshot};
}
