//! # prophet-mc
//!
//! The Monte Carlo possible-worlds engine, in the MCDB tradition: this crate
//! implements the middle of the paper's Figure-1 cycle.
//!
//! * [`instance`] — [`instance::ParamPoint`]: a concrete valuation for every
//!   scenario parameter; together with a world id it forms an *instance* (a
//!   possible world).
//! * [`guide`] — the **Guide** component, which "directs scenario
//!   evaluation by producing a sequence of instances" (§2): the exhaustive
//!   grid sweep of offline mode, and online mode's one FIFO queue of
//!   slider-neighbour prefetches.
//! * [`batch`] — the **Query Generator**: batches instances and executes
//!   them against the `prophet-sql` executor, producing per-column sample
//!   sets.
//! * [`aggregate`] — the **Result Aggregator**: one fixed-order two-pass
//!   moments kernel (mean, standard deviation, standard error), quantiles
//!   and convergence detection.
//! * [`series`] — per-X-axis series construction for the `GRAPH OVER`
//!   directive.
//! * [`trace`] — the flight recorder and latency-histogram telemetry
//!   shared with the scheduler tier (re-exported as
//!   `fuzzy_prophet::trace`; see `docs/OBSERVABILITY.md`).

pub mod aggregate;
pub mod batch;
pub mod guide;
pub mod instance;
pub mod series;
mod snapshot;
pub mod store;
pub mod sync;
pub mod trace;

pub use aggregate::{ColumnMoments, SampleStats};
pub use batch::{simulate_point, simulate_point_columnar, simulate_point_columnar_with, SampleSet};
pub use guide::{GridGuide, PriorityGuide};
pub use instance::ParamPoint;
pub use series::{Series, SeriesPoint};
pub use store::{
    BasisHit, ColumnSamples, InflightGuard, MatchScanStats, ProbeScan, Provenance, Rebuild,
    RebuildHandle, Recipe, RecipeBody, ScanSnapshot, ScanWork, SharedBasisStore, SnapshotError,
    StoreStatsSnapshot, StoredEntry, TryClaim, WaitHandle,
};
pub use trace::{
    LatencyHistogram, TraceConfig, TraceEvent, TraceEventKind, TraceTelemetry, Tracer,
};
