//! Service-level observability surfaces.
//!
//! The raw recorder lives in [`crate::trace`] (one per scheduler pool);
//! this module is the *reading* side: a combined service snapshot
//! ([`TelemetrySnapshot`], returned by
//! [`Prophet::telemetry`](crate::service::Prophet::telemetry)) and the
//! Chrome-trace exporter ([`chrome_trace_json`]) that turns a recorded
//! event list into a `chrome://tracing` / Perfetto-loadable JSON file.
//! See `docs/OBSERVABILITY.md` for the event taxonomy and how to read
//! the exported trace.

mod chrome;

pub use chrome::chrome_trace_json;

use crate::trace::TraceTelemetry;

/// One coherent observation of a running [`Prophet`] service: the
/// scheduler tracer's histograms and gauges plus service-level facts the
/// recorder cannot see on its own. Plain data — taking a snapshot never
/// blocks job progress (every source is an atomic or a leaf lock).
///
/// [`Prophet`]: crate::service::Prophet
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetrySnapshot {
    /// Latency histograms (chunk service, queue wait by priority lane,
    /// match scan, store wait) and scheduler gauges (queue depth and its
    /// watermark, busy workers, ring accounting).
    pub trace: TraceTelemetry,
    /// Worker threads in the service's scheduler pool.
    pub workers_total: usize,
    /// In-flight simulation claims currently open across every
    /// scenario's shared basis store (points being simulated right now,
    /// deduplicated cross-session).
    pub inflight_claims: usize,
}
