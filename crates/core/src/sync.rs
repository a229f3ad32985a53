//! Rank-ordered locks: the engine half of the workspace lock-rank table.
//!
//! The instrumented primitives — [`OrderedMutex`], [`OrderedRwLock`],
//! [`OrderedCondvar`], [`ClaimLedger`] — are implemented in
//! [`prophet_mc::sync`] and re-exported here: the shared basis store
//! (`prophet-mc`) sits *below* this crate in the dependency graph, so the
//! primitives must live where both layers can reach them. This module is
//! the workspace's one place to read the whole rank table.
//!
//! # The lock-rank table
//!
//! A thread may only acquire a lock whose rank is **strictly greater**
//! than the highest rank it currently holds. Under `cfg(any(test,
//! feature = "check"))` every acquisition is verified against a
//! thread-local held-rank stack and a violation panics (naming both
//! locks) before blocking; release builds compile the tracking out.
//!
//! | rank | lock | defined in |
//! |-----:|------|------------|
//! | 10 | [`SCHEDULER_STATE`] — scheduler queues + condvar state | this module |
//! | 20 | [`JOB_EVENTS`] — a job's event-sender cell | this module |
//! | 30 | [`rank::INFLIGHT_TABLE`] — store pending-claim table | `prophet_mc::sync` |
//! | 40 | [`rank::INFLIGHT_SLOT`] — one pending slot's state cell | `prophet_mc::sync` |
//! | 50 | [`rank::STORE_TABLE`] — basis entry table (`RwLock`) | `prophet_mc::sync` |
//! | 67 | [`rank::STORE_STATS`] — store counter ledger | `prophet_mc::sync` |
//! | 70 | [`CHUNK_RESULTS`] — a chunked phase's result slots | this module |
//! | 72 | [`PROBE_MEMO`] — a scenario engine's call-site probe memo, taken by every job of the scenario | this module |
//! | 73 | [`DRAW_LEDGERS`] — a scenario engine's draw-ledger store (`RwLock`), taken likewise | this module |
//! | 74 | [`RECIPE_MEMO`] — a scenario engine's recipe memo, taken likewise | this module |
//! | 75 | [`ENGINE_METRICS`] — one run's work counters: a job's, or a bare engine's own | this module |
//! | 80 | [`SCHEDULER_HANDLES`] — worker join handles (drop only) | this module |
//! | 90 | [`TRACE_RING`] — the flight-recorder ring | `prophet_mc::trace` |
//!
//! The assignments encode the real nesting: claim/publish/clear/restore
//! hold the in-flight table (30) across slot-state (40) and entry-table
//! (50) acquisitions; the counter ledger (67) sits above the table so
//! accounting is legal while its guard is held (`stats_snapshot` does
//! exactly that). Everything else is leaf-like — acquired and released
//! with nothing nested inside — so any rank would do, but giving each a
//! distinct slot means an *accidental* future nesting is either proven
//! harmless (ascending) or caught (inverted), instead of silently
//! becoming a deadlock candidate. [`TRACE_RING`] is deliberately the
//! highest rank: recording a trace event must be legal while holding
//! *any* other lock (events are emitted from deep inside the scheduler
//! and store), and nothing may nest inside the ring's lock. The
//! `--features check` lock-wait hook skips ranks at or above it so the
//! recorder never observes itself. `docs/CONCURRENCY.md` carries the
//! protocol-level discussion; `docs/OBSERVABILITY.md` the recorder's.
//!
//! A [`Prophet`](crate::service::Prophet) builds one engine per scenario,
//! so [`PROBE_MEMO`], [`DRAW_LEDGERS`] and [`RECIPE_MEMO`] are slot-wide
//! locks: every job and session of the scenario takes them, across jobs,
//! for the service's lifetime — a probe chunk of an interactive refresh
//! and one of a running sweep contend on them. All three stay leaves,
//! held for one lookup, one insert or one call site's replay and never
//! across a VG call or a remap, so sharing them adds contention, never
//! nesting. [`ENGINE_METRICS`] is not
//! slot-wide: it guards one run's counters, and each job has its own.

pub use prophet_mc::sync::{
    rank, ClaimLedger, LockRank, OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedReadGuard,
    OrderedRwLock, OrderedWriteGuard,
};
pub use prophet_mc::trace::TRACE_RING;

/// The scheduler's queue state (`drivers`/`chunks` heaps, shutdown flag)
/// and its `ready` condvar. Held only to push/pop tasks and notify —
/// never across running a task or touching the store.
pub const SCHEDULER_STATE: LockRank = LockRank::new(10, "scheduler state");

/// A job's event-sender cell (`JobCore::events`, a private detail of
/// `crate::job`): taken to emit or close the stream, with nothing nested
/// inside.
pub const JOB_EVENTS: LockRank = LockRank::new(20, "job event sender");

/// A chunked phase's item and result slots (`run_chunked`): a chunk
/// briefly takes each of its items out and puts its result back; the
/// driver drains them once the phase completes.
pub const CHUNK_RESULTS: LockRank = LockRank::new(70, "chunk result slots");

/// An engine's call-site probe memo (`crate::probe_memo`): a leaf held
/// for one lookup or one insert, never across a VG call. On a service it
/// is the scenario's, taken by every job of the scenario.
pub const PROBE_MEMO: LockRank = LockRank::new(72, "engine probe memo");

/// The engine's draw-ledger store (`crate::ledger_store`): a leaf held
/// shared while a call site replays its worlds' ledgers (pure arithmetic,
/// no draw) and exclusively to keep freshly drawn ones — never across a
/// draw. On a service it is the scenario's, taken by every job of the
/// scenario.
pub const DRAW_LEDGERS: LockRank = LockRank::new(73, "engine draw ledgers");

/// An engine's recipe memo (`crate::recipe_memo`): a leaf held to look
/// up or insert one recipe's entry, or to clear the table after its
/// store's, never across the remap that fills it. On a service it is the scenario's, taken by every job of the
/// scenario.
pub const RECIPE_MEMO: LockRank = LockRank::new(74, "engine recipe memo");

/// One run's [`EngineMetrics`](crate::metrics::EngineMetrics): a job's
/// counters, or a bare engine's own (the inline runner's). A leaf bumped
/// after each primitive completes.
pub const ENGINE_METRICS: LockRank = LockRank::new(75, "engine metrics");

/// The scheduler's worker join handles, taken only during `Drop`.
pub const SCHEDULER_HANDLES: LockRank = LockRank::new(80, "scheduler worker handles");

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "check")]
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The engine-side ranks and the store-side ranks really form one
    /// table: every constant is distinct and the documented order holds.
    #[test]
    fn rank_table_is_consistent() {
        let table = [
            SCHEDULER_STATE,
            JOB_EVENTS,
            rank::INFLIGHT_TABLE,
            rank::INFLIGHT_SLOT,
            rank::STORE_TABLE,
            rank::STORE_STATS,
            CHUNK_RESULTS,
            PROBE_MEMO,
            DRAW_LEDGERS,
            RECIPE_MEMO,
            ENGINE_METRICS,
            SCHEDULER_HANDLES,
            TRACE_RING,
        ];
        for pair in table.windows(2) {
            assert!(
                pair[0].rank < pair[1].rank,
                "rank table out of order: {} ({}) !< {} ({})",
                pair[0].name,
                pair[0].rank,
                pair[1].name,
                pair[1].rank
            );
        }
    }

    /// Cross-layer inversion — store lock held, scheduler lock acquired —
    /// trips the checker exactly like a same-layer inversion. (This is
    /// the nesting the help-while-holding-a-claim deadlock would need.)
    ///
    /// Gated on `check`: under a plain `cargo test`, `prophet-mc` is
    /// compiled as a dependency without `cfg(test)`, so its tracking is
    /// inert from this crate. The CI `--features check` lane runs this.
    #[cfg(feature = "check")]
    #[test]
    fn cross_layer_inversion_trips_the_checker() {
        let store_side = OrderedMutex::new(rank::INFLIGHT_TABLE, ());
        let scheduler_side = OrderedMutex::new(SCHEDULER_STATE, ());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _t = store_side.lock();
            let _s = scheduler_side.lock();
        }));
        let payload = result.expect_err("inversion must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "got: {msg}");
        assert!(
            msg.contains("scheduler state") && msg.contains("store inflight table"),
            "got: {msg}"
        );
    }
}
