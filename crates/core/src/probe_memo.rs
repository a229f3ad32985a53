//! The engine's call-site probe memo.
//!
//! A fingerprint is a property of one VG function's parameterisation, not
//! of a whole parameter point: across Figure 2's 31,164 points,
//! `CapacityModel(@current, @purchase1, @purchase2)` sees 10,388 distinct
//! argument tuples and `DemandModel(@current, @feature)` 159. Each
//! [`Engine`](crate::engine::Engine) therefore remembers, per
//! `(function, call index, argument bits)`, the `f64` lanes that call drew
//! over the engine's *fixed* probe seed block, and the columnar walker
//! ([`prophet_sql::columnar::evaluate_select_columns_with`]) gathers them
//! instead of drawing again. See `docs/VECTORIZATION.md` for when a call
//! site is eligible.
//!
//! The memo is only ever handed to probe walks — one `SeedManager`, one
//! seed block, for the engine's lifetime — which is what makes a key that
//! names neither sufficient.
//!
//! # A per-scenario, service-lifetime budget
//!
//! A [`Prophet`](crate::service::Prophet) builds one engine per scenario
//! and keeps it for its lifetime, so this memo serves every job and
//! session of the scenario: a second sweep, or a sweep after a session,
//! re-probes what the first probed without drawing, and neither
//! `clear_basis` nor `load_basis` touches it (its entries do not depend
//! on what the store holds). Its bound, `MAX_ENTRIES` call sites, is
//! therefore a budget for the whole service's life on that scenario, not
//! per job. When it is full the next new call site clears the table. A
//! clear is deterministic and can only cost draws: every
//! lane a cleared entry held is drawn again, bit for bit, on its next
//! sighting, so no answer, sample or store byte depends on when it
//! happens. A long-lived service probing more than 16,384 distinct
//! tuples loses its warm memo at each clear and refills it. That cliff is
//! accepted over an eviction policy: a clear costs one draw per call site
//! seen again afterwards, and Figure 2's whole parameter space (10,547
//! tuples) never reaches it.

use std::collections::HashMap;
use std::sync::Arc;

use prophet_sql::columnar::{CallSiteKey, CallSiteMemo};
use prophet_vg::FastBuild;

use crate::sync::{OrderedMutex, PROBE_MEMO};

/// Most call sites remembered per engine (per scenario and service
/// lifetime on a `Prophet`). Figure 2 has 10,547 distinct
/// tuples, so it fits; at fingerprint length 32 a full table is ≈ 6 MB.
const MAX_ENTRIES: usize = 16_384;

/// Bounded `(call site) → lanes` table behind a leaf lock. Overflow clears
/// the table: deterministic, and it can only cost recomputation — a probe
/// that misses draws exactly the lanes a hit would have returned.
pub(crate) struct ProbeMemo {
    table: OrderedMutex<HashMap<CallSiteKey, Arc<[f64]>, FastBuild>>,
    max_entries: usize,
}

impl ProbeMemo {
    /// An empty memo (allocates nothing until the first insert).
    pub(crate) fn new() -> Self {
        ProbeMemo::with_bound(MAX_ENTRIES)
    }

    /// An empty memo that overflows at `max_entries` — tests overflow it
    /// without drawing sixteen thousand tuples.
    pub(crate) fn with_bound(max_entries: usize) -> Self {
        ProbeMemo {
            table: OrderedMutex::new(PROBE_MEMO, HashMap::default()),
            max_entries,
        }
    }
}

impl CallSiteMemo for ProbeMemo {
    fn get(&self, key: &CallSiteKey) -> Option<Arc<[f64]>> {
        self.table.lock().get(key).cloned()
    }

    /// Two workers that missed the same tuple at once both insert; their
    /// lanes are identical, so the last one simply wins.
    fn insert(&self, key: CallSiteKey, lanes: Arc<[f64]>) {
        let mut table = self.table.lock();
        if table.len() >= self.max_entries && !table.contains_key(&key) {
            table.clear();
        }
        table.insert(key, lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sql::columnar::ArgBits;

    fn key(i: i64) -> CallSiteKey {
        CallSiteKey {
            function: "F".into(),
            call_index: 0,
            args: vec![ArgBits::Int(i)],
        }
    }

    #[test]
    fn overflow_clears_and_keeps_serving() {
        let memo = ProbeMemo::with_bound(2);
        memo.insert(key(1), Arc::from([1.0]));
        memo.insert(key(2), Arc::from([2.0]));
        // Re-inserting a present key at the bound is not an overflow.
        memo.insert(key(2), Arc::from([2.0]));
        assert_eq!(memo.get(&key(1)).as_deref(), Some(&[1.0][..]));
        memo.insert(key(3), Arc::from([3.0]));
        assert!(memo.get(&key(1)).is_none(), "overflow drops the old table");
        assert_eq!(memo.get(&key(3)).as_deref(), Some(&[3.0][..]));
    }
}
