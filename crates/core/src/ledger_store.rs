//! The engine's draw-ledger store.
//!
//! A model whose draws do not depend on its arguments
//! ([`VgFunction::ledger_len`](prophet_vg::VgFunction::ledger_len)) can be
//! drawn once per random stream and replayed, draw-free, for every
//! argument tuple evaluated on that stream: across Figure 2's 10,388
//! distinct `CapacityModel(@current, @purchase1, @purchase2)` tuples there
//! are only 432 streams — 32 probe seeds plus 400 estimation worlds. Each
//! [`Engine`](crate::engine::Engine) keeps the drawn cells here, keyed by
//! `(function, call index, world)`, and the columnar walker
//! ([`prophet_vg::VgRegistry::invoke_batch_ledgered`]) replays from them.
//! See `docs/VECTORIZATION.md` for eligibility and bounds.
//!
//! The key is exactly what a call's substream is derived from under the
//! engine's one `SeedManager`, so — unlike the [probe
//! memo](crate::probe_memo), whose key leaves the world block implicit —
//! one store serves probe walks and simulation walks alike.
//!
//! # A per-scenario, service-lifetime budget
//!
//! A [`Prophet`](crate::service::Prophet) keeps one engine per scenario
//! for its lifetime, so these ledgers serve every job and session of the
//! scenario, and neither `clear_basis` nor `load_basis` touches them. The
//! `MAX_CELLS` bound (4 Mi cells, 32 MB) is thus a budget for the whole
//! service's life on that scenario. When a keep would pass it the table
//! is cleared and refilled — the probe memo's rule, and for the same
//! reason: a clear is deterministic and can only cost redraws of the very
//! cells a hit would have returned, so no answer, sample or store byte
//! depends on it. Figure 2 needs 432 ledgers of 256 cells (≈ 0.1 Mi
//! cells), far below the bound; a service whose streams outgrow it pays
//! one refill per clear instead of an eviction policy.

use std::collections::HashMap;

use prophet_vg::{FastBuild, LedgerCall, LedgerStore};

use crate::sync::{OrderedRwLock, DRAW_LEDGERS};

/// Most cells (`f64`s) kept per engine (per scenario and service lifetime
/// on a `Prophet`): 32 MB. Figure 2 needs 432 ledgers
/// of 256 cells.
const MAX_CELLS: usize = 1 << 22;

/// Longest single ledger kept. Every bundled model's bounded horizon fits
/// (`CapacityModel` at its 4,095-week maximum reads 16,386 cells); a call
/// needing more is drawn as if there were no store, so no allocation here
/// is ever proportional to an argument.
const MAX_LEN: usize = 1 << 16;

/// One function's ledgers: `(call index, world)` → cells.
type Ledgers = HashMap<(u64, u64), Vec<f64>, FastBuild>;

#[derive(Default)]
struct Table {
    /// `(call index, world)` → cells, per function name: one string hash
    /// per call site, one pair hash per world.
    by_function: HashMap<String, Ledgers, FastBuild>,
    cells: usize,
}

/// Bounded `(stream) → ledger` table behind a leaf lock. Readers replay
/// under the shared lock — replay is pure arithmetic over the borrowed
/// cells, and concurrent probe workers mostly read the same 32 streams —
/// and take the exclusive lock only to keep what they had to draw.
/// Overflow clears the table: deterministic, and it can only cost redraws
/// of the very cells a hit would have returned.
pub(crate) struct DrawLedgers {
    table: OrderedRwLock<Table>,
    max_cells: usize,
}

impl DrawLedgers {
    /// An empty store (allocates nothing until the first insert).
    pub(crate) fn new() -> Self {
        DrawLedgers::with_bound(MAX_CELLS)
    }

    /// An empty store that overflows at `max_cells` — tests overflow it
    /// without drawing four million cells.
    pub(crate) fn with_bound(max_cells: usize) -> Self {
        DrawLedgers {
            table: OrderedRwLock::new(DRAW_LEDGERS, Table::default()),
            max_cells,
        }
    }

    /// Cells currently kept, over all ledgers.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> usize {
        self.table.read().cells
    }
}

impl LedgerStore for DrawLedgers {
    fn max_len(&self) -> usize {
        MAX_LEN.min(self.max_cells)
    }

    fn read(
        &self,
        function: &str,
        calls: &[LedgerCall<'_>],
        visit: &mut dyn FnMut(usize, Option<&[f64]>),
    ) {
        let table = self.table.read();
        let ledgers = table.by_function.get(function);
        for (i, call) in calls.iter().enumerate() {
            visit(
                i,
                ledgers.and_then(|l| l.get(&call.key())).map(Vec::as_slice),
            );
        }
    }

    /// Two workers that missed the same stream at once both insert; their
    /// cells agree on the common prefix, so the longer one simply wins.
    fn insert(&self, function: &str, drawn: Vec<((u64, u64), Vec<f64>)>) {
        let mut table = self.table.write();
        for (key, ledger) in drawn {
            if table.cells + ledger.len() > self.max_cells {
                *table = Table::default();
            }
            let Table { by_function, cells } = &mut *table;
            let ledgers = by_function.entry(function.to_owned()).or_default();
            let kept = ledgers.entry(key).or_default();
            if ledger.len() > kept.len() {
                *cells += ledger.len() - kept.len();
                *kept = ledger;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call((call_index, world): (u64, u64)) -> LedgerCall<'static> {
        LedgerCall {
            params: &[],
            world,
            call_index,
        }
    }

    fn lookup(store: &DrawLedgers, key: (u64, u64)) -> Option<Vec<f64>> {
        let mut found = None;
        store.read("F", &[call(key)], &mut |_, ledger| {
            found = ledger.map(<[f64]>::to_vec)
        });
        found
    }

    #[test]
    fn longer_ledgers_replace_shorter_ones_never_the_reverse() {
        let store = DrawLedgers::new();
        store.insert("F", vec![((0, 7), vec![1.0, 2.0])]);
        store.insert("F", vec![((0, 7), vec![1.0])]);
        assert_eq!(lookup(&store, (0, 7)), Some(vec![1.0, 2.0]));
        store.insert("F", vec![((0, 7), vec![1.0, 2.0, 3.0])]);
        assert_eq!(lookup(&store, (0, 7)), Some(vec![1.0, 2.0, 3.0]));
        assert_eq!(store.cells(), 3);
        // Same stream coordinates under another function: another stream.
        let mut other = Some(vec![]);
        store.read("G", &[call((0, 7))], &mut |_, l| {
            other = l.map(<[f64]>::to_vec)
        });
        assert_eq!(other, None);
        assert_eq!(lookup(&store, (1, 7)), None);
    }

    #[test]
    fn overflow_clears_and_keeps_serving() {
        let store = DrawLedgers::with_bound(4);
        assert_eq!(store.max_len(), 4);
        store.insert("F", vec![((0, 1), vec![1.0; 2]), ((0, 2), vec![2.0; 2])]);
        assert_eq!(store.cells(), 4);
        // Growing a kept ledger past the bound is an overflow too.
        store.insert("F", vec![((0, 2), vec![2.0; 3])]);
        assert_eq!(lookup(&store, (0, 1)), None, "overflow drops the table");
        assert_eq!(lookup(&store, (0, 2)), Some(vec![2.0; 3]));
        assert_eq!(store.cells(), 3);
    }
}
