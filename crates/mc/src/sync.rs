//! Instrumented synchronization primitives: rank-ordered locks and the
//! claim-protocol ledger.
//!
//! Every lock in the scheduler/store layer is wrapped in an
//! [`OrderedMutex`] / [`OrderedRwLock`] carrying a [`LockRank`] from the
//! workspace-wide rank table (documented in `docs/CONCURRENCY.md` and
//! re-exported with the engine-side ranks from `fuzzy_prophet::sync`).
//! The discipline is **strictly ascending acquisition**: a thread may only
//! acquire a lock whose rank is strictly greater than the highest rank it
//! currently holds. Any two code paths that obey that rule cannot
//! deadlock on these locks, whatever their interleaving.
//!
//! Under `cfg(any(test, feature = "check"))` each acquisition is checked
//! against a thread-local stack of held ranks and a violation panics
//! *before* blocking on the lock — so an ordering bug surfaces as a
//! diagnostic naming both locks instead of as a silent deadlock. In
//! release builds (without the `check` feature) the tracking compiles out
//! entirely: the wrappers are a `&'static` rank tag around the std
//! primitive and the check helpers are empty `#[inline(always)]` bodies.
//!
//! What never compiles out is poison reporting: acquiring a poisoned lock
//! panics with the lock's *name and rank* (satisfying "which lock
//! poisoned?") instead of std's anonymous `PoisonError` unwind.
//!
//! The module also hosts [`ClaimLedger`], the claim-protocol state
//! machine for the store's in-flight slots: every parameter point must go
//! **claimed → simulated → published** exactly once per claim, with the
//! publish landing before the claim is released (a claim released without
//! publishing is a *cancellation*, which is legal; a claim released
//! between simulate and publish is not). The store calls the ledger's
//! transition hooks from `try_claim` / `InflightGuard::complete` /
//! `clear`; under `check` any out-of-order transition panics with the
//! offending point.

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(any(test, feature = "check"))]
use std::cell::RefCell;
#[cfg(any(test, feature = "check"))]
use std::collections::HashMap;

// ---------------------------------------------------------------- lock ranks

/// A position in the workspace-wide lock-rank table. Locks must be
/// acquired in strictly ascending rank order; see the module docs and
/// `docs/CONCURRENCY.md` for the table itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    /// Numeric rank. Gaps between assigned ranks are deliberate: future
    /// locks slot in without renumbering the table.
    pub rank: u16,
    /// Human-readable lock name, used in every diagnostic.
    pub name: &'static str,
}

impl LockRank {
    /// Define a rank-table entry.
    pub const fn new(rank: u16, name: &'static str) -> Self {
        LockRank { rank, name }
    }
}

/// Store-layer entries of the rank table. The engine-side entries
/// (scheduler state, job events, chunk results, engine metrics, worker
/// handles) live in `fuzzy_prophet::sync`, which re-exports these so one
/// module shows the whole table.
pub mod rank {
    use super::LockRank;

    /// The in-flight claim table (`SharedBasisStore`'s pending-slot map).
    /// Held across slot-state and entry-table acquisitions: claim, publish
    /// and clear all serialize on it, so it ranks below both.
    pub const INFLIGHT_TABLE: LockRank = LockRank::new(30, "store inflight table");
    /// One pending slot's state cell (owner/waiter hand-off).
    pub const INFLIGHT_SLOT: LockRank = LockRank::new(40, "store inflight slot");
    /// The basis entry table (one `RwLock`): records, the stamp counter
    /// and the stamp-ordered eviction queues. Taken inside the in-flight
    /// table by claim, publish, clear and restore, so it ranks above it.
    pub const STORE_TABLE: LockRank = LockRank::new(50, "basis store table");
    /// The store's counter ledger (hits/misses/waits/evictions): a leaf
    /// bumped at the end of scans and inserts, above the table rank so
    /// accounting is legal while the table guard is still held.
    pub const STORE_STATS: LockRank = LockRank::new(67, "basis store stats");
}

#[cfg(any(test, feature = "check"))]
thread_local! {
    /// Ranks this thread currently holds, in acquisition order. Because
    /// every push is checked to be strictly greater than the current top,
    /// the stack is always sorted and `last()` is the maximum.
    static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
}

/// RAII token recording one held rank on the thread-local stack.
/// Zero-sized and inert without `check`.
struct RankToken {
    rank: LockRank,
}

impl RankToken {
    #[cfg(any(test, feature = "check"))]
    fn acquire(rank: LockRank) -> Self {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(top) = held.last() {
                assert!(
                    rank.rank > top.rank,
                    "lock-order violation: acquiring `{}` (rank {}) while holding `{}` (rank {}) \
                     — locks must be acquired in strictly ascending rank order \
                     (see docs/CONCURRENCY.md)",
                    rank.name,
                    rank.rank,
                    top.name,
                    top.rank,
                );
            }
            held.push(rank);
        });
        RankToken { rank }
    }

    #[cfg(not(any(test, feature = "check")))]
    #[inline(always)]
    fn acquire(rank: LockRank) -> Self {
        RankToken { rank }
    }
}

#[cfg(any(test, feature = "check"))]
impl Drop for RankToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards may drop out of acquisition order; release the most
            // recent occurrence of this rank.
            if let Some(pos) = held.iter().rposition(|r| r.rank == self.rank.rank) {
                held.remove(pos);
            }
        });
    }
}

/// Panic naming the poisoned lock. A poisoned lock means another thread
/// panicked while holding it; propagating with the lock's identity turns
/// an anonymous `PoisonError` unwind into an actionable diagnostic.
#[cold]
fn poisoned(rank: LockRank) -> ! {
    panic!(
        "lock `{}` (rank {}) poisoned: a thread panicked while holding it",
        rank.name, rank.rank
    );
}

// -------------------------------------------------------------- OrderedMutex

/// A [`Mutex`] tagged with a [`LockRank`]: acquisition order is checked
/// under `cfg(any(test, feature = "check"))`, poison panics always name
/// the lock. Transparent passthrough otherwise.
pub struct OrderedMutex<T> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` under `rank`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        OrderedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// This lock's rank-table entry.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire, checking rank order before blocking (a violation panics
    /// with both lock names instead of deadlocking).
    ///
    /// In checked builds the acquisition first tries the lock without
    /// blocking; on contention the wait is reported to the thread's
    /// installed tracer as a [`crate::trace::TraceEventKind::LockWait`]
    /// span — the flight recorder's lock-wait edges. Unchecked builds
    /// go straight to the blocking acquire.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = RankToken::acquire(self.rank);
        #[cfg(any(test, feature = "check"))]
        let wait = match self.inner.try_lock() {
            Ok(inner) => return OrderedMutexGuard { inner, token },
            Err(std::sync::TryLockError::WouldBlock) => crate::trace::lock_wait_start(self.rank),
            // Poisoned: fall through to the blocking acquire, which
            // reports the poison with the lock's name.
            Err(std::sync::TryLockError::Poisoned(_)) => None,
        };
        match self.inner.lock() {
            Ok(inner) => {
                #[cfg(any(test, feature = "check"))]
                crate::trace::lock_wait_end(self.rank, wait);
                OrderedMutexGuard { inner, token }
            }
            Err(_) => poisoned(self.rank),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard of an [`OrderedMutex`]; releases the held-rank record on drop.
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    token: RankToken,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

// ------------------------------------------------------------ OrderedCondvar

/// A [`Condvar`] that waits on [`OrderedMutex`] guards. While the wait
/// has the lock released, the lock's rank is popped from the held stack —
/// so a waiting thread's other acquisitions are checked against what it
/// actually holds.
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// A fresh condition variable.
    pub const fn new() -> Self {
        OrderedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Atomically release the guard's lock, wait for a notification, and
    /// re-acquire (re-recording the rank).
    pub fn wait<'a, T>(&self, guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        let OrderedMutexGuard { inner, token } = guard;
        let rank = token.rank;
        // In unchecked builds the token is a unit struct with no Drop
        // impl, and clippy notices; in checked builds this pops the rank
        // for the duration of the wait.
        #[allow(clippy::drop_non_drop)]
        drop(token);
        match self.inner.wait(inner) {
            Ok(inner) => OrderedMutexGuard {
                inner,
                token: RankToken::acquire(rank),
            },
            Err(_) => poisoned(rank),
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

impl Default for OrderedCondvar {
    fn default() -> Self {
        OrderedCondvar::new()
    }
}

impl fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OrderedCondvar")
    }
}

// ------------------------------------------------------------- OrderedRwLock

/// An [`RwLock`] tagged with a [`LockRank`]. Both read and write
/// acquisitions count against the rank order: a same-thread recursive
/// read would deadlock-or-not at std's whim, so the checker rejects it
/// like any other non-ascending acquisition.
pub struct OrderedRwLock<T> {
    rank: LockRank,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wrap `value` under `rank`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        OrderedRwLock {
            rank,
            inner: RwLock::new(value),
        }
    }

    /// This lock's rank-table entry.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Shared acquisition, rank-checked.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let token = RankToken::acquire(self.rank);
        match self.inner.read() {
            Ok(inner) => OrderedReadGuard { inner, token },
            Err(_) => poisoned(self.rank),
        }
    }

    /// Exclusive acquisition, rank-checked.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let token = RankToken::acquire(self.rank);
        match self.inner.write() {
            Ok(inner) => OrderedWriteGuard { inner, token },
            Err(_) => poisoned(self.rank),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard of an [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    #[allow(dead_code)] // held for its Drop (rank release) only
    token: RankToken,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard of an [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    #[allow(dead_code)] // held for its Drop (rank release) only
    token: RankToken,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

// -------------------------------------------------------------- claim ledger

/// The claim-protocol state machine, tracked per key. The legal walk for
/// one claim is **claimed → simulated → published → released**; the only
/// legal shortcut is claimed → released (cancellation: the owner failed
/// or a `clear` detached the slot before any result existed). Everything
/// else — claiming a claimed key, simulating or publishing without a
/// claim, publishing twice, releasing between simulate and publish — is a
/// protocol violation and panics under `cfg(any(test, feature =
/// "check"))`. Without `check` the ledger is a zero-sized no-op, so the
/// hooks cost nothing in release.
pub struct ClaimLedger<K> {
    #[cfg(any(test, feature = "check"))]
    states: Mutex<HashMap<K, ClaimState>>,
    #[cfg(not(any(test, feature = "check")))]
    _marker: std::marker::PhantomData<fn(K)>,
}

/// Where one claim stands in the claimed → simulated → published walk.
#[cfg(any(test, feature = "check"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClaimState {
    Claimed,
    Simulated,
    Published,
}

impl<K> Default for ClaimLedger<K> {
    fn default() -> Self {
        ClaimLedger::new()
    }
}

impl<K> ClaimLedger<K> {
    /// An empty ledger.
    pub fn new() -> Self {
        ClaimLedger {
            #[cfg(any(test, feature = "check"))]
            states: Mutex::new(HashMap::new()),
            #[cfg(not(any(test, feature = "check")))]
            _marker: std::marker::PhantomData,
        }
    }
}

#[cfg(any(test, feature = "check"))]
impl<K: std::hash::Hash + Eq + Clone + fmt::Debug> ClaimLedger<K> {
    fn states(&self) -> MutexGuard<'_, HashMap<K, ClaimState>> {
        // The ledger's own mutex is a checker internal, acquired and
        // released leaf-style with no other ledger/lock acquisition
        // nested inside, so it carries no rank of its own.
        self.states.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A claim was granted: `key` must not already be claimed.
    pub fn on_claimed(&self, key: &K) {
        let prior = self.states().insert(key.clone(), ClaimState::Claimed);
        assert!(
            prior.is_none(),
            "claim-protocol violation: point {key:?} claimed while already {prior:?} \
             — at most one live claim per point",
        );
    }

    /// The owner finished computing `key`'s result (simulation or remap):
    /// legal only from `Claimed`.
    pub fn on_simulated(&self, key: &K) {
        let mut states = self.states();
        match states.get_mut(key) {
            Some(state @ ClaimState::Claimed) => *state = ClaimState::Simulated,
            other => panic!(
                "claim-protocol violation: point {key:?} simulated while {other:?} \
                 — simulate requires a live unsimulated claim",
            ),
        }
    }

    /// The owner published `key`'s result: legal only from `Simulated`,
    /// and therefore at most once per claim (a double publish finds
    /// `Published`, not `Simulated`).
    pub fn on_published(&self, key: &K) {
        let mut states = self.states();
        match states.get_mut(key) {
            Some(state @ ClaimState::Simulated) => *state = ClaimState::Published,
            other => panic!(
                "claim-protocol violation: point {key:?} published while {other:?} \
                 — publish must follow simulate exactly once",
            ),
        }
    }

    /// The claim was released (slot removed). Legal from `Published`
    /// (normal completion) or `Claimed` (cancellation before any result);
    /// releasing from `Simulated` means a computed result was dropped
    /// between simulate and publish — the protocol requires publish
    /// before release.
    pub fn on_released(&self, key: &K) {
        match self.states().remove(key) {
            Some(ClaimState::Published) | Some(ClaimState::Claimed) => {}
            other => panic!(
                "claim-protocol violation: point {key:?} released while {other:?} \
                 — a simulated claim must publish before release",
            ),
        }
    }
}

#[cfg(not(any(test, feature = "check")))]
impl<K> ClaimLedger<K> {
    /// No-op without `check`.
    #[inline(always)]
    pub fn on_claimed(&self, _key: &K) {}
    /// No-op without `check`.
    #[inline(always)]
    pub fn on_simulated(&self, _key: &K) {}
    /// No-op without `check`.
    #[inline(always)]
    pub fn on_published(&self, _key: &K) {}
    /// No-op without `check`.
    #[inline(always)]
    pub fn on_released(&self, _key: &K) {}
}

impl<K> fmt::Debug for ClaimLedger<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ClaimLedger")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    const LOW: LockRank = LockRank::new(10, "test low");
    const MID: LockRank = LockRank::new(20, "test mid");
    const HIGH: LockRank = LockRank::new(90, "test high");

    fn panic_message(result: std::thread::Result<()>) -> String {
        let payload = result.expect_err("expected a checker panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn ascending_acquisition_is_allowed() {
        let low = OrderedMutex::new(LOW, 1);
        let mid = OrderedMutex::new(MID, 2);
        let high = OrderedRwLock::new(HIGH, 3);
        let a = low.lock();
        let b = mid.lock();
        let c = high.read();
        assert_eq!(*a + *b + *c, 6);
    }

    /// The checker is untrusted until it catches a seeded bug: acquiring
    /// against rank order must panic with both lock names.
    #[test]
    fn rank_inversion_panics_with_both_names() {
        let low = OrderedMutex::new(LOW, ());
        let high = OrderedMutex::new(HIGH, ());
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _h = high.lock();
            let _l = low.lock(); // inversion: 10 after 90
        })));
        assert!(msg.contains("lock-order violation"), "got: {msg}");
        assert!(
            msg.contains("test low") && msg.contains("test high"),
            "got: {msg}"
        );
    }

    #[test]
    fn equal_rank_reacquisition_panics() {
        let a = OrderedMutex::new(MID, ());
        let b = OrderedMutex::new(LockRank::new(MID.rank, "test mid twin"), ());
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _a = a.lock();
            let _b = b.lock(); // same rank: not strictly ascending
        })));
        assert!(msg.contains("lock-order violation"), "got: {msg}");
    }

    #[test]
    fn rwlock_write_after_higher_read_panics() {
        let high = OrderedRwLock::new(HIGH, ());
        let low = OrderedRwLock::new(LOW, ());
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _r = high.read();
            let _w = low.write();
        })));
        assert!(msg.contains("lock-order violation"), "got: {msg}");
    }

    /// Dropping guards out of acquisition order must release the right
    /// ranks: after dropping the lower guard first, a fresh mid-rank
    /// acquisition is still judged against the remaining (higher) hold.
    #[test]
    fn out_of_order_guard_drops_release_correct_ranks() {
        let low = OrderedMutex::new(LOW, ());
        let high = OrderedMutex::new(HIGH, ());
        let mid = OrderedMutex::new(MID, ());
        let l = low.lock();
        let h = high.lock();
        drop(l); // out of order: low released while high still held
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _m = mid.lock(); // still a violation: high (90) is held
        })));
        assert!(msg.contains("test high"), "got: {msg}");
        drop(h);
        let _m = mid.lock(); // now fine
    }

    /// A condvar wait releases the lock — and must release its rank, so
    /// the notifying thread's interplay stays deadlock-diagnosable and
    /// the woken thread re-records the rank on re-acquisition.
    #[test]
    fn condvar_wait_releases_and_reacquires_rank() {
        let pair = Arc::new((OrderedMutex::new(MID, false), OrderedCondvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut guard = lock.lock();
                while !*guard {
                    guard = cv.wait(guard);
                }
                // Rank was re-recorded on wake: a lower acquisition still
                // trips the checker.
                let low = OrderedMutex::new(LOW, ());
                let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
                    let _l = low.lock();
                })));
                assert!(msg.contains("lock-order violation"), "got: {msg}");
            })
        };
        {
            let (lock, cv) = &*pair;
            let mut guard = lock.lock();
            *guard = true;
            drop(guard);
            cv.notify_all();
        }
        waiter.join().expect("waiter thread");
    }

    #[test]
    fn poisoned_lock_names_itself() {
        let lock = Arc::new(OrderedMutex::new(LockRank::new(70, "poison probe"), ()));
        let poisoner = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _g = poisoner.lock();
            panic!("poison the lock");
        })
        .join();
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _g = lock.lock();
        })));
        assert!(
            msg.contains("poison probe") && msg.contains("rank 70"),
            "poison panic must name the lock: {msg}"
        );
    }

    #[test]
    fn claim_ledger_accepts_the_legal_walks() {
        let ledger: ClaimLedger<u32> = ClaimLedger::new();
        // Full walk.
        ledger.on_claimed(&1);
        ledger.on_simulated(&1);
        ledger.on_published(&1);
        ledger.on_released(&1);
        // Cancellation: claimed → released.
        ledger.on_claimed(&1);
        ledger.on_released(&1);
        // Re-claim after release is a fresh claim.
        ledger.on_claimed(&1);
        ledger.on_simulated(&1);
        ledger.on_published(&1);
        ledger.on_released(&1);
    }

    /// The seeded double-publish: the second publish finds `Published`,
    /// not `Simulated`, and the ledger panics naming the point.
    #[test]
    fn double_publish_trips_the_ledger() {
        let ledger: ClaimLedger<u32> = ClaimLedger::new();
        ledger.on_claimed(&7);
        ledger.on_simulated(&7);
        ledger.on_published(&7);
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            ledger.on_published(&7);
        })));
        assert!(msg.contains("claim-protocol violation"), "got: {msg}");
        assert!(msg.contains('7'), "got: {msg}");
    }

    #[test]
    fn publish_without_claim_trips_the_ledger() {
        let ledger: ClaimLedger<u32> = ClaimLedger::new();
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            ledger.on_published(&3);
        })));
        assert!(msg.contains("claim-protocol violation"), "got: {msg}");
    }

    #[test]
    fn double_claim_trips_the_ledger() {
        let ledger: ClaimLedger<u32> = ClaimLedger::new();
        ledger.on_claimed(&9);
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            ledger.on_claimed(&9);
        })));
        assert!(msg.contains("at most one live claim"), "got: {msg}");
    }

    #[test]
    fn release_between_simulate_and_publish_trips_the_ledger() {
        let ledger: ClaimLedger<u32> = ClaimLedger::new();
        ledger.on_claimed(&4);
        ledger.on_simulated(&4);
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            ledger.on_released(&4);
        })));
        assert!(msg.contains("must publish before release"), "got: {msg}");
    }
}
