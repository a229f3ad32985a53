//! The VG-Function framework.
//!
//! MCDB and PIP — and Fuzzy Prophet after them — let analysts plug arbitrary
//! *variable-generation functions* into queries: black-box stochastic
//! procedures that take parameters and a PRNG and return a sample. MCDB's
//! functions generate relations; the paper's scenarios use every one in
//! scalar position (`DemandModel(@week, @feature) AS demand`) and the
//! scenario dialect has no other, so here a sample is one `f64`. The engine
//! never looks inside a VG-Function; everything it learns about one comes
//! from invoking it (this opacity is exactly why fingerprinting, rather than
//! static analysis, is the paper's route to detecting correlation).
//!
//! The paper stores these functions *in the database*:
//!
//! > "If an analyst develops a better model, she can update all Fuzzy Prophet
//! > instances using the model by simply modifying the function definitions."
//!
//! [`VgRegistry`] is that catalog: names → implementations, hot-swappable,
//! with per-function invocation counters that the differential suites use
//! to show both execution tiers make the same logical calls.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prophet_data::{DataError, DataResult, Value};

use crate::hash::FastBuild;
use crate::rng::Xoshiro256StarStar;
use crate::seeded::SeedManager;
use crate::short_list::ShortList;

/// One logical per-world invocation inside a batched VG call
/// ([`VgRegistry::invoke_batch_columnar`]): the concrete argument values
/// for that world plus the world's derived substream. The columnar SQL
/// executor hands a whole block of these to the catalog at once — one
/// physical call per (call site, block) for the accounting — and each
/// world is answered by [`VgFunction::invoke`] on its own generator, so
/// the possible-worlds seed discipline is untouched.
pub struct VgCallF64<'a> {
    /// Argument values for this world.
    pub params: &'a [Value],
    /// The world's derived random stream, concretely typed.
    pub rng: &'a mut Xoshiro256StarStar,
}

/// A black-box stochastic function: parameters and a random stream in, one
/// `f64` sample out.
///
/// Implementations must be **deterministic given `(params, rng stream)`**:
/// two invocations with equal parameters and identically seeded generators
/// must return bit-identical samples. The fingerprint machinery and the whole
/// possible-worlds semantics rest on this contract, and
/// `tests/determinism.rs` enforces it for every bundled model.
pub trait VgFunction: Send + Sync {
    /// Catalog name, as referenced from scenario SQL (e.g. `DemandModel`).
    fn name(&self) -> &str;

    /// Number of parameters the function expects.
    fn arity(&self) -> usize;

    /// The version of this model's draws: a model bumps it whenever a
    /// change re-pins what it returns for some `(params, rng)`. A basis
    /// snapshot records every registered model's tag and does not load
    /// under a registry whose tags differ, so samples drawn by an old
    /// model are never served as a new one's.
    fn model_tag(&self) -> u32 {
        0
    }

    /// Draw one sample for one possible world, on that call's own stream:
    /// the concrete generator per-call substream derivation produces
    /// ([`SeedManager::rng_for`]) from `(world, function, call index)`.
    /// This is the model's one sampling entry point — the scalar walk
    /// calls it once per call, the columnar walk once per world of a
    /// block — so a model writes its sampling once and it monomorphizes
    /// over `Xoshiro256StarStar` on both tiers. How many draws a call takes
    /// is the model's own business: the stream is used for that one call
    /// and dropped, so nothing downstream observes a generator's final
    /// state. `NaN` is the one "no value" a model can return; it travels
    /// through estimates as a NaN sample, never as a dropped world.
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64>;

    /// The **draw ledger** capability (optional; three methods, all
    /// defaulted to "none"). A model whose random draws do not depend on
    /// its arguments — a Markov chain whose parameters only steer what is
    /// *done* with each period's draw — can split a call in two:
    /// [`VgFunction::draw_ledger`] takes everything the call needs from the
    /// stream, and [`VgFunction::replay`] computes the output from those
    /// cells without drawing. Because a call's stream is a function of
    /// `(world, function, call index)` alone, one ledger then serves every
    /// argument tuple evaluated on that stream, and an engine that keeps
    /// ledgers ([`LedgerStore`]) draws each stream once. The contract:
    ///
    /// * **argument-free** — `draw_ledger` sees no arguments, so equal
    ///   streams give equal ledgers whatever the call's parameters;
    /// * **prefix-stable** — on equally seeded generators,
    ///   `draw_ledger(rng, k)` equals the first `k` cells of
    ///   `draw_ledger(rng, n)` bit for bit, for every `k <= n`;
    /// * **replay is `invoke`** — for any `ledger` at least
    ///   `ledger_len(params)` cells long drawn from the call's stream,
    ///   `replay(params, ledger)` is bit-identical to
    ///   `invoke(params, stream)`, and an argument row `invoke` rejects is
    ///   rejected by `ledger_len` with the same error.
    ///
    /// This method says how many leading cells a call with these arguments
    /// reads; `Ok(None)` means the model keeps no ledger. The methods are
    /// stateless — whoever holds a ledger stores plain cells, never a
    /// generator — and [`VgFunction::invoke`] stays the draw-by-draw
    /// reference the pair is tested against.
    fn ledger_len(&self, params: &[Value]) -> DataResult<Option<usize>> {
        let _ = params;
        Ok(None)
    }

    /// Everything the model takes from `rng` for the first `len` ledger
    /// cells, in cell order (see [`VgFunction::ledger_len`]). Must return
    /// exactly `len` cells.
    fn draw_ledger(&self, rng: &mut Xoshiro256StarStar, len: usize) -> Vec<f64> {
        let _ = (rng, len);
        Vec::new()
    }

    /// The call's output from an already drawn ledger, without drawing
    /// (see [`VgFunction::ledger_len`]).
    fn replay(&self, params: &[Value], ledger: &[f64]) -> DataResult<f64> {
        let _ = (params, ledger);
        Err(DataError::InvalidOperation(format!(
            "VG function `{}` keeps no draw ledger",
            self.name()
        )))
    }
}

/// One per-world invocation of a ledger-served batch
/// ([`VgRegistry::invoke_batch_ledgered`]): the argument row plus the two
/// coordinates that, with the function name, derive the call's stream.
#[derive(Debug, Clone, Copy)]
pub struct LedgerCall<'a> {
    /// Argument values for this world.
    pub params: &'a [Value],
    /// The world id the call's substream derives from.
    pub world: u64,
    /// The world's VG call counter at this call site.
    pub call_index: u64,
}

impl LedgerCall<'_> {
    /// A call of no arguments in world 0: the filler of an unused slot.
    pub const NONE: LedgerCall<'static> = LedgerCall {
        params: &[],
        world: 0,
        call_index: 0,
    };

    /// The call's `(call index, world)`: its stream's key in a
    /// [`LedgerStore`], with the function name.
    pub fn key(&self) -> (u64, u64) {
        (self.call_index, self.world)
    }
}

/// Where an engine keeps drawn ledgers, keyed `(function, call index,
/// world)` — exactly the substream derivation's key, so one store is valid
/// for every world block and every argument tuple under **one**
/// [`SeedManager`] (the key does not name it; the owner must never share a
/// store between two).
///
/// Implementations may drop entries at will — a lost ledger is only a
/// redraw of the same cells — and must hand back cells exactly as
/// inserted. Each method is one lock acquisition however many worlds the
/// call site covers.
pub trait LedgerStore: Sync {
    /// The longest ledger this store keeps; calls needing more cells are
    /// drawn as if there were no store.
    fn max_len(&self) -> usize;

    /// Look up `function`'s ledgers for `calls` (each keyed by
    /// [`LedgerCall::key`]), calling `visit(i, ledger)` for every `i` in
    /// order with the stored cells of `calls[i]`'s stream, if any.
    fn read(
        &self,
        function: &str,
        calls: &[LedgerCall<'_>],
        visit: &mut dyn FnMut(usize, Option<&[f64]>),
    );

    /// Keep freshly drawn ledgers, each replacing a shorter one under the
    /// same key (never a longer one).
    fn insert(&self, function: &str, drawn: Vec<((u64, u64), Vec<f64>)>);
}

/// Snapshot of invocation accounting for one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvocationStats {
    /// Total number of logical per-world invocations (a batched call of
    /// `n` worlds counts `n`, so this number is comparable across the
    /// scalar and columnar execution tiers).
    pub invocations: u64,
    /// Number of physical [`VgRegistry::invoke_batch_columnar`] calls that
    /// produced those logical invocations (0 when every call went through
    /// [`VgRegistry::invoke`], as on the scalar tier).
    pub batched_calls: u64,
}

struct Entry {
    function: Arc<dyn VgFunction>,
    invocations: AtomicU64,
    batched_calls: AtomicU64,
}

impl Entry {
    /// Record one physical batch call of `calls` logical invocations.
    fn count_batch(&self, calls: usize) {
        self.invocations.fetch_add(calls as u64, Ordering::Relaxed);
        self.batched_calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// The function catalog ("stored in the database" in the paper).
///
/// Thread-safe for reads after setup: registration happens during scenario
/// preparation; simulation threads only `invoke`.
#[derive(Default)]
pub struct VgRegistry {
    entries: HashMap<String, Entry, FastBuild>,
}

impl VgRegistry {
    /// Empty catalog.
    pub fn new() -> Self {
        VgRegistry::default()
    }

    /// Register (or hot-swap) a function under its own name.
    pub fn register(&mut self, function: Arc<dyn VgFunction>) {
        self.entries.insert(
            function.name().to_owned(),
            Entry {
                function,
                invocations: AtomicU64::new(0),
                batched_calls: AtomicU64::new(0),
            },
        );
    }

    /// Look up a function by name.
    pub fn get(&self, name: &str) -> DataResult<&Arc<dyn VgFunction>> {
        self.entries
            .get(name)
            .map(|e| &e.function)
            .ok_or_else(|| DataError::UnknownColumn(format!("VG function `{name}`")))
    }

    /// Invoke by name, validating arity and counting the call.
    pub fn invoke(
        &self,
        name: &str,
        params: &[Value],
        rng: &mut Xoshiro256StarStar,
    ) -> DataResult<f64> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| DataError::UnknownColumn(format!("VG function `{name}`")))?;
        if params.len() != entry.function.arity() {
            return Err(DataError::SchemaMismatch(format!(
                "VG function `{name}` expects {} parameters, got {}",
                entry.function.arity(),
                params.len()
            )));
        }
        entry.invocations.fetch_add(1, Ordering::Relaxed);
        entry.function.invoke(params, rng)
    }

    /// Resolve the entry for a batched call, validating arity per call.
    fn batch_entry(
        &self,
        name: &str,
        param_lens: impl Iterator<Item = usize>,
    ) -> DataResult<&Entry> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| DataError::UnknownColumn(format!("VG function `{name}`")))?;
        for len in param_lens {
            if len != entry.function.arity() {
                return Err(DataError::SchemaMismatch(format!(
                    "VG function `{name}` expects {} parameters, got {len}",
                    entry.function.arity(),
                )));
            }
        }
        Ok(entry)
    }

    /// Invoke by name over a whole world-block, validating arity per call
    /// and counting every *logical* per-world invocation — a batch of `n`
    /// calls bumps the counter by `n`, so invocation accounting stays
    /// comparable whether the executor walked worlds one at a time or as a
    /// block. `batched_calls` additionally counts the physical batch calls,
    /// making the amortization itself observable.
    ///
    /// A model with a draw ledger ([`VgFunction::ledger_len`]) answers on
    /// it — `draw_ledger` then `replay`, world by world. Every other model
    /// answers with one [`VgFunction::invoke`] per call on its own stream.
    pub fn invoke_batch_columnar(
        &self,
        name: &str,
        calls: &mut [VgCallF64<'_>],
    ) -> DataResult<Vec<f64>> {
        let entry = self.batch_entry(name, calls.iter().map(|c| c.params.len()))?;
        entry.count_batch(calls.len());
        let function = &entry.function;
        if let Some(lens) = ledger_lens(function.as_ref(), calls.iter().map(|c| c.params))? {
            return calls
                .iter_mut()
                .zip(lens.iter().copied())
                .map(|(call, len)| {
                    let ledger = draw_ledger(name, function.as_ref(), call.rng, len)?;
                    function.replay(call.params, &ledger)
                })
                .collect();
        }
        calls
            .iter_mut()
            .map(|call| function.invoke(call.params, call.rng))
            .collect()
    }

    /// [`VgRegistry::invoke_batch_columnar`] for a model with a draw
    /// ledger, served from `store`: each call replays the stored ledger of
    /// its `(function, call index, world)` stream, and a stream whose
    /// ledger is missing or too short is redrawn from a fresh
    /// `seeds.rng_for(world, name, call_index)` — at the next power of two
    /// cells, so a horizon that creeps upward redraws a stream a
    /// logarithmic number of times — and replaces the stored one. No
    /// generator state is ever kept.
    ///
    /// `Ok(None)` — before anything is counted or drawn — when the model
    /// keeps no ledger for some call's arguments or a call needs more
    /// cells than the store holds; the caller then draws the batch as
    /// usual. Otherwise the lane is bit-identical to the drawn one, and
    /// the catalog counts the batch exactly as if it had been drawn.
    pub fn invoke_batch_ledgered(
        &self,
        name: &str,
        calls: &[LedgerCall<'_>],
        seeds: &SeedManager,
        store: &dyn LedgerStore,
    ) -> DataResult<Option<Vec<f64>>> {
        let entry = self.batch_entry(name, calls.iter().map(|c| c.params.len()))?;
        let function = entry.function.as_ref();
        let max_len = store.max_len();
        let Some(lens) = ledger_lens(function, calls.iter().map(|c| c.params))?
            .filter(|lens| lens.iter().all(|&len| len <= max_len))
        else {
            return Ok(None);
        };
        entry.count_batch(calls.len());

        let mut lane = vec![0.0; calls.len()];
        let mut missing: Vec<usize> = Vec::new();
        let mut failed = None;
        store.read(name, calls, &mut |i, ledger| match ledger {
            Some(cells) if cells.len() >= lens[i] => {
                match function.replay(calls[i].params, cells) {
                    Ok(x) => lane[i] = x,
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            _ => missing.push(i),
        });
        if let Some(e) = failed {
            return Err(e);
        }
        let mut drawn = Vec::with_capacity(missing.len());
        for i in missing {
            let call = &calls[i];
            let mut rng = seeds.rng_for(call.world, name, call.call_index);
            let len = lens[i].next_power_of_two().min(max_len);
            let ledger = draw_ledger(name, function, &mut rng, len)?;
            lane[i] = function.replay(call.params, &ledger)?;
            drawn.push((call.key(), ledger));
        }
        if !drawn.is_empty() {
            store.insert(name, drawn);
        }
        Ok(Some(lane))
    }

    /// Invocation statistics for one function.
    pub fn stats(&self, name: &str) -> Option<InvocationStats> {
        self.entries.get(name).map(|e| InvocationStats {
            invocations: e.invocations.load(Ordering::Relaxed),
            batched_calls: e.batched_calls.load(Ordering::Relaxed),
        })
    }

    /// Names of all registered functions, sorted (deterministic listings).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The ledger length of every call of a batch, or `None` — before any
/// stream is touched — unless the model keeps a ledger for all of them.
/// Inline for a probe's block of 32 calls; one allocation for a longer
/// batch.
fn ledger_lens<'a>(
    function: &dyn VgFunction,
    rows: impl ExactSizeIterator<Item = &'a [Value]>,
) -> DataResult<Option<ShortList<usize, 32>>> {
    let mut lens = ShortList::with_capacity(0, rows.len());
    for params in rows {
        match function.ledger_len(params)? {
            Some(len) => lens.push(len),
            None => return Ok(None),
        }
    }
    Ok(Some(lens))
}

/// [`VgFunction::draw_ledger`], held to its length promise: `replay`
/// indexes the cells it was told exist.
fn draw_ledger(
    name: &str,
    function: &dyn VgFunction,
    rng: &mut Xoshiro256StarStar,
    len: usize,
) -> DataResult<Vec<f64>> {
    let ledger = function.draw_ledger(rng, len);
    if ledger.len() != len {
        return Err(DataError::SchemaMismatch(format!(
            "VG function `{name}` drew a ledger of {} cells when asked for {len}",
            ledger.len()
        )));
    }
    Ok(ledger)
}

impl fmt::Debug for VgRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VgRegistry")
            .field("functions", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Minimal test function, `invoke` only: the sum of `n` draws of
    /// `U[0,1)`.
    #[derive(Debug)]
    struct UniformSum;

    impl VgFunction for UniformSum {
        fn name(&self) -> &str {
            "UniformSum"
        }

        fn arity(&self) -> usize {
            1
        }

        fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
            let n = params[0].as_i64()? as usize;
            Ok((0..n).fold(0.0, |sum, _| sum + rng.next_f64()))
        }
    }

    fn registry() -> VgRegistry {
        let mut r = VgRegistry::new();
        r.register(Arc::new(UniformSum));
        r
    }

    #[test]
    fn register_lookup_invoke() {
        let r = registry();
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert!(r.get("UniformSum").is_ok());
        assert!(r.get("Missing").is_err());

        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(1);
        let x = r.invoke("UniformSum", &[Value::Int(5)], &mut rng).unwrap();
        assert!((0.0..5.0).contains(&x));
    }

    #[test]
    fn arity_is_validated() {
        let r = registry();
        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(1);
        let err = r.invoke("UniformSum", &[], &mut rng).unwrap_err();
        assert!(err.to_string().contains("expects 1 parameters"));
    }

    #[test]
    fn invocations_are_counted() {
        let r = registry();
        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..3 {
            r.invoke("UniformSum", &[Value::Int(1)], &mut rng).unwrap();
        }
        assert_eq!(r.stats("UniformSum").unwrap().invocations, 3);
        assert!(r.stats("Missing").is_none());
    }

    #[test]
    fn hot_swap_replaces_implementation() {
        #[derive(Debug)]
        struct Empty;
        impl VgFunction for Empty {
            fn name(&self) -> &str {
                "UniformSum"
            }
            fn arity(&self) -> usize {
                0
            }
            fn invoke(&self, _: &[Value], _: &mut Xoshiro256StarStar) -> DataResult<f64> {
                Ok(0.0)
            }
        }

        let mut r = registry();
        r.register(Arc::new(Empty));
        assert_eq!(r.len(), 1, "same name replaces, not duplicates");
        assert_eq!(r.get("UniformSum").unwrap().arity(), 0);
    }

    /// One generator per world of a test batch, seeded `0..n`.
    fn world_rngs(n: u64) -> Vec<Xoshiro256StarStar> {
        (0..n).map(Xoshiro256StarStar::seed_from_u64).collect()
    }

    /// One batched call per generator, all with the same argument row.
    fn batch<'a>(params: &'a [Value], rngs: &'a mut [Xoshiro256StarStar]) -> Vec<VgCallF64<'a>> {
        rngs.iter_mut()
            .map(|rng| VgCallF64 { params, rng })
            .collect()
    }

    #[test]
    fn batch_invoke_validates_arity_per_call() {
        let r = registry();
        let good = [Value::Int(1)];
        assert!(r
            .invoke_batch_columnar("UniformSum", &mut batch(&good, &mut world_rngs(1)))
            .is_ok());
        // One bad call anywhere in the batch rejects it whole.
        let mut rngs = world_rngs(2);
        let mut calls = batch(&good, &mut rngs);
        calls[1].params = &[];
        let err = r
            .invoke_batch_columnar("UniformSum", &mut calls)
            .unwrap_err();
        assert!(err.to_string().contains("expects 1 parameters, got 0"));
        assert_eq!(
            r.stats("UniformSum").unwrap().invocations,
            1,
            "a rejected batch counts nothing"
        );
        assert!(r.invoke_batch_columnar("Missing", &mut []).is_err());
    }

    /// Single-cell uniform draw, with no draw ledger.
    #[derive(Debug)]
    struct UniformCell;

    impl VgFunction for UniformCell {
        fn name(&self) -> &str {
            "UniformCell"
        }

        fn arity(&self) -> usize {
            0
        }

        fn invoke(&self, _: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
            Ok(rng.next_f64())
        }
    }

    #[test]
    fn the_default_lane_is_one_invoke_per_world_on_its_own_stream() {
        // UniformSum keeps no ledger: the columnar entry point answers
        // with one `invoke` per world — one physical call, one logical
        // invocation per world, each world's sample bit-identical to what
        // `invoke` returns on the same stream.
        let r = registry();
        let params = [Value::Int(3)];
        let samples = r
            .invoke_batch_columnar("UniformSum", &mut batch(&params, &mut world_rngs(3)))
            .unwrap();
        let stats = r.stats("UniformSum").unwrap();
        assert_eq!(stats.invocations, 3, "one logical invocation per world");
        assert_eq!(stats.batched_calls, 1, "one physical batch call");
        for (sample, rng) in samples.iter().zip(&mut world_rngs(3)) {
            let scalar = r.invoke("UniformSum", &params, rng).unwrap();
            assert_eq!(sample.to_bits(), scalar.to_bits());
        }
    }

    /// `Steps(n)`: the sum of the stream's first `n` uniforms, with a draw
    /// ledger (the uniforms); draws `self.0`
    /// cells more (or fewer) than asked.
    #[derive(Debug)]
    struct Steps(isize);

    impl VgFunction for Steps {
        fn name(&self) -> &str {
            "Steps"
        }
        fn arity(&self) -> usize {
            1
        }
        fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
            let n = params[0].as_i64()? as usize;
            Ok((0..n).fold(0.0, |sum, _| sum + rng.next_f64()))
        }
        fn ledger_len(&self, params: &[Value]) -> DataResult<Option<usize>> {
            Ok(Some(params[0].as_i64()? as usize))
        }
        fn draw_ledger(&self, rng: &mut Xoshiro256StarStar, len: usize) -> Vec<f64> {
            (0..len.saturating_add_signed(self.0))
                .map(|_| rng.next_f64())
                .collect()
        }
        fn replay(&self, params: &[Value], ledger: &[f64]) -> DataResult<f64> {
            let n = params[0].as_i64()? as usize;
            Ok(ledger[..n].iter().fold(0.0, |sum, u| sum + u))
        }
    }

    /// A ledger store with fixed contents (no lock: it keeps nothing it is
    /// handed, which a store may do), counting the ledgers it was offered.
    struct FixedLedgers {
        table: HashMap<(u64, u64), Vec<f64>>,
        max_len: usize,
        offered: AtomicU64,
    }

    impl FixedLedgers {
        fn new(table: HashMap<(u64, u64), Vec<f64>>, max_len: usize) -> Self {
            FixedLedgers {
                table,
                max_len,
                offered: AtomicU64::new(0),
            }
        }
    }

    impl LedgerStore for FixedLedgers {
        fn max_len(&self) -> usize {
            self.max_len
        }
        fn read(
            &self,
            _: &str,
            calls: &[LedgerCall<'_>],
            visit: &mut dyn FnMut(usize, Option<&[f64]>),
        ) {
            for (i, call) in calls.iter().enumerate() {
                visit(i, self.table.get(&call.key()).map(Vec::as_slice));
            }
        }
        fn insert(&self, _: &str, drawn: Vec<((u64, u64), Vec<f64>)>) {
            self.offered.fetch_add(drawn.len() as u64, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_ledgered_model_needs_no_f64_lane_of_its_own() {
        let mut r = VgRegistry::new();
        r.register(Arc::new(Steps(0)));
        let params = [Value::Int(5)];
        let samples = r
            .invoke_batch_columnar("Steps", &mut batch(&params, &mut world_rngs(4)))
            .unwrap();
        for (world, sample) in samples.iter().enumerate() {
            let scalar = r
                .invoke("Steps", &params, &mut world_rngs(4)[world])
                .unwrap();
            assert_eq!(sample.to_bits(), scalar.to_bits());
        }
        assert_eq!(r.stats("Steps").unwrap().batched_calls, 1);
    }

    #[test]
    fn ledgered_batches_replay_redraw_and_count_like_drawn_ones() {
        let mut r = VgRegistry::new();
        r.register(Arc::new(Steps(0)));
        r.register(Arc::new(UniformCell));
        let seeds = SeedManager::new(3);
        let (short, long) = ([Value::Int(5)], [Value::Int(9)]);
        // Worlds 0..4 at call index 2, all with `params`.
        fn calls(params: &[Value]) -> Vec<LedgerCall<'_>> {
            let call = |world| LedgerCall {
                params,
                world,
                call_index: 2,
            };
            (0..4).map(call).collect()
        }
        // An empty store, then one holding each stream's first 8 cells.
        let kept = (0..4).map(|world| {
            let mut rng = seeds.rng_for(world, "Steps", 2);
            ((2, world), Steps(0).draw_ledger(&mut rng, 8))
        });
        let (empty, warm) = (
            FixedLedgers::new(HashMap::new(), 64),
            FixedLedgers::new(kept.collect(), 64),
        );
        // (store, arguments, streams redrawn): a miss, a hit, a hit on a
        // longer prefix, and a horizon past the kept cells.
        let eight = [Value::Int(8)];
        let table = [
            (&empty, &short, 4),
            (&warm, &short, 0),
            (&warm, &eight, 0),
            (&warm, &long, 4),
        ];
        for (store, params, redrawn) in table {
            let before = store.offered.load(Ordering::SeqCst);
            let lane = r
                .invoke_batch_ledgered("Steps", &calls(params), &seeds, store)
                .unwrap()
                .expect("Steps keeps a ledger");
            for (world, sample) in lane.iter().enumerate() {
                let mut rng = seeds.rng_for(world as u64, "Steps", 2);
                let scalar = r.invoke("Steps", params, &mut rng).unwrap();
                assert_eq!(sample.to_bits(), scalar.to_bits());
            }
            assert_eq!(store.offered.load(Ordering::SeqCst) - before, redrawn);
        }
        let stats = r.stats("Steps").unwrap();
        // Four batches of four, plus the four reference invocations each.
        assert_eq!((stats.invocations, stats.batched_calls), (32, 4));

        // Declined before anything is counted: a model without a ledger,
        // and a call needing more cells than the store keeps.
        let unit = LedgerCall {
            params: &[],
            world: 0,
            call_index: 0,
        };
        let none = r.invoke_batch_ledgered("UniformCell", &[unit], &seeds, &empty);
        assert_eq!(none.unwrap(), None);
        assert_eq!(r.stats("UniformCell").unwrap().invocations, 0);
        let tiny = FixedLedgers::new(HashMap::new(), 4);
        let none = r.invoke_batch_ledgered("Steps", &calls(&short), &seeds, &tiny);
        assert_eq!(none.unwrap(), None);
        assert_eq!(r.stats("Steps").unwrap().batched_calls, 4);
    }

    #[test]
    fn a_ledger_of_the_wrong_length_is_rejected() {
        for delta in [-1, 1] {
            let mut r = VgRegistry::new();
            r.register(Arc::new(Steps(delta)));
            let params = [Value::Int(4)];
            let drawn = r
                .invoke_batch_columnar("Steps", &mut batch(&params, &mut world_rngs(2)))
                .unwrap_err();
            let call = LedgerCall {
                params: &params,
                world: 0,
                call_index: 0,
            };
            let (seeds, store) = (SeedManager::new(3), FixedLedgers::new(HashMap::new(), 64));
            let ledgered = r
                .invoke_batch_ledgered("Steps", &[call], &seeds, &store)
                .unwrap_err();
            let cells = 4 + delta;
            for err in [drawn, ledgered] {
                assert!(
                    err.to_string()
                        .contains(&format!("drew a ledger of {cells} cells when asked for 4")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_output() {
        let r = registry();
        let mut a = crate::rng::Xoshiro256StarStar::seed_from_u64(9);
        let mut b = crate::rng::Xoshiro256StarStar::seed_from_u64(9);
        let ta = r.invoke("UniformSum", &[Value::Int(16)], &mut a).unwrap();
        let tb = r.invoke("UniformSum", &[Value::Int(16)], &mut b).unwrap();
        assert_eq!(ta.to_bits(), tb.to_bits());
    }
}
