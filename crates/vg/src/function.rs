//! The VG-Function framework.
//!
//! MCDB and PIP — and Fuzzy Prophet after them — let analysts plug arbitrary
//! *variable-generation functions* into queries: black-box stochastic
//! procedures that take parameters and a PRNG and return a relation. The
//! engine never looks inside a VG-Function; everything it learns about one
//! comes from invoking it (this opacity is exactly why fingerprinting, rather
//! than static analysis, is the paper's route to detecting correlation).
//!
//! The paper stores table-generating functions *in the database*:
//!
//! > "If an analyst develops a better model, she can update all Fuzzy Prophet
//! > instances using the model by simply modifying the function definitions."
//!
//! [`VgRegistry`] is that catalog: names → implementations, hot-swappable,
//! with per-function invocation counters that the experiments use to measure
//! how much work fingerprinting avoids.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prophet_data::{DataError, DataResult, Schema, Table, Value};

use crate::rng::{Rng64, Xoshiro256StarStar};

/// Extract the single cell of a VG function's output relation when the
/// function was used in *scalar position* (the only position the scenario
/// dialect has). Both execution tiers route their misuse diagnostics
/// through here, so a malformed model reports the identical error class
/// and message whether worlds were walked one at a time or as a block.
pub fn extract_scalar_cell(name: &str, table: &Table) -> DataResult<Value> {
    if table.num_rows() != 1 || table.schema().len() != 1 {
        return Err(DataError::SchemaMismatch(format!(
            "VG function `{name}` used as a scalar must return exactly one cell, got {}x{}",
            table.num_rows(),
            table.schema().len()
        )));
    }
    let column = &table.schema().fields()[0].name;
    table.cell(0, column)
}

/// One logical per-world invocation inside a batched VG call
/// ([`VgRegistry::invoke_batch_columnar`]): the concrete argument values
/// for that world plus the world's derived substream. The columnar SQL
/// executor hands a whole block of these to the catalog at once, so a
/// model sees every world of a block and can amortize per-call setup,
/// while each world still draws from its own generator (the possible-worlds
/// seed discipline is untouched).
///
/// The stream is the *concrete* generator that per-call substream
/// derivation always produces ([`crate::SeedManager::rng_for`]), not the
/// `dyn Rng64` of [`VgFunction::invoke`]. That is the batch lane's whole
/// point: a model's sampling loop monomorphizes over `Xoshiro256StarStar`,
/// so every draw inlines the generator's state update instead of paying a
/// virtual call — while the draws themselves (and therefore the samples)
/// stay bit-identical to `invoke`, which runs the exact same arithmetic
/// behind a vtable.
pub struct VgCallF64<'a> {
    /// Argument values for this world.
    pub params: &'a [Value],
    /// The world's derived random stream, concretely typed.
    pub rng: &'a mut Xoshiro256StarStar,
}

/// A black-box table-generating stochastic function.
///
/// Implementations must be **deterministic given `(params, rng stream)`**:
/// two invocations with equal parameters and identically seeded generators
/// must return identical tables. The fingerprint machinery and the whole
/// possible-worlds semantics rest on this contract, and
/// `tests/determinism.rs` enforces it for every bundled model.
pub trait VgFunction: Send + Sync {
    /// Catalog name, as referenced from scenario SQL (e.g. `DemandModel`).
    fn name(&self) -> &str;

    /// Number of parameters the function expects.
    fn arity(&self) -> usize;

    /// Schema of the generated relation.
    fn output_schema(&self) -> Schema;

    /// Generate one sample relation for one possible world. This is the
    /// reference entry point: the scalar tier calls nothing else, and a
    /// model that implements only this works on every path.
    fn invoke(&self, params: &[Value], rng: &mut dyn Rng64) -> DataResult<Table>;

    /// Batched invocation in scalar position straight into an `f64` lane:
    /// one raw sample per world of a block, no `Value` boxing, no `dyn`
    /// rng. Scenario SELECTs use VG functions as scalars — each world's
    /// invocation yields a 1×1 relation whose single cell is the world's
    /// sample — and this is the production entry point for exactly that.
    ///
    /// The default returns `Ok(None)`, meaning "no f64 lane — call
    /// [`VgFunction::invoke`] once per world"; models whose scalar output
    /// is always `Value::Float` override it to write draws directly (and,
    /// because [`VgCallF64`] carries the concrete generator, their sampling
    /// loops monomorphize — see the distributions' `sample_with`). An
    /// override returning `Some(samples)` must return exactly
    /// `calls.len()` samples and promises, per world, that `samples[i]` is
    /// bit-identical to the float inside the single `Value::Float` cell
    /// `invoke` would have produced for the same `(params, rng)` —
    /// including consuming the *same number of draws* from each world's
    /// stream, since the `(world, function, call index)` seed derivation
    /// must be preserved exactly.
    fn invoke_batch_f64(&self, calls: &mut [VgCallF64<'_>]) -> DataResult<Option<Vec<f64>>> {
        let _ = calls;
        Ok(None)
    }
}

/// Output of [`VgRegistry::invoke_batch_columnar`]: the raw `f64` lane when
/// the model provides one, the boxed scalar column otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchSamples {
    /// One raw `f64` sample per world (the model's scalar output is always
    /// `Value::Float`; no per-world boxing happened).
    F64(Vec<f64>),
    /// One boxed scalar per world: the single cell of each world's
    /// [`VgFunction::invoke`] relation, for models without an `f64` lane.
    Values(Vec<Value>),
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

/// The function catalog ("stored in the database" in the paper).
///
/// Thread-safe for reads after setup: registration happens during scenario
/// preparation; simulation threads only `invoke`.
#[derive(Default)]
pub struct VgRegistry {
    entries: HashMap<String, Entry>,
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
    pub fn invoke(&self, name: &str, params: &[Value], rng: &mut dyn Rng64) -> DataResult<Table> {
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

    /// Resolve the entry for a batched call: validates arity per call and
    /// records `calls.len()` logical invocations plus one physical batch
    /// call.
    fn claim_batch(
        &self,
        name: &str,
        param_lens: impl ExactSizeIterator<Item = usize>,
    ) -> DataResult<&Entry> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| DataError::UnknownColumn(format!("VG function `{name}`")))?;
        let calls = param_lens.len() as u64;
        for len in param_lens {
            if len != entry.function.arity() {
                return Err(DataError::SchemaMismatch(format!(
                    "VG function `{name}` expects {} parameters, got {len}",
                    entry.function.arity(),
                )));
            }
        }
        entry.invocations.fetch_add(calls, Ordering::Relaxed);
        entry.batched_calls.fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    /// A batched implementation must hand back one output per world.
    fn expect_batch_len<T>(name: &str, outputs: Vec<T>, calls: usize) -> DataResult<Vec<T>> {
        if outputs.len() != calls {
            return Err(DataError::SchemaMismatch(format!(
                "VG function `{name}` returned {} outputs for a batch of {calls}",
                outputs.len()
            )));
        }
        Ok(outputs)
    }

    /// Invoke by name over a whole world-block in scalar position,
    /// validating arity per call and counting every *logical* per-world
    /// invocation — a batch of `n` calls bumps the counter by `n`, so
    /// invocation accounting stays comparable whether the executor walked
    /// worlds one at a time or as a block. `batched_calls` additionally
    /// counts the physical batch calls, making the amortization itself
    /// observable.
    ///
    /// The model is asked for its raw `f64` lane first; when it declines,
    /// each world goes through [`VgFunction::invoke`] on its own stream
    /// (reborrowed as `dyn`, so it consumes exactly the draws a scalar walk
    /// would) and [`extract_scalar_cell`] — the scalar tier's path, value
    /// for value and error for error. The columnar executor keys its
    /// `column_fallbacks` accounting off which variant comes back.
    pub fn invoke_batch_columnar(
        &self,
        name: &str,
        calls: &mut [VgCallF64<'_>],
    ) -> DataResult<BatchSamples> {
        let entry = self.claim_batch(name, calls.iter().map(|c| c.params.len()))?;
        if let Some(samples) = entry.function.invoke_batch_f64(calls)? {
            let samples = Self::expect_batch_len(name, samples, calls.len())?;
            return Ok(BatchSamples::F64(samples));
        }
        calls
            .iter_mut()
            .map(|call| {
                let table = entry.function.invoke(call.params, call.rng)?;
                extract_scalar_cell(name, &table)
            })
            .collect::<DataResult<Vec<Value>>>()
            .map(BatchSamples::Values)
    }

    /// Invocation statistics for one function.
    pub fn stats(&self, name: &str) -> Option<InvocationStats> {
        self.entries.get(name).map(|e| InvocationStats {
            invocations: e.invocations.load(Ordering::Relaxed),
            batched_calls: e.batched_calls.load(Ordering::Relaxed),
        })
    }

    /// Total invocations across the whole catalog.
    pub fn total_invocations(&self) -> u64 {
        self.entries
            // analysis:allow(map-iter): integer sum — associative and commutative, order cannot reach the result
            .values()
            .map(|e| e.invocations.load(Ordering::Relaxed))
            .sum()
    }

    /// Reset all counters (benchmarks call this between configurations).
    pub fn reset_stats(&self) {
        // analysis:allow(map-iter): every entry is zeroed identically — visit order is unobservable
        for e in self.entries.values() {
            e.invocations.store(0, Ordering::Relaxed);
            e.batched_calls.store(0, Ordering::Relaxed);
        }
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
    use prophet_data::{DataType, TableBuilder};

    /// Minimal test function: emits `n` rows of `U[0,1)` draws.
    #[derive(Debug)]
    struct UniformRows;

    impl VgFunction for UniformRows {
        fn name(&self) -> &str {
            "UniformRows"
        }

        fn arity(&self) -> usize {
            1
        }

        fn output_schema(&self) -> Schema {
            Schema::of(&[("u", DataType::Float)])
        }

        fn invoke(&self, params: &[Value], rng: &mut dyn Rng64) -> DataResult<Table> {
            let n = params[0].as_i64()? as usize;
            let mut b = TableBuilder::with_capacity(self.output_schema(), n);
            for _ in 0..n {
                b.push_row(vec![Value::Float(rng.next_f64())])?;
            }
            Ok(b.finish())
        }
    }

    fn registry() -> VgRegistry {
        let mut r = VgRegistry::new();
        r.register(Arc::new(UniformRows));
        r
    }

    #[test]
    fn register_lookup_invoke() {
        let r = registry();
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert!(r.get("UniformRows").is_ok());
        assert!(r.get("Missing").is_err());

        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(1);
        let t = r.invoke("UniformRows", &[Value::Int(5)], &mut rng).unwrap();
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn arity_is_validated() {
        let r = registry();
        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(1);
        let err = r.invoke("UniformRows", &[], &mut rng).unwrap_err();
        assert!(err.to_string().contains("expects 1 parameters"));
    }

    #[test]
    fn invocations_are_counted_and_resettable() {
        let r = registry();
        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..3 {
            r.invoke("UniformRows", &[Value::Int(1)], &mut rng).unwrap();
        }
        assert_eq!(r.stats("UniformRows").unwrap().invocations, 3);
        assert_eq!(r.total_invocations(), 3);
        r.reset_stats();
        assert_eq!(r.total_invocations(), 0);
        assert!(r.stats("Missing").is_none());
    }

    #[test]
    fn hot_swap_replaces_implementation() {
        #[derive(Debug)]
        struct Empty;
        impl VgFunction for Empty {
            fn name(&self) -> &str {
                "UniformRows"
            }
            fn arity(&self) -> usize {
                0
            }
            fn output_schema(&self) -> Schema {
                Schema::empty()
            }
            fn invoke(&self, _: &[Value], _: &mut dyn Rng64) -> DataResult<Table> {
                Ok(Table::empty(Schema::empty()))
            }
        }

        let mut r = registry();
        r.register(Arc::new(Empty));
        assert_eq!(r.len(), 1, "same name replaces, not duplicates");
        assert_eq!(r.get("UniformRows").unwrap().arity(), 0);
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
    fn batch_scalar_extracts_single_cells_and_rejects_relations() {
        // UniformRows(1) is a 1x1 relation: in scalar position the batch
        // must extract exactly the cell scalar invocation produces.
        let r = registry();
        let params = [Value::Int(1)];
        let cells = r
            .invoke_batch_columnar("UniformRows", &mut batch(&params, &mut world_rngs(1)))
            .unwrap();
        let table = r
            .invoke("UniformRows", &params, &mut world_rngs(1)[0])
            .unwrap();
        assert_eq!(
            cells,
            BatchSamples::Values(vec![table.cell(0, "u").unwrap()])
        );

        // A multi-row result must be rejected with the scalar tier's own
        // scalar-misuse error.
        let params = [Value::Int(2)];
        let err = r
            .invoke_batch_columnar("UniformRows", &mut batch(&params, &mut world_rngs(1)))
            .unwrap_err();
        assert!(err.to_string().contains("exactly one cell"), "{err}");
        let table = r
            .invoke("UniformRows", &params, &mut world_rngs(1)[0])
            .unwrap();
        let scalar = extract_scalar_cell("UniformRows", &table).unwrap_err();
        assert_eq!(err.to_string(), scalar.to_string());
    }

    #[test]
    fn batch_invoke_validates_arity_per_call() {
        let r = registry();
        let good = [Value::Int(1)];
        assert!(r
            .invoke_batch_columnar("UniformRows", &mut batch(&good, &mut world_rngs(1)))
            .is_ok());
        // One bad call anywhere in the batch rejects it whole.
        let mut rngs = world_rngs(2);
        let mut calls = batch(&good, &mut rngs);
        calls[1].params = &[];
        let err = r
            .invoke_batch_columnar("UniformRows", &mut calls)
            .unwrap_err();
        assert!(err.to_string().contains("expects 1 parameters, got 0"));
        assert_eq!(
            r.stats("UniformRows").unwrap().invocations,
            1,
            "a rejected batch counts nothing"
        );
        assert!(r.invoke_batch_columnar("Missing", &mut []).is_err());
    }

    /// Single-cell uniform draw with a raw `f64` batch lane, which comes
    /// back `self.0` samples longer (or shorter) than the batch.
    #[derive(Debug)]
    struct UniformCell(isize);

    impl VgFunction for UniformCell {
        fn name(&self) -> &str {
            "UniformCell"
        }

        fn arity(&self) -> usize {
            0
        }

        fn output_schema(&self) -> Schema {
            Schema::of(&[("u", DataType::Float)])
        }

        fn invoke(&self, _: &[Value], rng: &mut dyn Rng64) -> DataResult<Table> {
            let mut b = TableBuilder::with_capacity(self.output_schema(), 1);
            b.push_row(vec![Value::Float(rng.next_f64())])?;
            Ok(b.finish())
        }

        fn invoke_batch_f64(&self, calls: &mut [VgCallF64<'_>]) -> DataResult<Option<Vec<f64>>> {
            let mut lane: Vec<f64> = calls.iter_mut().map(|c| c.rng.next_f64()).collect();
            lane.resize(lane.len().saturating_add_signed(self.0), 0.0);
            Ok(Some(lane))
        }
    }

    #[test]
    fn columnar_batch_prefers_the_f64_lane_and_matches_invoke() {
        let mut r = VgRegistry::new();
        r.register(Arc::new(UniformCell(0)));
        let BatchSamples::F64(samples) = r
            .invoke_batch_columnar("UniformCell", &mut batch(&[], &mut world_rngs(4)))
            .unwrap()
        else {
            panic!("UniformCell provides an f64 lane");
        };
        assert_eq!(samples.len(), 4);
        let stats = r.stats("UniformCell").unwrap();
        assert_eq!(stats.invocations, 4, "one logical invocation per world");
        assert_eq!(stats.batched_calls, 1, "one physical batch call");

        // The lane must be bit-identical to the scalar invoke's cell.
        let table = r.invoke("UniformCell", &[], &mut world_rngs(3)[2]).unwrap();
        assert_eq!(Value::Float(samples[2]), table.cell(0, "u").unwrap());
    }

    #[test]
    fn a_short_or_long_f64_lane_is_rejected() {
        for (delta, returned) in [(-1, 3), (1, 5)] {
            let mut r = VgRegistry::new();
            r.register(Arc::new(UniformCell(delta)));
            let err = r
                .invoke_batch_columnar("UniformCell", &mut batch(&[], &mut world_rngs(4)))
                .unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("returned {returned} outputs for a batch of 4")),
                "{err}"
            );
        }
    }

    #[test]
    fn columnar_batch_falls_back_to_boxed_scalars() {
        // UniformRows has no f64 lane: the columnar entry point must come
        // back with boxed values — one physical call, one logical
        // invocation per world, each world's value bit-identical to the
        // cell `invoke` produces on the same stream.
        let r = registry();
        let params = [Value::Int(1)];
        let BatchSamples::Values(values) = r
            .invoke_batch_columnar("UniformRows", &mut batch(&params, &mut world_rngs(3)))
            .unwrap()
        else {
            panic!("UniformRows has no f64 lane");
        };
        let stats = r.stats("UniformRows").unwrap();
        assert_eq!(stats.invocations, 3, "one logical invocation per world");
        assert_eq!(stats.batched_calls, 1, "one physical batch call");
        let scalar: Vec<Value> = world_rngs(3)
            .iter_mut()
            .map(|rng| {
                let table = r.invoke("UniformRows", &params, rng).unwrap();
                table.cell(0, "u").unwrap()
            })
            .collect();
        assert_eq!(values, scalar);
    }

    #[test]
    fn same_seed_same_output() {
        let r = registry();
        let mut a = crate::rng::Xoshiro256StarStar::seed_from_u64(9);
        let mut b = crate::rng::Xoshiro256StarStar::seed_from_u64(9);
        let ta = r.invoke("UniformRows", &[Value::Int(16)], &mut a).unwrap();
        let tb = r.invoke("UniformRows", &[Value::Int(16)], &mut b).unwrap();
        assert_eq!(ta, tb);
    }
}
