//! The Query Generator: batching instances through the SQL executor.
//!
//! "The sequence of instances is batched and accepted by a Query Generator,
//! which produces a pure TSQL query" (§2). Our pure-TSQL tier is the
//! `prophet-sql` executor; a batch here is *(parameter point, world list)*
//! and its result is a [`SampleSet`]: per-output-column sample vectors
//! across the batch's worlds.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use prophet_sql::ast::SelectInto;
use prophet_sql::columnar::{evaluate_select_columns_with, to_f64_samples, ColumnarStats};
use prophet_sql::error::SqlResult;
use prophet_sql::executor::{evaluate_select_with, sample_f64, WorldRng};
use prophet_vg::{LedgerStore, SeedManager, VgRegistry};

use crate::aggregate::{self, ColumnMoments, SampleStats};
use crate::instance::ParamPoint;
use crate::store::{ColumnSamples, StoredEntry};

/// Samples of every scenario output column across a set of worlds, for one
/// parameter point.
///
/// The sample vectors and the column list are reference-counted: the
/// engine hands a simulated point's *same* allocation to the basis store
/// and to the caller's reply, and a cached point is served straight out
/// of the store entry, so a sample set travels the pipeline without its
/// ≈ 10 KB of lanes ever being copied. A set is never mutated, so it
/// never writes through to the store's entry.
///
/// A set served from a store entry carries the moments the entry keeps
/// ([`StoredEntry::moments`]), and a recipe record's samples are not
/// rebuilt when it is served. A mapped point's reply is such a set from
/// the start: a fingerprint hit publishes a recipe record and no samples,
/// and its reply is that record, as a later cached read of the point
/// would return it. [`SampleSet::expect`],
/// [`SampleSet::expect_std_dev`] and [`SampleSet::world_count`] read the
/// stored values, which are the bits the samples would give. Only a
/// samples read — [`SampleSet::samples`], [`SampleSet::stats`],
/// [`SampleSet::shared_samples`] — rebuilds them,
/// once, on the reading thread with no store lock held; the result is
/// cached and shared by every clone of the set, and the store counts the
/// rebuild in `rematerializations`. Equality compares the samples.
#[derive(Clone)]
pub struct SampleSet {
    point: ParamPoint,
    columns: Arc<[String]>,
    lanes: Lanes,
    /// Every column's stored `(mean, std_dev)`, when the set came with
    /// them.
    moments: Option<ColumnMoments>,
}

/// A [`SampleSet`]'s samples: held, or a recipe record's, rebuilt on the
/// first samples read.
#[derive(Clone)]
enum Lanes {
    Held(Arc<ColumnSamples>),
    Deferred(Arc<Deferred>),
}

/// A recipe record and, once a reader has asked, its rebuilt samples.
struct Deferred {
    entry: StoredEntry,
    rebuilt: OnceLock<Arc<ColumnSamples>>,
}

impl SampleSet {
    /// The parameter point these samples belong to.
    pub fn point(&self) -> &ParamPoint {
        &self.point
    }

    /// Output column names in SELECT order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of worlds simulated.
    pub fn world_count(&self) -> usize {
        match &self.lanes {
            Lanes::Held(samples) => samples.values().next().map(Vec::len).unwrap_or(0),
            Lanes::Deferred(deferred) => deferred.entry.worlds(),
        }
    }

    /// Samples of one column, world order preserved.
    pub fn samples(&self, column: &str) -> Option<&[f64]> {
        self.lanes().get(column).map(Vec::as_slice)
    }

    /// Summary of one column: the aggregator's fixed-order two-pass
    /// moments plus min/max ([`SampleStats::of`]).
    pub fn stats(&self, column: &str) -> Option<SampleStats> {
        self.samples(column).map(SampleStats::of)
    }

    /// Monte Carlo expectation of one column (`EXPECT col`): the kernel's
    /// first pass only, bit-equal to `stats(col).mean` — read from the
    /// stored moments when the set has them.
    pub fn expect(&self, column: &str) -> Option<f64> {
        match &self.moments {
            Some(moments) => moments.get(column).map(|(mean, _)| mean),
            None => self.samples(column).map(aggregate::mean),
        }
    }

    /// Monte Carlo standard deviation (`EXPECT_STDDEV col`), bit-equal to
    /// `stats(col).std_dev` — read from the stored moments when the set
    /// has them.
    pub fn expect_std_dev(&self, column: &str) -> Option<f64> {
        match &self.moments {
            Some(moments) => moments.get(column).map(|(_, sd)| sd),
            None => self.samples(column).map(|xs| {
                let mean = aggregate::mean(xs);
                aggregate::std_dev(xs, mean)
            }),
        }
    }

    /// Build directly from per-column samples — a simulation's, or a
    /// caller's own.
    pub fn from_samples(
        point: ParamPoint,
        columns: Vec<String>,
        samples: HashMap<String, Vec<f64>>,
    ) -> Self {
        SampleSet::from_shared(point, columns.into(), Arc::new(samples))
    }

    /// Build around already-shared samples — a basis-store entry's, or
    /// ones about to be published to it — without copying them.
    pub fn from_shared(
        point: ParamPoint,
        columns: Arc<[String]>,
        samples: Arc<ColumnSamples>,
    ) -> Self {
        SampleSet {
            point,
            columns,
            lanes: Lanes::Held(samples),
            moments: None,
        }
    }

    /// Build around a store entry read at `point` without rebuilding it:
    /// a samples record's samples are shared, a recipe record's are
    /// rebuilt on the first samples read, and the entry's moments answer
    /// [`SampleSet::expect`] / [`SampleSet::expect_std_dev`].
    pub fn from_stored(point: ParamPoint, columns: Arc<[String]>, entry: StoredEntry) -> Self {
        let moments = entry.moments().cloned();
        let lanes = match entry.resident() {
            Some(samples) => Lanes::Held(Arc::clone(samples)),
            None => Lanes::Deferred(Arc::new(Deferred {
                entry,
                rebuilt: OnceLock::new(),
            })),
        };
        SampleSet {
            point,
            columns,
            lanes,
            moments,
        }
    }

    /// The shared per-column samples (pointer-equal to the basis-store
    /// entry's when this set was served from or published to the store).
    pub fn shared_samples(&self) -> &Arc<ColumnSamples> {
        self.lanes()
    }

    /// The samples, a recipe record's rebuilt on the first call.
    fn lanes(&self) -> &Arc<ColumnSamples> {
        match &self.lanes {
            Lanes::Held(samples) => samples,
            Lanes::Deferred(deferred) => {
                (deferred.rebuilt).get_or_init(|| deferred.entry.materialize(&self.point))
            }
        }
    }
}

impl PartialEq for SampleSet {
    fn eq(&self, other: &Self) -> bool {
        self.point == other.point && self.columns == other.columns && self.lanes() == other.lanes()
    }
}

/// Shows the samples only if they are at hand: formatting a set never
/// rebuilds a recipe record.
impl std::fmt::Debug for SampleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let samples = match &self.lanes {
            Lanes::Held(samples) => Some(samples),
            Lanes::Deferred(deferred) => deferred.rebuilt.get(),
        };
        f.debug_struct("SampleSet")
            .field("point", &self.point)
            .field("columns", &self.columns)
            .field("samples", &samples)
            .field("moments", &self.moments)
            .finish()
    }
}

/// Simulate one parameter point over the given worlds.
///
/// Each world `w` evaluates the scenario SELECT under *per-call* VG
/// substreams derived from `(root, w, function, call index)` alone: the
/// same `worlds` slice against two different points reuses the *same
/// underlying randomness per world index* — common random numbers, the
/// variance-reduction trick that makes outputs of correlated parameter
/// points comparable sample-by-sample (fingerprinting relies on it).
pub fn simulate_point(
    select: &SelectInto,
    registry: &VgRegistry,
    seeds: &SeedManager,
    point: &ParamPoint,
    worlds: &[u64],
) -> SqlResult<SampleSet> {
    let params = point.to_value_map();
    let columns: Vec<String> = select.items.iter().map(|i| i.alias.clone()).collect();
    let mut samples: HashMap<String, Vec<f64>> = columns
        .iter()
        .map(|c| (c.clone(), Vec::with_capacity(worlds.len())))
        .collect();

    for &world in worlds {
        let rng = WorldRng::per_call(*seeds, world);
        let row = evaluate_select_with(select, registry, &params, rng)?;
        for (name, value) in row {
            samples
                .get_mut(&name)
                .expect("invariant: executor rows carry exactly the declared aliases")
                .push(sample_f64(&value)?);
        }
    }
    Ok(SampleSet::from_samples(point.clone(), columns, samples))
}

/// Simulate one parameter point over the given worlds in **one** walk of
/// the scenario SELECT, through `prophet-sql`'s **typed columnar** tier:
/// numeric columns stay `f64`/`i64` buffers end to end, so the per-column
/// sample vectors come straight out of the typed buffers via
/// [`to_f64_samples`] (the one NULL→NaN conversion point) instead of
/// through boxed `Value` cells.
///
/// Semantics (seed derivation, NULL→NaN samples) are identical to
/// [`simulate_point`] — per world, the produced samples are bit-identical.
/// Also returns the tier's kernel/fallback counters so callers can account
/// for how much of the walk stayed typed.
///
/// `common_random_numbers: false` salts every world id with the point's
/// [`ParamPoint::stable_hash`], so distinct points draw independent noise —
/// the only point-salted path left. The argument exists because the `perf`
/// harness passes it, and is deleted with that harness's rework (ROADMAP
/// item 4).
pub fn simulate_point_columnar(
    select: &SelectInto,
    registry: &VgRegistry,
    seeds: &SeedManager,
    point: &ParamPoint,
    worlds: &[u64],
    common_random_numbers: bool,
) -> SqlResult<(SampleSet, ColumnarStats)> {
    if common_random_numbers {
        return simulate_point_columnar_with(select, registry, seeds, point, worlds, None);
    }
    let salt = point.stable_hash();
    let salted: Vec<u64> = worlds.iter().map(|&w| w ^ salt).collect();
    simulate_point_columnar_with(select, registry, seeds, point, &salted, None)
}

/// [`simulate_point_columnar`] with the caller's [`LedgerStore`] (valid
/// for `seeds`): models that keep a draw ledger replay each world's stream
/// from it instead of drawing it again for every point. Bit-identical
/// samples either way.
pub fn simulate_point_columnar_with(
    select: &SelectInto,
    registry: &VgRegistry,
    seeds: &SeedManager,
    point: &ParamPoint,
    worlds: &[u64],
    ledgers: Option<&dyn LedgerStore>,
) -> SqlResult<(SampleSet, ColumnarStats)> {
    let params = point.to_value_map();
    let (columns_out, stats) =
        evaluate_select_columns_with(select, registry, &params, *seeds, worlds, None, ledgers)?;
    let columns: Vec<String> = columns_out.iter().map(|(name, _)| name.clone()).collect();
    let mut samples: HashMap<String, Vec<f64>> = HashMap::with_capacity(columns.len());
    for (name, column) in columns_out {
        samples.insert(name, to_f64_samples(&column)?);
    }
    Ok((
        SampleSet::from_samples(point.clone(), columns, samples),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_data::{DataResult, Value};
    use prophet_sql::parser::parse_script;
    use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
    use prophet_vg::VgFunction;
    use std::sync::Arc;

    /// `Noise(center)` = center + U[0,1).
    #[derive(Debug)]
    struct Noise;

    impl VgFunction for Noise {
        fn name(&self) -> &str {
            "Noise"
        }
        fn arity(&self) -> usize {
            1
        }
        fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
            Ok(params[0].as_f64()? + rng.next_f64())
        }
    }

    fn setup() -> (prophet_sql::ast::Script, VgRegistry, SeedManager) {
        let script = parse_script(
            "DECLARE PARAMETER @c AS RANGE 0 TO 100 STEP BY 1;\n\
             SELECT Noise(@c) AS out, Noise(@c) * 2 AS double INTO r;",
        )
        .unwrap();
        let mut registry = VgRegistry::new();
        registry.register(Arc::new(Noise));
        (script, registry, SeedManager::new(42))
    }

    #[test]
    fn simulate_collects_all_columns_and_worlds() {
        let (script, registry, seeds) = setup();
        let point = ParamPoint::from_pairs([("c", 10i64)]);
        let worlds: Vec<u64> = (0..50).collect();
        let ss = simulate_point(&script.select, &registry, &seeds, &point, &worlds).unwrap();
        assert_eq!(ss.columns(), &["out".to_string(), "double".to_string()]);
        assert_eq!(ss.world_count(), 50);
        let stats = ss.stats("out").unwrap();
        assert!((10.0..11.0).contains(&stats.mean), "mean={}", stats.mean);
        assert!(ss.samples("nope").is_none());
        assert_eq!(ss.point(), &point);
    }

    #[test]
    fn crn_makes_worlds_comparable_across_points() {
        let (script, registry, seeds) = setup();
        let worlds: Vec<u64> = (0..20).collect();
        let p10 = ParamPoint::from_pairs([("c", 10i64)]);
        let p20 = ParamPoint::from_pairs([("c", 20i64)]);
        let a = simulate_point(&script.select, &registry, &seeds, &p10, &worlds).unwrap();
        let b = simulate_point(&script.select, &registry, &seeds, &p20, &worlds).unwrap();
        // Same worlds, same noise: the difference must be exactly 10.
        for (x, y) in a
            .samples("out")
            .unwrap()
            .iter()
            .zip(b.samples("out").unwrap())
        {
            assert!((y - x - 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn without_crn_noise_is_independent() {
        let (script, registry, seeds) = setup();
        let worlds: Vec<u64> = (0..20).collect();
        let p10 = ParamPoint::from_pairs([("c", 10i64)]);
        let p20 = ParamPoint::from_pairs([("c", 20i64)]);
        let salted = |p| {
            simulate_point_columnar(&script.select, &registry, &seeds, p, &worlds, false)
                .unwrap()
                .0
        };
        let (a, b) = (salted(&p10), salted(&p20));
        let exact = a
            .samples("out")
            .unwrap()
            .iter()
            .zip(b.samples("out").unwrap())
            .filter(|(x, y)| (*y - *x - 10.0).abs() < 1e-12)
            .count();
        assert_eq!(exact, 0, "independent draws should not line up exactly");
    }

    #[test]
    fn expectation_and_stddev_shortcuts() {
        let (script, registry, seeds) = setup();
        let point = ParamPoint::from_pairs([("c", 0i64)]);
        let worlds: Vec<u64> = (0..2000).collect();
        let ss = simulate_point(&script.select, &registry, &seeds, &point, &worlds).unwrap();
        let e = ss.expect("out").unwrap();
        let sd = ss.expect_std_dev("out").unwrap();
        assert!((e - 0.5).abs() < 0.02, "E[U]≈0.5, got {e}");
        let expected_sd = (1.0f64 / 12.0).sqrt();
        assert!((sd - expected_sd).abs() < 0.02, "sd={sd}");
        // double = 2 * an independent draw, so E[double] ≈ 1.0
        assert!((ss.expect("double").unwrap() - 1.0).abs() < 0.04);
    }

    #[test]
    fn world_spans_concatenate_to_the_full_run() {
        let (script, registry, seeds) = setup();
        let point = ParamPoint::from_pairs([("c", 5i64)]);
        let w1: Vec<u64> = (0..10).collect();
        let w2: Vec<u64> = (10..30).collect();
        let a = simulate_point(&script.select, &registry, &seeds, &point, &w1).unwrap();
        let b = simulate_point(&script.select, &registry, &seeds, &point, &w2).unwrap();
        let joined = [a.samples("out").unwrap(), b.samples("out").unwrap()].concat();
        assert_eq!(joined.len(), 30);

        let full: Vec<u64> = (0..30).collect();
        let c = simulate_point(&script.select, &registry, &seeds, &point, &full).unwrap();
        assert_eq!(joined, c.samples("out").unwrap());
    }

    #[test]
    fn columnar_simulation_is_bit_identical_to_scalar() {
        let (script, registry, seeds) = setup();
        let point = ParamPoint::from_pairs([("c", 10i64)]);
        let worlds: Vec<u64> = (0..50).collect();
        // Without common random numbers the columnar entry point salts the
        // world ids with the point; the scalar reference is handed them
        // salted.
        let salted: Vec<u64> = worlds.iter().map(|&w| w ^ point.stable_hash()).collect();
        for (crn, reference) in [(true, &worlds), (false, &salted)] {
            let scalar =
                simulate_point(&script.select, &registry, &seeds, &point, reference).unwrap();
            let (columnar, stats) =
                simulate_point_columnar(&script.select, &registry, &seeds, &point, &worlds, crn)
                    .unwrap();
            assert_eq!(scalar, columnar, "crn={crn}");
            // `Noise` implements `invoke` only: its calls answer on the
            // trait's default f64 lane, so nothing here is boxed.
            assert_eq!(stats.fallbacks, 0);
            assert!(stats.kernels > 0);
        }
    }

    #[test]
    fn null_outputs_become_nan_samples() {
        let script = parse_script("SELECT 1 / 0 AS bad INTO r;").unwrap();
        let registry = VgRegistry::new();
        let seeds = SeedManager::new(1);
        let ss =
            simulate_point(&script.select, &registry, &seeds, &ParamPoint::new(), &[0]).unwrap();
        assert!(ss.samples("bad").unwrap()[0].is_nan());
    }
}
