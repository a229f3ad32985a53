//! The Figure-1 evaluation cycle with fingerprint-accelerated reuse.
//!
//! [`Engine::evaluate`] and [`Engine::evaluate_batch`] are the entry points
//! both modes use to obtain the outcome distribution of the scenario at
//! parameter points. The paper's cycle:
//!
//! 1. exact-key cache lookup in the Storage Manager (a prior run of the
//!    same point),
//! 2. fingerprint probing: evaluate the scenario under the *fixed* seed
//!    sequence (cheap — fingerprint length ≪ worlds per point) and search
//!    the basis store for a correlated prior point,
//! 3. on a hit: re-map the stored stochastic samples through the detected
//!    [`Mapping`] and *recompute the derived columns* (e.g. Figure 2's
//!    `CASE WHEN capacity < demand…`) over all worlds — derived logic is
//!    exact, so only the stochastic inputs ever need mapping,
//! 4. on a miss: full Monte Carlo simulation, then insert into the basis
//!    store so later points can map from this one.
//!
//! The cycle itself is written once, as the batched pipeline in
//! [`executor`](crate::executor) — `evaluate` is a batch of one on its
//! inline runner. This module keeps the engine's state (script, seeds,
//! configuration, the exact caches) and the per-point primitives the
//! pipeline's phases compose: `Engine::probe_fingerprints`,
//! `Engine::remap_body` and `Engine::simulate_world_span`
//! (crate-visible), which count into the counters of the run that calls
//! them.
//!
//! The basis store is a [`SharedBasisStore`]. A
//! [`Prophet`](crate::service::Prophet) builds one engine per scenario
//! and runs every session and job of it on that engine, so results
//! simulated by one session re-map in every other, its in-flight claims
//! guarantee concurrent sessions never duplicate one point's simulation,
//! and the call-site probe memo, draw ledgers and recipe memo — exact for
//! one scenario, registry and root seed — serve every job of the scenario
//! (the recipe memo until the store is cleared or restored).

use std::collections::HashMap;
use std::sync::Arc;

use prophet_data::Value;
use prophet_fingerprint::{CorrelationDetector, Fingerprint, FingerprintConfig, Mapping};
use prophet_mc::{
    simulate_point, simulate_point_columnar_with, BasisHit, ColumnMoments, ColumnSamples,
    ParamPoint, Provenance, Rebuild, RebuildHandle, Recipe, RecipeBody, SampleSet,
    SharedBasisStore, StoredEntry,
};
use prophet_sql::columnar::{
    evaluate_derived_columns, evaluate_select_columns_with, to_f64_samples, ColumnarStats,
};
use prophet_sql::error::SqlError;
use prophet_sql::executor::{evaluate_select_with, sample_f64, EvalContext, WorldRng};
use prophet_sql::SelectInto;
use prophet_vg::rng::{Rng64, SeedSequence};
use prophet_vg::{SeedManager, VgRegistry};

use crate::error::{ProphetError, ProphetResult};
use crate::ledger_store::DrawLedgers;
use crate::metrics::{Counters, EngineMetrics, Stopwatch};
use crate::probe_memo::ProbeMemo;
use crate::recipe_memo::{RecipeKey, RecipeMemo};
use crate::scenario::Scenario;

/// Which `prophet-sql` execution tier evaluates the scenario SELECT.
///
/// One production path and one reference path: the two tiers are
/// bit-identical per world (the differential suite in
/// `tests/vector_equivalence.rs` enforces it across every bundled
/// scenario) and differ only in how the work is shaped. See
/// `docs/VECTORIZATION.md` for the full story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// One AST walk per world (`evaluate_select_with`), one
    /// `VgFunction::invoke` — one `f64` sample, bound as `Value::Float` —
    /// per VG call. The reference semantics the differential suites diff
    /// against, for re-mapping too: derived columns are recomputed world
    /// by world with `eval_expr`.
    Scalar,
    /// One AST walk per world-block over typed `f64`/`i64`/`bool` column
    /// buffers (`evaluate_select_columns`): straight-line kernels over
    /// typed slices, with per-node fallback to boxed values for
    /// mixed/string data. Kernel/fallback counts surface as
    /// `EngineMetrics::columnar_kernels` / `column_fallbacks`. Probes
    /// consult the engine's call-site memo, probes and simulations replay
    /// ledgered models from its draw-ledger store, and a fingerprint hit
    /// recomputes its derived columns in one block walk.
    #[default]
    Columnar,
}

/// Engine tuning knobs. Every field names its **evidence**: the test that
/// needs the knob to exist and the bench row that says what it costs —
/// a knob with neither is a candidate for removal (ROADMAP, *One
/// production path, one reference path*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Monte Carlo worlds per fully simulated parameter point.
    ///
    /// Evidence: a workload parameter, not a design choice — every suite
    /// and bench sets it (`tests/fingerprint_soundness.rs` derives its
    /// standard-error tolerances from it; `perf` runs the paper's 400).
    pub worlds_per_point: usize,
    /// Fingerprint length (probe count).
    ///
    /// Evidence: `tests/service_facade.rs`'s
    /// `degenerate_configs_are_rejected_by_both_constructors` (the one
    /// `EngineConfig::validate` rejects a length below 3, where any affine
    /// map fits exactly) and the `fingerprint.build_ns_per_probe` row of
    /// `perf`. No test varies the length above 3: every suite and bench
    /// runs the default 32.
    pub fingerprint: FingerprintConfig,
    /// Correlation acceptance thresholds.
    ///
    /// Evidence: `tests/fingerprint_soundness.rs` (mapped estimates stay
    /// within the stated error of direct simulation at the default
    /// thresholds) and `perf`'s `accuracy.within_4se_share`; no bench row
    /// varies them.
    pub detector: CorrelationDetector,
    /// Master switch for fingerprint reuse.
    ///
    /// Evidence: the paper's headline comparison —
    /// `tests/figure2_end_to_end.rs::fingerprints_cut_offline_work_without_changing_the_answer`
    /// (under half the simulated worlds, same winner) and
    /// `tests/models_cross.rs` (same answers either way); off is also the
    /// direct-simulation oracle of `tests/fingerprint_soundness.rs`.
    pub fingerprints_enabled: bool,
    /// Execution tier for fingerprint probes, miss-path Monte Carlo
    /// estimation and the derived columns of a re-mapped point: per-world
    /// scalar walks, or block walks over typed column buffers.
    ///
    /// Outputs are bit-identical across the two, so the faster —
    /// [`ExecTier::Columnar`] — is the default; [`ExecTier::Scalar`] stays
    /// selectable because it is the semantic reference the other is
    /// diffed against.
    ///
    /// Evidence: `tests/vector_equivalence.rs` (the two-tier differential:
    /// bit-identity on every bundled scenario, random blocks and random
    /// expressions) and `perf`'s `sql.select_scalar_ns_per_world` vs
    /// `sql.select_columnar_ns_per_world.{b32,b400}` rows.
    pub tier: ExecTier,
    /// Run the correlation match scan through the basis store's
    /// fingerprint summary index: each probe first looks for its
    /// earliest zero-error source in an exact-match window over the
    /// candidates' centred keys, and only when there is none runs the
    /// branch-and-bound scan, where candidates whose summary bound proves
    /// they cannot beat the best match found so far skip the
    /// entry-by-entry comparison.
    ///
    /// The window and the bound are sound, so outcomes, samples and
    /// chosen mapping sources are bit-identical with the index off; off is
    /// the exhaustive reference scan. The work surfaces as
    /// `EngineMetrics::window_hits`, `EngineMetrics::candidates_pruned`
    /// and `EngineMetrics::candidates_scanned`.
    ///
    /// Evidence: `tests/match_index.rs` (indexed ≡ exhaustive; its offline
    /// sweep pins 97,416 pairs compared without the index against 4,018
    /// with it, on `figure2_coarse`, 3,768 of its 3,912 hits answered
    /// from the window) and `perf`'s `mc.store.scan_prune_rate` /
    /// `count.candidates_{scanned,pruned}` rows.
    pub match_index: bool,
    /// Root seed for all estimation randomness.
    ///
    /// Evidence: `tests/determinism.rs` (a fixed seed reproduces every
    /// answer bit for bit); only `tests/vector_equivalence.rs` sets a
    /// non-default one, and no bench row varies it.
    pub root_seed: u64,
    /// The basis store's byte budget, as the bytes of this many
    /// full-depth samples records (the largest samples record it has
    /// held). A mapped entry is a recipe record — its recipe and moments,
    /// no samples; rebuilt when read — of ≈ 1 KB against a simulated
    /// entry's ≈ 10 KB at 400 worlds, so the default keeps a whole
    /// Figure-2 sweep (31,164 points) in today's memory. Past the budget a
    /// publish evicts the oldest mapped entry, then the oldest simulated
    /// one.
    ///
    /// Evidence: `tests/executor.rs` and `tests/basis_snapshot.rs`
    /// (eviction order, sources outlive mapped entries, the churned-store
    /// pin, a tight store of recipe records serving a second sweep) and
    /// `perf`'s `mc.store.publish_evicting_ns` rows and
    /// `count.evictions`.
    pub basis_capacity: usize,
    /// Worker threads of the inline runner's phase fan-out
    /// (deterministic: world→sample assignment is thread-independent).
    /// Its readers are the reference paths on a bare engine —
    /// [`Engine::evaluate_batch`], and through it [`Engine::evaluate`]
    /// and [`OfflineOptimizer`](crate::offline::OfflineOptimizer).
    /// A [`Prophet`](crate::service::Prophet)'s sessions and jobs fan out
    /// on its pool instead and never read it, except that it sizes a pool
    /// whose
    /// [`SchedulerConfig::workers`](crate::scheduler::SchedulerConfig::workers)
    /// is left at `0`.
    ///
    /// Evidence: `tests/executor.rs` and `tests/determinism.rs` (answers
    /// and counters identical at 1 vs N). No bench row varies it: `perf`
    /// sets it to the host's parallelism (capped at 4), which also sizes
    /// the pool its jobs run on.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            worlds_per_point: 400,
            fingerprint: FingerprintConfig::default(),
            detector: CorrelationDetector::default(),
            fingerprints_enabled: true,
            tier: ExecTier::default(),
            match_index: true,
            root_seed: 0xF1_2E_9A_77,
            basis_capacity: 8_192,
            threads: 1,
        }
    }
}

impl EngineConfig {
    /// Reject the configurations that cannot answer, or answer wrongly:
    /// no worlds, no store, or — with fingerprints on — fewer than three
    /// probes. Two probes fit *any* affine map exactly, so a length-2
    /// fingerprint "matches" every candidate and certifies nothing
    /// (lengths 0 and 1 never match at all).
    pub(crate) fn validate(&self) -> ProphetResult<()> {
        let invalid = |msg: &str| Err(ProphetError::InvalidConfig(msg.into()));
        if self.worlds_per_point == 0 {
            return invalid("worlds_per_point must be positive");
        }
        if self.basis_capacity == 0 {
            return invalid("basis_capacity must be positive");
        }
        if self.fingerprints_enabled && self.fingerprint.length < 3 {
            return invalid("fingerprint.length must be at least 3 when fingerprints are enabled");
        }
        Ok(())
    }
}

/// How a point's results were obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalOutcome {
    /// Exact same point served from the store.
    Cached,
    /// Re-mapped from a correlated basis point.
    Mapped {
        /// The source point the mapping came from.
        from: ParamPoint,
        /// Whether every column's mapping was exact (identity/offset).
        exact: bool,
    },
    /// Fully simulated.
    Simulated,
}

/// The evaluation engine shared by online and offline modes.
pub struct Engine {
    scenario: Scenario,
    registry: Arc<VgRegistry>,
    seeds: SeedManager,
    config: EngineConfig,
    /// The remap's inputs and the output column lists, shared with every
    /// mapped record this engine publishes or restores.
    remap: Arc<Remap>,
    /// The select items a fingerprint probe walks: the stochastic items
    /// plus every earlier item one of them reads, transitively, in
    /// declaration order. The items left out are derived and call no VG
    /// function, so per-slot call counters — and with them every memo
    /// key, ledger key and fingerprint — are those of a full-select walk.
    probe_select: SelectInto,
    /// The canonical probe seed block (`config.fingerprint.length` seeds),
    /// derived once — `probe_fingerprints` runs per parameter point, and
    /// the sequence depends only on the config.
    probe_seeds: SeedSequence,
    /// VG call outputs over `probe_seeds` under `seeds`, per call site —
    /// kept for the engine's lifetime (a service's, for a slot engine).
    probe_memo: ProbeMemo,
    /// Drawn ledgers under `seeds`, per `(function, call index, world)`,
    /// kept like `probe_memo`.
    ledgers: DrawLedgers,
    /// A fingerprint hit's body per recipe — what its mapped records
    /// file — kept until the store is cleared or restored.
    recipe_memo: RecipeMemo,
    /// The parameters the derived (VG-free) output items mention, sorted:
    /// the part of a point a recipe's moments depend on.
    derived_params: Vec<String>,
    basis: SharedBasisStore,
    /// What the inline runner counts into; a job counts into its own.
    pub(crate) metrics: Counters,
}

impl Engine {
    /// Build an engine for a scenario against a VG catalog, with a private
    /// basis store.
    pub fn new(
        scenario: &Scenario,
        registry: VgRegistry,
        config: EngineConfig,
    ) -> ProphetResult<Self> {
        config.validate()?;
        let basis = SharedBasisStore::new(config.basis_capacity)
            .with_provenance(provenance(scenario, &registry, &config));
        Engine::with_basis_store(scenario, Arc::new(registry), config, basis)
    }

    /// Build against an existing (possibly shared) basis store — the
    /// constructor the [`Prophet`](crate::service::Prophet) service builds
    /// each scenario's one engine with.
    ///
    /// Capacity is a property of the *store*: `config.basis_capacity` is
    /// only consulted by the store-creating constructor ([`Engine::new`])
    /// and is ignored here — beyond the config-wide check that it is not
    /// zero — in favour of whatever the supplied store was built with.
    pub fn with_basis_store(
        scenario: &Scenario,
        registry: Arc<VgRegistry>,
        config: EngineConfig,
        basis: SharedBasisStore,
    ) -> ProphetResult<Self> {
        config.validate()?;
        let script = scenario.script();
        let mut stochastic_cols: Vec<String> = Vec::new();
        let mut derived_params: Vec<String> = Vec::new();
        for item in &script.select.items {
            let calls = item.expr.referenced_calls();
            if calls.iter().any(|(name, _)| registry.get(name).is_ok()) {
                stochastic_cols.push(item.alias.clone());
            } else {
                derived_params.extend(item.expr.referenced_params());
            }
        }
        derived_params.sort_unstable();
        derived_params.dedup();
        // An item reads only items declared before it, so one pass from
        // the last item to the first closes the set.
        let mut probed: Vec<&str> = stochastic_cols.iter().map(String::as_str).collect();
        for item in script.select.items.iter().rev() {
            if probed.contains(&item.alias.as_str()) {
                probed.extend(item.expr.referenced_columns());
            }
        }
        let probe_select = SelectInto {
            items: script
                .select
                .items
                .iter()
                .filter(|item| probed.contains(&item.alias.as_str()))
                .cloned()
                .collect(),
            target: script.select.target.clone(),
        };
        let output_cols = script
            .select
            .items
            .iter()
            .map(|i| i.alias.clone())
            .collect();
        let remap = Arc::new(Remap {
            select: script.select.clone(),
            registry: Arc::clone(&registry),
            output_cols,
            stochastic_cols,
            parameters: (script.params.as_slice())
                .iter()
                .map(|p| p.name.clone())
                .collect(),
            tier: config.tier,
        });
        Ok(Engine {
            scenario: scenario.clone(),
            registry,
            seeds: SeedManager::new(config.root_seed),
            probe_seeds: SeedSequence::fingerprint_default(config.fingerprint.length),
            probe_memo: ProbeMemo::new(),
            ledgers: DrawLedgers::new(),
            recipe_memo: RecipeMemo::new(),
            derived_params,
            remap,
            config,
            probe_select,
            basis,
            metrics: Counters::new(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The scenario this engine evaluates (its script:
    /// [`Scenario::script`]).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The VG catalog.
    pub fn registry(&self) -> &VgRegistry {
        &self.registry
    }

    /// Output columns classified as stochastic (contain VG calls).
    pub fn stochastic_columns(&self) -> &[String] {
        &self.remap.stochastic_cols
    }

    /// All output column names, in SELECT order.
    pub fn output_columns(&self) -> &[String] {
        &self.remap.output_cols
    }

    /// Snapshot of the work counters of every batch this engine ran
    /// inline ([`Engine::evaluate_batch`] and the calls built on it). A
    /// [`Prophet`](crate::service::Prophet) job counts into its own
    /// counters instead — its handle's progress, a session's
    /// `metrics` — never into these.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics.get()
    }

    /// The (possibly shared) basis store backing this engine.
    pub fn basis_store(&self) -> &SharedBasisStore {
        &self.basis
    }

    /// Number of basis entries currently stored.
    pub fn basis_len(&self) -> usize {
        self.basis.len()
    }

    /// Drop all basis entries (forces cold start), and the recipe memo's
    /// bodies with them. Affects every engine sharing the store.
    pub fn clear_basis(&self) {
        self.basis.clear();
        self.recipe_memo.clear();
    }

    /// Replace the basis store's contents with a
    /// [`SharedBasisStore::snapshot_bytes`] stream, rebuilding nothing.
    /// Every recipe record is installed as one, with this engine's remap
    /// and the moments the file holds — the warm store's bits — so a
    /// reader of moments (a sweep's answers, a GRAPH render) never
    /// rebuilds, and a samples read rebuilds through the function that
    /// made the warm store's copy, so the restored samples are its bits
    /// (the `Scalar` and `Columnar` tiers agree bit for bit). Returns the
    /// number of restored entries. A snapshot written in another world
    /// fails with [`SnapshotError::WrongWorld`](prophet_mc::SnapshotError::WrongWorld),
    /// and one whose recipes this engine's remap could not rebuild — one
    /// that fails its structural check: mapped columns, source columns
    /// and depth, bound parameters — with
    /// [`SnapshotError::Rebuild`](prophet_mc::SnapshotError::Rebuild);
    /// either leaves the store — and the recipe memo — untouched (see
    /// [`SharedBasisStore::restore_with`]). A successful one clears the
    /// recipe memo, as [`Engine::clear_basis`] does.
    pub fn restore_basis(&self, bytes: &[u8]) -> ProphetResult<usize> {
        let restored = self.basis.restore_with(bytes, &self.rebuild_handle())?;
        self.recipe_memo.clear();
        Ok(restored)
    }

    /// This engine's remap as the store's [`RebuildHandle`]: what a mapped
    /// record it publishes or restores rebuilds its samples with.
    fn rebuild_handle(&self) -> RebuildHandle {
        Arc::clone(&self.remap) as RebuildHandle
    }

    /// Evaluate the scenario at one parameter point, returning the sample
    /// set and how it was obtained. This is a batch of one through
    /// [`Engine::evaluate_batch`].
    pub fn evaluate(&self, point: &ParamPoint) -> ProphetResult<(SampleSet, EvalOutcome)> {
        let mut results = self.evaluate_batch(std::slice::from_ref(point))?;
        Ok(results
            .pop()
            .expect("invariant: a batch of one yields exactly one result"))
    }

    /// Monte Carlo expectation of one column at a point (convenience).
    pub fn expect(&self, point: &ParamPoint, column: &str) -> ProphetResult<f64> {
        let (samples, _) = self.evaluate(point)?;
        samples
            .expect(column)
            .ok_or_else(|| ProphetError::unknown_column(column, self.output_columns().to_vec()))
    }

    // ---------------------------------------------- pipeline primitives
    // (crate-visible: composed into batches by `crate::executor`)

    /// Evaluate the scenario once per canonical fingerprint seed, recording
    /// each stochastic column's output. Counts into `metrics` — the run's
    /// counters — and self-times into `probe_eval_nanos`, so the counter
    /// sums real probe work across parallel workers.
    ///
    /// On the default [`ExecTier::Columnar`] the whole seed block is one
    /// walk of the block executor — `vector_walks` counts it, while
    /// `probe_evaluations` keeps counting the logical per-seed evaluations
    /// so probe accounting stays comparable with the scalar tier. The walk
    /// also accounts its typed-kernel vs boxed fallback node counts,
    /// serves VG call sites it has already drawn for this argument tuple
    /// from the engine's probe memo (`probe_call_sites_memoised` of
    /// `probe_call_sites`), and replays the rest from the draw-ledger store
    /// where the model keeps a ledger (`probe_call_sites_replayed`).
    pub(crate) fn probe_fingerprints(
        &self,
        point: &ParamPoint,
        metrics: &Counters,
    ) -> ProphetResult<HashMap<String, Fingerprint>> {
        let start = Stopwatch::start();
        let seeds = &self.probe_seeds;
        let params = point.to_value_map();

        if self.config.tier == ExecTier::Columnar {
            let (columns, stats) = evaluate_select_columns_with(
                &self.probe_select,
                &self.registry,
                &params,
                self.seeds,
                seeds.seeds(),
                Some(&self.probe_memo),
                Some(&self.ledgers),
            )?;
            let stochastic = &self.remap.stochastic_cols;
            let mut out = HashMap::with_capacity(stochastic.len());
            for (name, column) in columns {
                if stochastic.contains(&name) {
                    let values = to_f64_samples(&column)?;
                    out.insert(
                        name,
                        Fingerprint::compute_block_with_seeds(seeds, |_| values),
                    );
                }
            }
            metrics.bump(|m| {
                m.probe_evaluations += seeds.len() as u64;
                m.vector_walks += 1;
                m.columnar_kernels += stats.kernels;
                m.column_fallbacks += stats.fallbacks;
                m.column_gathers += stats.gathers;
                m.probe_call_sites += stats.call_sites;
                m.probe_call_sites_memoised += stats.call_sites_memoised;
                m.probe_call_sites_replayed += stats.call_sites_replayed;
                m.probe_eval_nanos += start.elapsed_nanos();
                m.probe_latency.record(start.elapsed_nanos());
            });
            return Ok(out);
        }

        let mut per_col: HashMap<String, Vec<f64>> = (self.remap.stochastic_cols)
            .iter()
            .map(|c| (c.clone(), Vec::with_capacity(seeds.len())))
            .collect();
        for &world in seeds.seeds() {
            let row = evaluate_select_with(
                &self.scenario.script().select,
                &self.registry,
                &params,
                WorldRng::per_call(self.seeds, world),
            )?;
            for (name, value) in row {
                if let Some(col) = per_col.get_mut(&name) {
                    col.push(sample_f64(&value)?);
                }
            }
        }
        metrics.bump(|m| {
            m.probe_evaluations += seeds.len() as u64;
            m.probe_eval_nanos += start.elapsed_nanos();
            m.probe_latency.record(start.elapsed_nanos());
        });
        Ok(per_col
            .into_iter()
            .map(|(name, values)| (name, Fingerprint::from_values(values)))
            .collect::<HashMap<_, _>>())
    }

    /// The body of `hit` re-mapped onto `point`: the engine's recipe
    /// memo's, or — for a recipe it has not seen — a new one holding the
    /// moments of [`Remap::samples`], taken while the fresh columns are
    /// still in this worker's cache, which are then dropped: a hit
    /// publishes a recipe record and builds no samples. Counts the hit in
    /// the run's `remaps` or `remaps_memoised`; a remap self-times into
    /// its `remap_nanos`, and the rest of the call — the key and the
    /// memo's lookup — into its `recipe_lookup_nanos`.
    pub(crate) fn remap_body(
        &self,
        point: &ParamPoint,
        hit: &BasisHit,
        metrics: &Counters,
    ) -> ProphetResult<RecipeBody> {
        let lookup = Stopwatch::start();
        let key = RecipeKey::new(
            hit,
            &self.remap.stochastic_cols,
            &self.derived_params,
            point,
        );
        let (mut gathers, mut nanos) = (0, 0);
        let (body, remapped) = self.recipe_memo.body(key, &hit.samples, || {
            let start = Stopwatch::start();
            let remapped = (self.remap).samples(point, &hit.samples, &hit.mappings, hit.worlds);
            let body = remapped.map(|(samples, walk_gathers)| {
                gathers = walk_gathers;
                let recipe = Recipe {
                    source_stamp: hit.source_stamp,
                    mappings: hit.mappings.clone(),
                };
                let moments = ColumnMoments::named(&self.remap.output_cols, &samples);
                let (source, rebuild) = (Arc::clone(&hit.samples), self.rebuild_handle());
                RecipeBody::new(recipe, source, rebuild, moments)
            });
            nanos = start.elapsed_nanos();
            body
        });
        let lookup_nanos = lookup.elapsed_nanos().saturating_sub(nanos);
        metrics.bump(|m| {
            m.recipe_lookup_nanos += lookup_nanos;
            if remapped {
                m.remaps += 1;
                m.column_gathers += gathers;
                m.remap_nanos += nanos;
            } else {
                m.remaps_memoised += 1;
            }
        });
        body
    }

    /// One tier-routed simulation of a world list (no metrics bump — the
    /// callers aggregate). The scalar tier reports zero columnar stats.
    fn simulate_span_once(
        &self,
        point: &ParamPoint,
        worlds: &[u64],
    ) -> Result<(SampleSet, ColumnarStats), SqlError> {
        match self.config.tier {
            ExecTier::Columnar => simulate_point_columnar_with(
                &self.scenario.script().select,
                &self.registry,
                &self.seeds,
                point,
                worlds,
                Some(&self.ledgers),
            ),
            ExecTier::Scalar => simulate_point(
                &self.scenario.script().select,
                &self.registry,
                &self.seeds,
                point,
                worlds,
            )
            .map(|set| (set, ColumnarStats::default())),
        }
    }

    /// Simulate one contiguous span of a point's worlds — the one
    /// simulation primitive: the batch pipeline's simulate-phase item
    /// (at most `SPAN_WORLDS` = 100 worlds, re-claimed points included;
    /// under a stop rule, one wave's `batch` worlds, as in
    /// [`OnlineSession::progressive_expect`]). World→sample assignment is
    /// seed-based (`(root seed, world, function, call index)`, the same
    /// for every point), so any span yields
    /// bit-for-bit the matching slice of a full-range run, and spans
    /// concatenated in world order are that run.
    ///
    /// On the default [`ExecTier::Columnar`] a span is one block walk of
    /// the block executor; per-world samples are bit-identical to the
    /// scalar tier. Counts into `metrics`, the run's counters.
    ///
    /// [`OnlineSession::progressive_expect`]: crate::session::OnlineSession::progressive_expect
    pub(crate) fn simulate_world_span(
        &self,
        point: &ParamPoint,
        span: std::ops::Range<u64>,
        metrics: &Counters,
    ) -> ProphetResult<SampleSet> {
        let start = Stopwatch::start();
        let worlds: Vec<u64> = span.collect();
        let (sample_set, stats) = self.simulate_span_once(point, &worlds)?;
        metrics.bump(|m| {
            m.worlds_simulated += worlds.len() as u64;
            m.columnar_kernels += stats.kernels;
            m.column_fallbacks += stats.fallbacks;
            m.column_gathers += stats.gathers;
            m.sim_cpu_nanos += start.elapsed_nanos();
            m.sim_latency.record(start.elapsed_nanos());
        });
        Ok(sample_set)
    }

    /// Wrap shared samples — a store entry's, or ones just published to
    /// it — as the caller-facing [`SampleSet`], copying nothing.
    pub(crate) fn to_sample_set(
        &self,
        point: &ParamPoint,
        samples: Arc<ColumnSamples>,
    ) -> SampleSet {
        SampleSet::from_shared(point.clone(), Arc::clone(&self.remap.output_cols), samples)
    }

    /// Wrap a store entry read at `point` as the caller-facing
    /// [`SampleSet`], rebuilding nothing: its stored moments answer
    /// `expect`, and a recipe record's samples are rebuilt only if the
    /// caller reads them.
    pub(crate) fn stored_sample_set(&self, point: &ParamPoint, entry: StoredEntry) -> SampleSet {
        SampleSet::from_stored(point.clone(), Arc::clone(&self.remap.output_cols), entry)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("stochastic_cols", &self.remap.stochastic_cols)
            .field("config", &self.config)
            .field("basis", &self.basis)
            .finish_non_exhaustive()
    }
}

/// What a fingerprint hit's remap reads — the scenario SELECT, the VG
/// registry, the column lists and the tier — owned apart from the engine,
/// so that the engine and every mapped record it publishes share it: it is
/// the store's [`Rebuild`] handle, which re-runs the very remap that made
/// a recipe record's samples. It holds no store, so records holding it
/// form no reference cycle.
pub(crate) struct Remap {
    select: SelectInto,
    registry: Arc<VgRegistry>,
    /// All output column names, in SELECT order (shared with every
    /// [`SampleSet`] the engine hands out).
    output_cols: Arc<[String]>,
    /// Output columns whose expressions invoke a registered VG function.
    stochastic_cols: Vec<String>,
    /// The scenario's parameter names: what a derived column may read.
    parameters: Vec<String>,
    tier: ExecTier,
}

impl Remap {
    /// Map the stochastic columns of `source` and recompute the derived
    /// ones, returning the samples and the derived walk's column gathers.
    ///
    /// The derived columns follow the tier: [`ExecTier::Columnar`] lends
    /// the mapped columns to the block executor as `f64` lanes, which
    /// evaluates every derived item once over all `worlds` lanes and hands
    /// back their samples — what this allocates beyond the walk's own
    /// scratch is the output columns; [`ExecTier::Scalar`] recomputes world
    /// by world with `eval_expr`, the semantic reference the block walk is
    /// held bit-identical to (`tests/vector_equivalence.rs`).
    fn samples(
        &self,
        point: &ParamPoint,
        source: &ColumnSamples,
        mappings: &HashMap<String, Mapping>,
        worlds: usize,
    ) -> ProphetResult<(Arc<ColumnSamples>, u64)> {
        let mut gathers = 0;
        let mut out: HashMap<String, Vec<f64>> = HashMap::with_capacity(self.output_cols.len());
        // Stochastic columns: apply the detected mapping to stored samples.
        for col in &self.stochastic_cols {
            let src = source.get(col).ok_or_else(|| {
                ProphetError::Internal(format!("basis entry lacks samples for column `{col}`"))
            })?;
            if src.len() != worlds {
                return Err(ProphetError::Internal(format!(
                    "basis entry holds {} samples for column `{col}` but claims {worlds} worlds",
                    src.len()
                )));
            }
            let mapping = mappings
                .get(col)
                .ok_or_else(|| ProphetError::Internal(format!("no mapping for column `{col}`")))?;
            out.insert(col.clone(), mapping.apply_samples(src));
        }
        if self.stochastic_cols.len() < self.output_cols.len() {
            let params = point.to_value_map();
            if self.tier == ExecTier::Columnar {
                let (derived, stats) =
                    evaluate_derived_columns(&self.select, &self.registry, &params, &out, worlds)?;
                out.extend(derived);
                gathers = stats.gathers;
            } else {
                self.derive_per_world(&params, &mut out, worlds)?;
            }
        }
        Ok((Arc::new(out), gathers))
    }

    /// The reference recomputation of derived columns from mapped inputs:
    /// one scalar `eval_expr` walk per world.
    fn derive_per_world(
        &self,
        params: &HashMap<String, Value>,
        out: &mut HashMap<String, Vec<f64>>,
        worlds: usize,
    ) -> ProphetResult<()> {
        for alias in self.output_cols.iter() {
            if !self.stochastic_cols.contains(alias) {
                out.insert(alias.clone(), Vec::with_capacity(worlds));
            }
        }
        for w in 0..worlds {
            let mut rng = NoRandomness;
            let mut ctx = EvalContext::new(&self.registry, params, &mut rng);
            // Bind aliases in select order so derived items see both
            // stochastic and earlier derived columns.
            for item in &self.select.items {
                if self.stochastic_cols.contains(&item.alias) {
                    let v = out[&item.alias][w];
                    ctx.bind_alias(&item.alias, Value::Float(v));
                } else {
                    let v = prophet_sql::executor::eval_expr(&item.expr, &mut ctx)?;
                    let x = sample_f64(&v)?;
                    ctx.bind_alias(&item.alias, v);
                    out.get_mut(&item.alias)
                        .expect("invariant: derived columns are pre-inserted above")
                        .push(x);
                }
            }
        }
        Ok(())
    }
}

impl Rebuild for Remap {
    fn rebuild(
        &self,
        point: &ParamPoint,
        source: &ColumnSamples,
        mappings: &HashMap<String, Mapping>,
        worlds: usize,
    ) -> Result<Arc<ColumnSamples>, String> {
        (self.samples(point, source, mappings, worlds))
            .map(|(samples, _)| samples)
            .map_err(|e| e.to_string())
    }

    /// What [`Remap::samples`] needs of a recipe: a mapping for exactly
    /// the stochastic columns, and every output column in the source (and
    /// no other) at `worlds` lanes.
    fn check_recipe(
        &self,
        source: &ColumnSamples,
        mappings: &HashMap<String, Mapping>,
        worlds: usize,
    ) -> Result<(), String> {
        let stochastic = &self.stochastic_cols;
        if mappings.len() != stochastic.len()
            || !stochastic.iter().all(|c| mappings.contains_key(c))
        {
            let mut mapped: Vec<&String> = mappings.keys().collect();
            mapped.sort();
            return Err(format!(
                "the recipe maps {mapped:?}, not the stochastic columns {stochastic:?}"
            ));
        }
        if source.len() != self.output_cols.len() {
            return Err(format!(
                "the source holds {} columns, not the {} output columns",
                source.len(),
                self.output_cols.len()
            ));
        }
        for col in self.output_cols.iter() {
            match source.get(col) {
                Some(lanes) if lanes.len() == worlds => {}
                Some(lanes) => {
                    return Err(format!(
                        "the source holds {} samples for column `{col}` but claims {worlds} worlds",
                        lanes.len()
                    ))
                }
                None => return Err(format!("the source lacks samples for column `{col}`")),
            }
        }
        Ok(())
    }

    /// What [`Remap::samples`] needs of a point: that it binds every
    /// scenario parameter.
    fn check_point(&self, point: &ParamPoint) -> Result<(), String> {
        match self.parameters.iter().find(|p| point.get(p).is_none()) {
            Some(param) => Err(format!("the point {point} does not bind `{param}`")),
            None => Ok(()),
        }
    }
}

/// The world `scenario`'s samples are drawn in under `registry` and
/// `config`: what a basis store of its records writes into a snapshot
/// and requires of one it restores.
///
/// `config` is destructured field by field: a new field must either feed
/// the provenance or say here why the samples do not depend on it.
pub(crate) fn provenance(
    scenario: &Scenario,
    registry: &VgRegistry,
    config: &EngineConfig,
) -> Provenance {
    let EngineConfig {
        root_seed,
        fingerprint,
        // An entry records its own world count.
        worlds_per_point: _,
        // Picks which points map, not what is drawn (open: ROADMAP 4(f)).
        detector: _,
        // Whether points map at all: the same open question.
        fingerprints_enabled: _,
        // The two tiers are bit-identical.
        tier: _,
        // The indexed scan is bit-identical to the exhaustive one.
        match_index: _,
        // Samples are thread-independent.
        threads: _,
        // A byte budget, which a restore checks on its own.
        basis_capacity: _,
    } = config;
    let probe_seeds = SeedSequence::fingerprint_default(fingerprint.length);
    Provenance::new(scenario.source(), *root_seed, probe_seeds.seeds(), registry)
}

/// An RNG that must never be consulted — derived-column recomputation is
/// deterministic, and drawing from this is a classification bug.
struct NoRandomness;

impl Rng64 for NoRandomness {
    fn next_u64(&mut self) -> u64 {
        unreachable!("derived columns must not consume randomness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_models::demo_registry;

    fn engine(config: EngineConfig) -> Engine {
        let scenario = Scenario::figure2().unwrap();
        Engine::new(&scenario, demo_registry(), config).unwrap()
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            worlds_per_point: 60,
            ..EngineConfig::default()
        }
    }

    fn demo_point(current: i64, p1: i64, p2: i64, feature: i64) -> ParamPoint {
        ParamPoint::from_pairs([
            ("current", current),
            ("purchase1", p1),
            ("purchase2", p2),
            ("feature", feature),
        ])
    }

    #[test]
    fn classifies_stochastic_vs_derived_columns() {
        let e = engine(small_config());
        assert_eq!(
            e.stochastic_columns(),
            &["demand".to_string(), "capacity".to_string()]
        );
        assert_eq!(e.output_columns(), ["demand", "capacity", "overload"]);
    }

    #[test]
    fn first_evaluation_simulates_second_hits_cache() {
        let e = engine(small_config());
        let p = demo_point(10, 16, 36, 12);
        let (s1, o1) = e.evaluate(&p).unwrap();
        assert_eq!(o1, EvalOutcome::Simulated);
        assert_eq!(s1.world_count(), 60);
        let (s2, o2) = e.evaluate(&p).unwrap();
        assert_eq!(o2, EvalOutcome::Cached);
        assert_eq!(s1.samples("demand"), s2.samples("demand"));
        let m = e.metrics();
        assert_eq!(m.points_simulated, 1);
        assert_eq!(m.points_cached, 1);
        assert_eq!(m.worlds_simulated, 60);
    }

    #[test]
    fn correlated_point_is_mapped_not_simulated() {
        let e = engine(small_config());
        // Same week, same purchases; only the feature date changes, and
        // both weeks are before either release → identical outputs.
        let a = demo_point(5, 16, 36, 12);
        let b = demo_point(5, 16, 36, 36);
        let (_, o1) = e.evaluate(&a).unwrap();
        assert_eq!(o1, EvalOutcome::Simulated);
        let (sb, o2) = e.evaluate(&b).unwrap();
        match o2 {
            EvalOutcome::Mapped { from, exact } => {
                assert_eq!(from, a);
                assert!(exact, "pre-release feature change must map exactly");
            }
            other => panic!("expected mapped, got {other:?}"),
        }
        // Mapped samples must equal direct simulation of b.
        let fresh = engine(small_config());
        let (direct, _) = fresh.evaluate(&b).unwrap();
        assert_eq!(sb.samples("demand"), direct.samples("demand"));
        assert_eq!(sb.samples("capacity"), direct.samples("capacity"));
        assert_eq!(sb.samples("overload"), direct.samples("overload"));
    }

    #[test]
    fn derived_columns_are_recomputed_consistently_under_mapping() {
        let e = engine(small_config());
        // Same week; the only change moves purchase1 from before (deployed)
        // to after (not deployed) the evaluated week — capacity shifts by
        // exactly one purchase, demand is untouched: an exact Offset map.
        let a = demo_point(10, 4, 36, 12);
        let b = demo_point(10, 16, 36, 12);
        e.evaluate(&a).unwrap();
        let (sb, outcome) = e.evaluate(&b).unwrap();
        assert!(
            matches!(outcome, EvalOutcome::Mapped { exact: true, .. }),
            "{outcome:?}"
        );
        // overload must be consistent with the mapped demand/capacity
        let demand = sb.samples("demand").unwrap();
        let capacity = sb.samples("capacity").unwrap();
        let overload = sb.samples("overload").unwrap();
        for i in 0..sb.world_count() {
            let expected = if capacity[i] < demand[i] { 1.0 } else { 0.0 };
            assert_eq!(overload[i], expected, "world {i}");
        }
    }

    #[test]
    fn fingerprints_disabled_always_simulates() {
        let e = engine(EngineConfig {
            fingerprints_enabled: false,
            ..small_config()
        });
        let a = demo_point(5, 16, 36, 12);
        let b = demo_point(5, 16, 36, 36);
        let (_, o1) = e.evaluate(&a).unwrap();
        let (_, o2) = e.evaluate(&b).unwrap();
        assert_eq!(o1, EvalOutcome::Simulated);
        assert_eq!(o2, EvalOutcome::Simulated);
        assert_eq!(e.metrics().probe_evaluations, 0);
    }

    #[test]
    fn probing_is_cheaper_than_simulation() {
        let cfg = small_config();
        let e = engine(cfg);
        let a = demo_point(5, 16, 36, 12);
        let b = demo_point(5, 16, 36, 36);
        e.evaluate(&a).unwrap();
        e.evaluate(&b).unwrap();
        let m = e.metrics();
        // two probe passes (a and b) of fingerprint length each
        assert_eq!(m.probe_evaluations, 2 * cfg.fingerprint.length as u64);
        // only the first point paid full simulation
        assert_eq!(m.worlds_simulated, cfg.worlds_per_point as u64);
        assert!(
            cfg.fingerprint.length < cfg.worlds_per_point,
            "probe cost must stay below world cost"
        );
    }

    #[test]
    fn vectorized_and_scalar_tiers_agree_bit_for_bit() {
        let columnar = engine(small_config());
        let scalar = engine(EngineConfig {
            tier: ExecTier::Scalar,
            ..small_config()
        });
        // Every simulation walk is handed the ledger store: simulating
        // alone on a fresh engine, no probe run, fills it and moves no bit.
        let p = demo_point(10, 4, 36, 12);
        assert_eq!(
            sample_bits(&simulate(&columnar, &p)),
            sample_bits(&simulate(&scalar, &p))
        );
        assert!(columnar.ledgers.cells() > 0, "simulation kept no ledger");
        assert_eq!(scalar.ledgers.cells(), 0, "the scalar tier never ledgers");
        // Walk a sequence mixing simulate / map / cache outcomes.
        let points = [
            demo_point(5, 16, 36, 12),
            demo_point(5, 16, 36, 36), // maps from the first
            demo_point(50, 0, 4, 44),  // unrelated: simulates
            demo_point(5, 16, 36, 12), // exact cache hit
        ];
        for p in &points {
            let (sc, oc) = columnar.evaluate(p).unwrap();
            let (ss, os) = scalar.evaluate(p).unwrap();
            assert_eq!(oc, os, "outcome for {p}");
            for col in ["demand", "capacity", "overload"] {
                assert_eq!(sc.samples(col), ss.samples(col), "column {col} at {p}");
            }
        }
        // Same logical probe accounting on both tiers…
        let mc = columnar.metrics();
        let ms = scalar.metrics();
        assert_eq!(mc.probe_evaluations, ms.probe_evaluations);
        assert_eq!(mc.worlds_simulated, ms.worlds_simulated);
        // …but the block tier did one walk per probed point.
        assert_eq!(mc.vector_walks, 3, "three probed points, one walk each");
        assert_eq!(ms.vector_walks, 0, "scalar tier never block-walks");
        // Only the columnar tier runs typed kernels; the figure-2 scenario
        // is pure numeric, so it never falls back to boxed values.
        assert!(mc.columnar_kernels > 0, "columnar tier counts kernels");
        assert_eq!(mc.column_fallbacks, 0, "figure-2 is fully typed");
        assert_eq!(ms.columnar_kernels, 0);
    }

    /// Every world of `p`, as one span.
    fn simulate(e: &Engine, p: &ParamPoint) -> Arc<ColumnSamples> {
        let worlds = e.config().worlds_per_point as u64;
        Arc::clone(
            e.simulate_world_span(p, 0..worlds, &e.metrics)
                .unwrap()
                .shared_samples(),
        )
    }

    fn sample_bits(samples: &HashMap<String, Vec<f64>>) -> Vec<(String, Vec<u64>)> {
        let mut cols: Vec<(String, Vec<u64>)> = samples
            .iter()
            .map(|(name, xs)| (name.clone(), xs.iter().map(|x| x.to_bits()).collect()))
            .collect();
        cols.sort();
        cols
    }

    #[test]
    fn block_remap_matches_the_per_world_reference_on_nan_lanes() {
        let block = engine(small_config());
        let reference = engine(EngineConfig {
            tier: ExecTier::Scalar,
            ..small_config()
        });
        let p = demo_point(10, 16, 36, 12);
        // NaN lanes survive the mapping as NaN, and `capacity < demand` with
        // a NaN operand is false on both paths.
        let source = HashMap::from([
            (
                "demand".to_string(),
                vec![9_000.0, f64::NAN, 7_500.0, 8_200.0],
            ),
            (
                "capacity".to_string(),
                vec![8_000.0, 8_000.0, f64::NAN, 9_000.0],
            ),
        ]);
        let mappings = HashMap::from([
            ("demand".to_string(), Mapping::Identity),
            ("capacity".to_string(), Mapping::Offset(500.0)),
        ]);
        let (got, _) = block.remap.samples(&p, &source, &mappings, 4).unwrap();
        let (want, _) = reference.remap.samples(&p, &source, &mappings, 4).unwrap();
        assert_eq!(sample_bits(&got), sample_bits(&want));
        assert_eq!(got["overload"], [1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn remap_rejects_a_source_column_shorter_than_its_worlds() {
        let p = demo_point(10, 16, 36, 12);
        let source = HashMap::from([
            ("demand".to_string(), vec![9_000.0; 4]),
            ("capacity".to_string(), vec![8_000.0; 3]),
        ]);
        let mappings = HashMap::from([
            ("demand".to_string(), Mapping::Identity),
            ("capacity".to_string(), Mapping::Identity),
        ]);
        for tier in [ExecTier::Columnar, ExecTier::Scalar] {
            let e = engine(EngineConfig {
                tier,
                ..small_config()
            });
            match e.remap.samples(&p, &source, &mappings, 4) {
                Err(ProphetError::Internal(msg)) => {
                    assert!(
                        msg.contains("`capacity`") && msg.contains("4 worlds"),
                        "{msg}"
                    )
                }
                other => panic!("{tier:?}: expected a typed internal error, got {other:?}"),
            }
        }
    }

    /// Probe fingerprints as comparable bits, column-sorted.
    fn probe_bits(e: &Engine, p: &ParamPoint) -> Vec<(String, Vec<u64>)> {
        let mut cols: Vec<(String, Vec<u64>)> = e
            .probe_fingerprints(p, &e.metrics)
            .unwrap()
            .into_iter()
            .map(|(name, fp)| (name, fp.values().iter().map(|x| x.to_bits()).collect()))
            .collect();
        cols.sort();
        cols
    }

    /// A probe walks only the items a stochastic column needs. That must
    /// change no fingerprint: not against a walk of the whole SELECT, not
    /// against the scalar tier — on the five bundled scenarios, and where a
    /// stochastic item reads a derived alias (`a` stays, `c` goes).
    #[test]
    fn pruned_probe_walks_leave_every_fingerprint_bit_identical() {
        use prophet_models::scenarios::{
            figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
        };
        let reads_derived = "DECLARE PARAMETER @x AS RANGE 0 TO 11 STEP BY 1;\n\
             SELECT @x + 1 AS a, Normal(a, 1) AS b,\n\
                    CASE WHEN b > a THEN 1 ELSE 0 END AS c INTO r;";
        let cases: [(Scenario, &[&str]); 6] = [
            (Scenario::figure2().unwrap(), &["demand", "capacity"]),
            (
                Scenario::parse(&figure2_coarse_sql(0.05)).unwrap(),
                &["demand", "capacity"],
            ),
            (Scenario::parse(INVENTORY_POLICY).unwrap(), &["on_hand"]),
            (Scenario::parse(PRICING_WHATIF).unwrap(), &["revenue"]),
            (Scenario::parse(SUPPORT_STAFFING).unwrap(), &["backlog"]),
            (Scenario::parse(reads_derived).unwrap(), &["a", "b"]),
        ];
        for (scenario, probed) in cases {
            let build = |tier| {
                let config = EngineConfig {
                    tier,
                    ..small_config()
                };
                Engine::new(&scenario, prophet_models::full_registry(), config).unwrap()
            };
            let (pruned, mut whole, scalar) = (
                build(ExecTier::Columnar),
                build(ExecTier::Columnar),
                build(ExecTier::Scalar),
            );
            let walked: Vec<&str> = pruned
                .probe_select
                .items
                .iter()
                .map(|i| &*i.alias)
                .collect();
            assert_eq!(walked, probed);
            whole.probe_select = whole.scenario.script().select.clone();

            let stride = scenario.parameter_space_size().div_ceil(12);
            let grid = prophet_mc::guide::GridGuide::new(&scenario.script().params);
            for p in grid.step_by(stride) {
                let bits = probe_bits(&pruned, &p);
                assert_eq!(bits, probe_bits(&whole, &p), "{p}");
                assert_eq!(bits, probe_bits(&scalar, &p), "{p}");
            }
            let (mp, mw) = (pruned.metrics(), whole.metrics());
            assert_eq!(mp.probe_call_sites, mw.probe_call_sites);
            assert!(mp.columnar_kernels < mw.columnar_kernels);
            assert_eq!((mp.column_gathers, mw.column_gathers), (0, 0));
        }
    }

    #[test]
    fn probe_memo_overflow_never_changes_a_fingerprint() {
        let mut memoised = engine(small_config());
        // Room for three call sites: the walk below overflows it dozens
        // of times, at every phase of a point's two-site probe.
        memoised.probe_memo = ProbeMemo::with_bound(3);
        let reference = engine(EngineConfig {
            tier: ExecTier::Scalar,
            ..small_config()
        });
        let points: Vec<ParamPoint> = (0..40)
            .map(|i| demo_point(i % 5, 4 * (i % 3), 36, [12, 36][i as usize % 2]))
            .collect();
        for p in points.iter().chain(points.iter().rev()) {
            assert_eq!(probe_bits(&memoised, p), probe_bits(&reference, p), "{p}");
        }
        let m = memoised.metrics();
        assert_eq!(m.probe_call_sites, 160, "two call sites per probe");
        assert!(
            0 < m.probe_call_sites_memoised && m.probe_call_sites_memoised < 160,
            "a three-entry memo serves some repeats and loses others: {}",
            m.probe_call_sites_memoised
        );
        assert_eq!(reference.metrics().probe_call_sites, 0);
    }

    #[test]
    fn recipe_memo_overflow_never_changes_an_answer_or_the_store() {
        let config = EngineConfig {
            worlds_per_point: 16,
            ..EngineConfig::default()
        };
        let mut tiny = engine(config);
        // Room for three recipes: the sweep below overflows it over and
        // over, mid batch.
        tiny.recipe_memo = RecipeMemo::with_bound(3);
        let unbounded = engine(config);
        let points: Vec<ParamPoint> = (0..240)
            .map(|i| {
                demo_point(
                    i % 12,
                    4 * (i / 12 % 5),
                    36,
                    [12, 36, 44][i as usize / 60 % 3],
                )
            })
            .collect();
        for batch in points.chunks(24) {
            let (got, want) = (tiny.evaluate_batch(batch), unbounded.evaluate_batch(batch));
            for ((gs, go), (ws, wo)) in got.unwrap().iter().zip(&want.unwrap()) {
                assert_eq!(go, wo, "{}", gs.point());
                for col in ["demand", "capacity", "overload"] {
                    let bits = |s: &SampleSet| {
                        let (mean, sd) = (s.expect(col).unwrap(), s.expect_std_dev(col).unwrap());
                        (mean.to_bits(), sd.to_bits())
                    };
                    assert_eq!(bits(gs), bits(ws), "{} `{col}`", gs.point());
                }
            }
        }
        // A recipe the overflow cleared is remapped again, so its value
        // lives in two bodies; the snapshot writes each recipe value once
        // all the same, and a restore shares one body among the records
        // of each.
        let bytes = tiny.basis_store().snapshot_bytes();
        assert_eq!(bytes, unbounded.basis_store().snapshot_bytes());
        let reloaded = engine(config);
        reloaded.restore_basis(&bytes).unwrap();
        let store = reloaded.basis_store();
        assert!(store.recipe_bodies() < store.len() - store.resident_len());
        assert_eq!(store.snapshot_bytes(), bytes);
        assert!(tiny.recipe_memo.len() <= 3);
        let (mt, mu) = (tiny.metrics(), unbounded.metrics());
        assert_eq!(mt.points_mapped, mu.points_mapped);
        for (e, m) in [(&tiny, mt), (&unbounded, mu)] {
            assert_eq!(m.remaps + m.remaps_memoised, m.points_mapped);
            assert_eq!(
                e.basis_store().recipe_bodies() as u64,
                m.remaps,
                "a body per remap"
            );
        }
        assert!(
            mu.remaps_memoised > 0 && mt.remaps > mu.remaps,
            "overflow costs remaps: {} vs {}",
            mt.remaps,
            mu.remaps
        );
    }

    #[test]
    fn ledger_store_overflow_never_changes_a_fingerprint_or_a_sample() {
        let mut replayed = engine(small_config());
        // Room for three probe streams' ledgers of a year: every probe
        // walk overflows it several times, mid call site.
        replayed.ledgers = DrawLedgers::with_bound(3 * 256);
        let reference = engine(EngineConfig {
            tier: ExecTier::Scalar,
            ..small_config()
        });
        let points: Vec<ParamPoint> = (0..40)
            .map(|i| demo_point(52 - i, 4 * (i % 3), 36, [12, 36][i as usize % 2]))
            .collect();
        for p in points.iter().chain(points.iter().rev()) {
            assert_eq!(probe_bits(&replayed, p), probe_bits(&reference, p), "{p}");
            assert_eq!(
                sample_bits(&simulate(&replayed, p)),
                sample_bits(&simulate(&reference, p)),
                "{p}"
            );
        }
        assert!(replayed.ledgers.cells() <= 3 * 256);
        let m = replayed.metrics();
        assert_eq!(m.probe_call_sites, 160, "two call sites per probe");
        // Forty distinct tuples per function: the first pass draws
        // `DemandModel` and replays `CapacityModel`, the reversed pass is
        // memo-served.
        assert_eq!(
            (m.probe_call_sites_replayed, m.probe_call_sites_memoised),
            (40, 80)
        );
    }

    #[test]
    fn expectation_convenience_and_unknown_column() {
        let e = engine(small_config());
        let p = demo_point(0, 16, 36, 12);
        let demand = e.expect(&p, "demand").unwrap();
        assert!(
            (7_000.0..9_000.0).contains(&demand),
            "week-0 demand ≈ 8000, got {demand}"
        );
        match e.expect(&p, "nope") {
            Err(ProphetError::UnknownColumn { name, available }) => {
                assert_eq!(name, "nope");
                assert_eq!(available, ["demand", "capacity", "overload"]);
            }
            other => panic!("expected UnknownColumn, got {other:?}"),
        }
    }

    #[test]
    fn clear_basis_forces_resimulation() {
        let e = engine(small_config());
        let p = demo_point(3, 16, 36, 12);
        e.evaluate(&p).unwrap();
        assert_eq!(e.basis_len(), 1);
        e.clear_basis();
        assert_eq!(e.basis_len(), 0);
        let (_, o) = e.evaluate(&p).unwrap();
        assert_eq!(o, EvalOutcome::Simulated);
    }

    #[test]
    fn one_and_four_threads_give_the_same_samples() {
        let p = demo_point(12, 8, 24, 12);
        let seq = engine(EngineConfig {
            threads: 1,
            ..small_config()
        });
        let par = engine(EngineConfig {
            threads: 4,
            ..small_config()
        });
        let (a, _) = seq.evaluate(&p).unwrap();
        let (b, _) = par.evaluate(&p).unwrap();
        assert_eq!(a.samples("demand"), b.samples("demand"));
        assert_eq!(a.samples("capacity"), b.samples("capacity"));
    }

    #[test]
    fn zero_worlds_config_is_rejected() {
        let scenario = Scenario::figure2().unwrap();
        let err = Engine::new(
            &scenario,
            demo_registry(),
            EngineConfig {
                worlds_per_point: 0,
                ..EngineConfig::default()
            },
        );
        assert!(
            matches!(err, Err(ProphetError::InvalidConfig(_))),
            "{err:?}"
        );
    }

    #[test]
    fn basis_capacity_evicts_oldest() {
        let e = engine(EngineConfig {
            basis_capacity: 2,
            worlds_per_point: 16,
            ..EngineConfig::default()
        });
        let p1 = demo_point(1, 16, 36, 12);
        let p2 = demo_point(50, 0, 4, 44); // very different; won't map
        let p3 = demo_point(25, 16, 16, 12);
        e.evaluate(&p1).unwrap();
        e.evaluate(&p2).unwrap();
        e.evaluate(&p3).unwrap();
        assert_eq!(e.basis_len(), 2);
    }

    #[test]
    fn eviction_prefers_mapped_entries_over_simulated_sources() {
        // Capacity 2: one simulated source, one mapped entry. Inserting a
        // third (simulated) point must evict the mapped entry, because the
        // simulated source is what future matches depend on.
        let e = engine(EngineConfig {
            basis_capacity: 2,
            worlds_per_point: 16,
            ..EngineConfig::default()
        });
        let source = demo_point(5, 16, 36, 12);
        let mapped = demo_point(5, 16, 36, 36); // identity-maps from source
        let unrelated = demo_point(50, 0, 4, 44);
        let (_, o1) = e.evaluate(&source).unwrap();
        let (_, o2) = e.evaluate(&mapped).unwrap();
        assert_eq!(o1, EvalOutcome::Simulated);
        assert!(matches!(o2, EvalOutcome::Mapped { .. }));
        e.evaluate(&unrelated).unwrap();
        assert_eq!(e.basis_len(), 2);
        // The source must have survived: re-evaluating the mapped point
        // maps again (from the retained source) instead of simulating.
        let (_, o3) = e.evaluate(&mapped).unwrap();
        assert!(
            matches!(o3, EvalOutcome::Mapped { ref from, .. } if *from == source),
            "source entry must survive eviction, got {o3:?}"
        );
    }

    #[test]
    fn engines_sharing_a_store_reuse_each_others_work() {
        let scenario = Scenario::figure2().unwrap();
        let registry = Arc::new(demo_registry());
        let store = SharedBasisStore::new(1024);
        let cfg = small_config();
        let a =
            Engine::with_basis_store(&scenario, Arc::clone(&registry), cfg, store.clone()).unwrap();
        let b = Engine::with_basis_store(&scenario, registry, cfg, store).unwrap();
        let p = demo_point(10, 16, 36, 12);
        let (sa, oa) = a.evaluate(&p).unwrap();
        assert_eq!(oa, EvalOutcome::Simulated);
        // The *other* engine sees the first one's basis entry.
        let (sb, ob) = b.evaluate(&p).unwrap();
        assert_eq!(ob, EvalOutcome::Cached);
        assert_eq!(sa.samples("demand"), sb.samples("demand"));
        assert_eq!(b.metrics().worlds_simulated, 0, "engine b never simulated");
        assert!(a.basis_store().shares_storage_with(b.basis_store()));
    }
}
