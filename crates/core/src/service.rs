//! The [`Prophet`] service facade: a long-lived engine front door.
//!
//! The paper's demonstration is a single-user GUI, but a production
//! deployment serves many concurrent what-if sessions over a catalog of
//! scenarios. `Prophet` is that deployment shape: scenarios are registered
//! once by name, the VG catalog and engine configuration are fixed at build
//! time, and [`ProphetBuilder::build`] builds one [`Engine`] per scenario:
//! every session handed out by [`Prophet::online`] and every job
//! [`Prophet::submit`] runs evaluates on it, so they share its basis
//! store, its call-site probe memo and its draw ledgers for the service's
//! lifetime. A slider move in one session re-maps results simulated by
//! another, or by an OPTIMIZE sweep, and a second sweep re-probes what
//! the first probed without drawing — the paper's fingerprint reuse,
//! amortized across the whole service instead of trapped inside one
//! session. Work counters belong to the run, not the engine: a job
//! counts into its own, a session sums its jobs'.
//!
//! ```
//! use fuzzy_prophet::prelude::*;
//!
//! let prophet = Prophet::builder()
//!     .scenario("figure2", Scenario::figure2().unwrap())
//!     .registry(prophet_models::demo_registry())
//!     .config(EngineConfig { worlds_per_point: 32, ..EngineConfig::default() })
//!     .build()
//!     .unwrap();
//!
//! let mut first = prophet.online("figure2").unwrap();
//! first.refresh().unwrap();
//!
//! // A second session reuses everything the first one computed.
//! let mut second = prophet.online("figure2").unwrap();
//! let report = second.refresh().unwrap();
//! assert_eq!(report.weeks_simulated, 0);
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use prophet_mc::{SharedBasisStore, SnapshotError, StoreStatsSnapshot};
use prophet_vg::VgRegistry;

use crate::engine::{provenance, Engine, EngineConfig};
use crate::error::{ProphetError, ProphetResult};
use crate::executor::StopRule;
use crate::job::{JobHandle, JobKind, JobSpec};
use crate::obs::TelemetrySnapshot;
use crate::offline::SweepPlan;
use crate::scenario::Scenario;
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::session::{GraphPlan, OnlineSession};
use crate::trace::{TraceConfig, TraceEvent};

/// Fluent builder for [`Prophet`]. Obtained from [`Prophet::builder`].
pub struct ProphetBuilder {
    scenarios: Vec<(String, Scenario)>,
    registry: Option<Arc<VgRegistry>>,
    config: EngineConfig,
    scheduler: SchedulerConfig,
}

impl std::fmt::Debug for ProphetBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProphetBuilder")
            .field(
                "scenarios",
                &self.scenarios.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ProphetBuilder {
    fn new() -> Self {
        ProphetBuilder {
            scenarios: Vec::new(),
            registry: None,
            config: EngineConfig::default(),
            scheduler: SchedulerConfig::default(),
        }
    }

    /// Register a parsed scenario under a service-local name.
    pub fn scenario(mut self, name: impl Into<String>, scenario: Scenario) -> Self {
        self.scenarios.push((name.into(), scenario));
        self
    }

    /// Parse and register a scenario from DSL text in one step.
    pub fn scenario_sql(self, name: impl Into<String>, source: &str) -> ProphetResult<Self> {
        Ok(self.scenario(name, Scenario::parse(source)?))
    }

    /// Select the VG-Function catalog scenarios resolve against. Defaults
    /// to [`prophet_models::full_registry`] (every bundled model).
    pub fn registry(mut self, registry: VgRegistry) -> Self {
        self.registry = Some(Arc::new(registry));
        self
    }

    /// Replace the whole engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Convenience: set only the Monte Carlo worlds per point.
    pub fn worlds_per_point(mut self, worlds: usize) -> Self {
        self.config.worlds_per_point = worlds;
        self
    }

    /// Tune the service's job scheduler (worker pool size, chunk
    /// granularity). By default the pool runs
    /// `EngineConfig::threads.max(2)` workers (see
    /// [`SchedulerConfig::workers`]) and chunks jobs at
    /// [`crate::scheduler::DEFAULT_CHUNK_POINTS`] points.
    pub fn scheduler(mut self, config: SchedulerConfig) -> Self {
        self.scheduler = config;
        self
    }

    /// Configure the service's flight recorder (see `docs/OBSERVABILITY.md`).
    /// Defaults to a bounded ring ([`TraceConfig::ring`]), so
    /// [`JobHandle::trace`] and [`Prophet::telemetry`] work out of the
    /// box; pass [`TraceConfig::Off`] to make every recording site a
    /// no-op. Shorthand for setting [`SchedulerConfig::trace`] through
    /// [`ProphetBuilder::scheduler`].
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.scheduler.trace = trace;
        self
    }

    /// Validate and assemble the service.
    pub fn build(self) -> ProphetResult<Prophet> {
        self.config.validate()?;
        let registry = self
            .registry
            .unwrap_or_else(|| Arc::new(prophet_models::full_registry()));
        // Auto-resolved pools get at least 2 workers: job drivers occupy
        // a worker for their whole job, so a 1-worker pool would queue a
        // high-priority driver behind an entire running sweep — the exact
        // whole-job serialization the scheduler exists to eliminate. Two
        // lanes guarantee an interactive driver starts beside one batch
        // driver even at `threads: 1` (an explicit `workers: 1` is
        // honoured for tests that want a serialized pool).
        let scheduler = Arc::new(Scheduler::new(SchedulerConfig {
            workers: if self.scheduler.workers == 0 {
                self.config.threads.max(2)
            } else {
                self.scheduler.workers
            },
            ..self.scheduler
        }));
        // Stores share the pool's recorder so claim/wait/publish/evict
        // markers and in-flight wait latencies land in the same trace as
        // the scheduler events.
        let mut slots = BTreeMap::new();
        for (name, scenario) in self.scenarios {
            if slots.contains_key(&name) {
                return Err(ProphetError::DuplicateScenario { name });
            }
            let store = SharedBasisStore::new(self.config.basis_capacity)
                .with_provenance(provenance(&scenario, &registry, &self.config))
                .with_tracer(scheduler.tracer().clone());
            let engine =
                Engine::with_basis_store(&scenario, Arc::clone(&registry), self.config, store)?;
            slots.insert(name, Arc::new(engine));
        }
        Ok(Prophet {
            config: self.config,
            slots,
            scheduler,
        })
    }
}

/// A long-lived Fuzzy Prophet service: named scenarios, one engine — and
/// with it one basis store, probe memo and set of draw ledgers — per
/// scenario, sessions on demand.
///
/// `Prophet` is `Send + Sync`; hand out sessions from as many threads as
/// you like — they contend only on their scenario engine's locks: the
/// basis store's, and the probe memo's and draw ledgers' leaf locks.
pub struct Prophet {
    config: EngineConfig,
    /// Each scenario's one engine, by name: every listing of the scenarios
    /// comes out sorted. Every session and job of a scenario evaluates on
    /// its engine, over its basis store.
    slots: BTreeMap<String, Arc<Engine>>,
    /// The service's long-lived worker pool: every session refresh and
    /// prefetch and every [`Prophet::submit`]ted job runs on it as
    /// priority-interleaved chunks.
    scheduler: Arc<Scheduler>,
}

impl std::fmt::Debug for Prophet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prophet")
            .field("scenarios", &self.scenario_names())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Prophet {
    /// Start configuring a service.
    pub fn builder() -> ProphetBuilder {
        ProphetBuilder::new()
    }

    /// Registered scenario names, sorted.
    pub fn scenario_names(&self) -> Vec<String> {
        self.slots.keys().cloned().collect()
    }

    /// The registered scenario behind `name`.
    pub fn scenario(&self, name: &str) -> ProphetResult<&Scenario> {
        self.slot(name).map(|e| e.scenario())
    }

    /// The service's engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Open an interactive online session on a named scenario. Every
    /// session of one scenario runs on the scenario's engine and shares
    /// its basis store: what one simulates, the others re-map or serve
    /// from cache. The session counts its work as its own
    /// ([`OnlineSession::metrics`]). The session's
    /// refreshes run as high-priority jobs on the service scheduler, its
    /// idle prefetches — the domain neighbours of the slider last
    /// touched, first in first out — as low-priority ones.
    pub fn online(&self, name: &str) -> ProphetResult<OnlineSession> {
        OnlineSession::new(self.engine(name)?, Arc::clone(&self.scheduler))
    }

    /// Submit an asynchronous job — a sweep, a graph refresh, a raw
    /// point batch, or a progressive estimate — and return immediately
    /// with a [`JobHandle`] for progress polling, event streaming,
    /// cancellation, or a blocking [`wait`](JobHandle::wait). A
    /// progressive job naming no output column of its scenario fails here
    /// with [`ProphetError::UnknownColumn`], before anything is queued.
    ///
    /// The job runs on the service's shared [`Scheduler`] as chunks
    /// ordered by `(priority, submission order)`: a
    /// [`Priority::High`](crate::job::Priority::High) job's chunks
    /// overtake a running lower-priority sweep mid-flight instead of
    /// queueing behind it. Each job evaluates on the scenario's one
    /// engine, so its published simulations are reusable by every session
    /// (and vice versa) and it probes through the memo and draw ledgers
    /// every earlier job filled; it counts its work into counters of its
    /// own ([`JobProgress::metrics`](crate::job::JobProgress::metrics)).
    /// Its final answer is bit-identical to the inline reference on a
    /// bare engine:
    /// [`Engine::evaluate_batch`] for a refresh or a point batch,
    /// [`OfflineOptimizer::run`](crate::offline::OfflineOptimizer::run)
    /// for a sweep.
    pub fn submit(&self, spec: JobSpec) -> ProphetResult<JobHandle> {
        let (JobKind::Sweep { scenario }
        | JobKind::Refresh { scenario, .. }
        | JobKind::Points { scenario, .. }
        | JobKind::Progressive { scenario, .. }) = &spec.kind;
        let slot = self.slot(scenario)?;
        let (script, engine) = (slot.scenario().script(), Arc::clone(slot));
        let (pool, priority) = (&self.scheduler, spec.priority);
        Ok(match spec.kind {
            JobKind::Sweep { .. } => {
                pool.submit_sweep(engine, SweepPlan::from_script(script)?, priority)
            }
            JobKind::Refresh { sliders, .. } => {
                let points = GraphPlan::from_script(script)?.refresh_points(&sliders)?;
                pool.submit_batch(engine, points, priority, None)
            }
            JobKind::Points { points, .. } => pool.submit_batch(engine, points, priority, None),
            JobKind::Progressive {
                point,
                column,
                epsilon,
                batch,
                ..
            } => {
                let rule = StopRule::new(&engine, &column, epsilon, batch)?;
                pool.submit_batch(engine, vec![point], priority, Some(rule))
            }
        })
    }

    /// The service's job scheduler (worker/chunk introspection,
    /// [`wait_idle`](Scheduler::wait_idle) for detached jobs).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// One coherent observation of the running service: the flight
    /// recorder's latency histograms (chunk service time, queue wait by
    /// priority, match scans, in-flight store waits) and gauges (queue
    /// depth + watermark, busy workers), plus pool size and the open
    /// in-flight claims summed across every scenario's shared store.
    /// Cheap and non-blocking for job progress — all sources are atomics
    /// or leaf locks. Histograms are all-zero when the service was built
    /// with [`TraceConfig::Off`]. See `docs/OBSERVABILITY.md`.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            trace: self.scheduler.tracer().telemetry(),
            workers_total: self.scheduler.workers(),
            inflight_claims: (self.slots.values())
                .map(|e| e.basis_store().inflight_len())
                .sum(),
        }
    }

    /// Every event in the service's flight-recorder ring, sorted by
    /// timestamp — the input
    /// [`chrome_trace_json`](crate::obs::chrome_trace_json) expects.
    /// Empty under [`TraceConfig::Off`]; bounded by the configured ring
    /// capacity (oldest events overwritten first).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.scheduler.tracer().events()
    }

    /// The named scenario's engine, the one its sessions and jobs run on
    /// (for tests and callers that drive [`Engine::evaluate`] directly:
    /// inline, counting into [`Engine::metrics`]).
    pub fn engine(&self, name: &str) -> ProphetResult<Arc<Engine>> {
        self.slot(name).map(Arc::clone)
    }

    /// Number of basis entries currently shared by `name`'s sessions.
    pub fn basis_len(&self, name: &str) -> ProphetResult<usize> {
        self.slot(name).map(|e| e.basis_len())
    }

    /// Cross-session counters of `name`'s shared store: fingerprint probe
    /// hits/misses and in-flight waits (evaluations that reused another
    /// session's concurrent simulation instead of duplicating it).
    pub fn basis_stats(&self, name: &str) -> ProphetResult<StoreStatsSnapshot> {
        self.slot(name).map(|e| e.basis_store().stats_snapshot())
    }

    /// Every scenario's shared-store counters in one call, sorted by
    /// scenario name — the operator's poll-everything endpoint (no more
    /// iterating [`Prophet::scenario_names`] + [`Prophet::basis_stats`]).
    pub fn basis_stats_all(&self) -> Vec<(String, StoreStatsSnapshot)> {
        self.slots
            .iter()
            .map(|(name, e)| (name.clone(), e.basis_store().stats_snapshot()))
            .collect()
    }

    /// Drop a scenario's shared basis entries (forces cold starts
    /// everywhere), and its recipe memo with them: the memo's entries are
    /// the bodies the store's mapped records shared, one per recipe, so
    /// they go with the store instead of keeping its sources alive. The
    /// engine's probe memo and draw ledgers stay: they are exact for the
    /// scenario whatever the store holds.
    pub fn clear_basis(&self, name: &str) -> ProphetResult<()> {
        self.slot(name).map(|e| e.clear_basis())
    }

    /// Snapshot `name`'s shared basis store to `path`, checksummed (see
    /// [`SharedBasisStore::snapshot_bytes`]) and atomically: a failed
    /// write leaves the previous file as it was. Returns the number of
    /// entries written. The header names the world the samples were drawn
    /// in — a hash of the scenario's script, the root seed, the probe
    /// seeds, and every registered model's name and `model_tag`. A
    /// simulated entry is written as its samples and fingerprints; a
    /// mapped one — a recipe record — as its recipe (its source's stamp
    /// and per-column mappings) and its per-column moments while that
    /// source is still stored, else as its samples. A later
    /// [`Prophet::load_basis`] (on this or a freshly built service) warms
    /// the store from disk instead of re-simulating its basis population.
    pub fn save_basis(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> ProphetResult<usize> {
        Ok(self.slot(name)?.basis_store().save_to(path)?)
    }

    /// Restore `name`'s shared basis store from a [`Prophet::save_basis`]
    /// snapshot. Returns the number of restored entries. The load
    /// rebuilds nothing ([`Engine::restore_basis`]): mapped entries arrive
    /// as recipe records with the moments the file holds, so a sweep or a GRAPH
    /// render answers from them at once, and `name`'s scenario rebuilds
    /// an entry's samples — the warm store's bits — only when they are
    /// read. A snapshot drawn in another world — another script, root
    /// seed, probe seed set, or model tag — fails with
    /// [`SnapshotError::WrongWorld`]; corrupt or truncated snapshots, and
    /// recipes the scenario could not rebuild, fail with the matching
    /// [`ProphetError::Snapshot`] variant; every failure comes before any
    /// store state changes. A successful restore cancels in-flight claims
    /// (their owners' results are discarded) and resets the store's
    /// counters, exactly like [`Prophet::clear_basis`] followed by
    /// replaying the snapshot; like it, it clears the recipe memo — the
    /// restored records of a recipe share the one body the load builds —
    /// and leaves the probe memo and draw ledgers alone.
    pub fn load_basis(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> ProphetResult<usize> {
        let engine = self.slot(name)?;
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        engine.restore_basis(&bytes)
    }

    fn slot(&self, name: &str) -> ProphetResult<&Arc<Engine>> {
        self.slots
            .get(name)
            .ok_or_else(|| ProphetError::unknown_scenario(name, self.scenario_names()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_mc::ParamPoint;
    use prophet_models::demo_registry;

    fn demo_service(worlds: usize) -> Prophet {
        Prophet::builder()
            .scenario("figure2", Scenario::figure2().unwrap())
            .registry(demo_registry())
            .config(EngineConfig {
                worlds_per_point: worlds,
                ..EngineConfig::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_round_trip() {
        let p = demo_service(16);
        assert_eq!(p.scenario_names(), ["figure2"]);
        assert_eq!(p.config().worlds_per_point, 16);
        assert_eq!(p.scenario("figure2").unwrap().script().params.len(), 4);
        assert_eq!(p.basis_len("figure2").unwrap(), 0);
    }

    #[test]
    fn unknown_scenario_lists_registered_names() {
        let p = demo_service(8);
        match p.online("nope") {
            Err(ProphetError::UnknownScenario { name, available }) => {
                assert_eq!(name, "nope");
                assert_eq!(available, ["figure2"]);
            }
            other => panic!("expected UnknownScenario, got {other:?}"),
        }
        assert!(p.submit(JobSpec::sweep("nope")).is_err());
        assert!(p.engine("nope").is_err());
        assert!(p.basis_len("nope").is_err());
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let err = Prophet::builder()
            .scenario("a", Scenario::figure2().unwrap())
            .scenario("a", Scenario::figure2().unwrap())
            .build();
        assert!(
            matches!(err, Err(ProphetError::DuplicateScenario { ref name }) if name == "a"),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_config_is_rejected_at_build() {
        let err = Prophet::builder().worlds_per_point(0).build();
        assert!(
            matches!(err, Err(ProphetError::InvalidConfig(_))),
            "{err:?}"
        );
    }

    #[test]
    fn scenario_sql_parses_inline() {
        let p = Prophet::builder()
            .scenario_sql(
                "toy",
                "DECLARE PARAMETER @x AS SET (1,2);\nSELECT @x AS y INTO r;",
            )
            .unwrap()
            .registry(demo_registry())
            .build()
            .unwrap();
        let engine = p.engine("toy").unwrap();
        let point = ParamPoint::from_pairs([("x", 2i64)]);
        assert_eq!(engine.expect(&point, "y").unwrap(), 2.0);
        // no GRAPH directive → online mode unavailable, typed
        assert!(matches!(
            p.online("toy"),
            Err(ProphetError::MissingGraphDirective)
        ));
    }

    #[test]
    fn sessions_share_one_basis_store_per_scenario() {
        let p = demo_service(24);
        let mut first = p.online("figure2").unwrap();
        let cold = first.refresh().unwrap();
        assert!(cold.weeks_simulated > 0);
        let shared_after_first = p.basis_len("figure2").unwrap();
        assert!(
            shared_after_first > 0,
            "first session populated the shared store"
        );

        // The second session's very first render is fully reused.
        let mut second = p.online("figure2").unwrap();
        let warm = second.refresh().unwrap();
        assert_eq!(warm.weeks_simulated, 0, "{warm:?}");
        assert_eq!(warm.weeks_reused(), warm.weeks_total);
        assert!(
            first
                .engine()
                .basis_store()
                .shares_storage_with(second.engine().basis_store()),
            "both sessions must hold handles onto one store"
        );
    }

    #[test]
    fn offline_and_online_share_the_store_too() {
        let p = Prophet::builder()
            .scenario_sql("pricing", prophet_models::scenarios::PRICING_WHATIF)
            .unwrap()
            .registry(prophet_models::full_registry())
            .worlds_per_point(8)
            .build()
            .unwrap();
        let mut online = p.online("pricing").unwrap();
        let rendered = online.refresh().unwrap().weeks_total;
        // The sweep's grid holds the session's graph: those points are
        // served from the store the session filled…
        let sweep = p
            .submit(JobSpec::sweep("pricing"))
            .unwrap()
            .wait()
            .unwrap()
            .into_sweep()
            .unwrap();
        assert_eq!(sweep.metrics.points_cached, rendered as u64);
        // …and every other setting of the session's slider is served
        // from what the sweep published.
        let moved = online.set_param("week", 4).unwrap();
        assert_eq!(moved.weeks_cached, moved.weeks_total, "{moved:?}");
        p.clear_basis("pricing").unwrap();
        assert_eq!(online.engine().basis_len(), 0);
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Prophet>();
    }

    #[test]
    fn concurrent_sessions_from_multiple_threads() {
        let p = std::sync::Arc::new(demo_service(8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = std::sync::Arc::clone(&p);
                std::thread::spawn(move || {
                    let mut s = p.online("figure2").unwrap();
                    s.refresh().unwrap().weeks_total
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 53);
        }
        assert!(p.basis_len("figure2").unwrap() > 0);
    }
}
