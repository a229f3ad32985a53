//! The batched evaluation executor: the paper's Figure-1 cycle, pipelined
//! over a whole batch of parameter points.
//!
//! The Figure-1 loop — Guide proposes an instance, the Storage Manager is
//! probed, a fingerprint hit re-maps stored samples, a miss runs the Monte
//! Carlo simulation whose results feed back into the store — was executed
//! one point at a time by `Engine::evaluate`. Offline sweeps and online
//! graph refreshes, however, always know dozens of points up front; this
//! module makes the *batch* the unit of work and maps each Figure-1 stage
//! onto a batch-wide phase:
//!
//! | Figure-1 stage           | batch phase                                 |
//! |--------------------------|---------------------------------------------|
//! | Guide emits instances    | callers submit `&[ParamPoint]` (deduplicated)|
//! | Storage Manager lookup   | *plan*: per-point exact-cache check plus an  |
//! |                          | in-flight claim ([`SharedBasisStore::try_claim`]) |
//! | fingerprint probe        | *probe*: claimed points fingerprint in       |
//! |                          | parallel across the worker pool              |
//! | correlation search       | *match*: one snapshot of the store's         |
//! |                          | candidate sources                            |
//! |                          | ([`SharedBasisStore::scan_snapshot`]), then  |
//! |                          | every probe scans it independently, in       |
//! |                          | parallel, no lock held — candidates whose    |
//! |                          | fingerprint-summary bound cannot beat the    |
//! |                          | probe's best match are pruned                |
//! |                          | (`EngineConfig::match_index`)                |
//! | re-map on a hit          | *remap*: fused with the match — the worker   |
//! |                          | that finds a probe's source reconstructs its |
//! |                          | mapped samples                               |
//! | simulate on a miss       | *simulate*: misses partitioned across the    |
//! |                          | scoped worker pool — point-level             |
//! |                          | parallelism, not just world-level            |
//! | results feed the store   | *publish*: completions insert basis entries  |
//! |                          | and wake cross-session waiters               |
//!
//! Two properties the phases preserve:
//!
//! * **Work deduplication.** The plan phase claims each point through the
//!   shared store's in-flight table, so N sessions evaluating the same cold
//!   point perform exactly one simulation — the other N−1 block on the
//!   owner's [`WaitHandle`] and reuse its published samples (counted as
//!   `inflight_waits`). Within one batch, duplicate points collapse to a
//!   single evaluation, and work counters count unique points.
//! * **Determinism.** Simulation seeds depend only on `(root seed, world,
//!   point)`, candidate scanning orders sources by insertion stamp, and
//!   phase results are published in batch order — so the samples, the
//!   `worlds_simulated` count, and the chosen mapping sources are all
//!   independent of `threads`.
//!
//! Phase wall-clock lands in `EngineMetrics::probe_nanos` (probe + match +
//! remap + publishing the hits) and `EngineMetrics::sim_nanos` (simulate +
//! publishing the misses), giving sweeps a true probe-vs-simulation split
//! as the caller experiences it; `match_scan_nanos` / `remap_nanos` (CPU
//! sums across workers) and `publish_nanos` (caller wall) split them
//! further.
//!
//! This module is the *blocking reference tier*: its parallel phases fan
//! out on per-call `std::thread::scope` pools and the call seizes the
//! caller until the batch completes. Engines handed out by the
//! [`Prophet`](crate::service::Prophet) service run the same pipeline
//! through the service's long-lived [`scheduler`](crate::scheduler)
//! instead — the phases become priority-interleaved pool chunks, and this
//! path remains as the differential baseline (`tests/jobs.rs` proves the
//! two produce bit-identical results), exactly as the scalar executor
//! backs the vectorized tier and the exhaustive scan backs the match
//! index.
//!
//! [`SharedBasisStore::try_claim`]: prophet_mc::SharedBasisStore::try_claim
//! [`SharedBasisStore::scan_snapshot`]: prophet_mc::SharedBasisStore::scan_snapshot
//! [`WaitHandle`]: prophet_mc::WaitHandle

use std::collections::HashMap;
use std::sync::Arc;

use prophet_fingerprint::{Fingerprint, Mapping};
use prophet_mc::{
    BasisHit, ColumnSamples, InflightGuard, ParamPoint, SampleSet, ScanSnapshot, ScanWork,
    TryClaim, WaitHandle,
};

use crate::engine::{Engine, EvalOutcome};
use crate::error::ProphetResult;
use crate::metrics::Stopwatch;

impl Engine {
    /// Evaluate the scenario at a batch of parameter points, returning one
    /// `(samples, outcome)` per input point, in input order.
    ///
    /// Duplicate points are evaluated once and their result shared. Points
    /// already being simulated by a concurrent session are not duplicated:
    /// this call blocks on the in-flight owner and reuses its result
    /// (outcome [`EvalOutcome::Cached`], counted in
    /// `EngineMetrics::inflight_waits`).
    pub fn evaluate_batch(
        &self,
        points: &[ParamPoint],
    ) -> ProphetResult<Vec<(SampleSet, EvalOutcome)>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }

        // ---- dedupe: unique points in first-seen order.
        let (unique, slot_of) = dedupe_points(points);

        let worlds_per_point = self.config().worlds_per_point;
        let threads = self.config().threads.max(1);
        let use_fingerprints =
            self.config().fingerprints_enabled && !self.stochastic_columns().is_empty();
        let store = self.basis_store();

        // ---- plan: exact-cache check + in-flight claim per unique point.
        let mut results: Vec<Option<(SampleSet, EvalOutcome)>> =
            (0..unique.len()).map(|_| None).collect();
        let mut guards: Vec<Option<InflightGuard>> = (0..unique.len()).map(|_| None).collect();
        let mut waits: Vec<Option<WaitHandle>> = (0..unique.len()).map(|_| None).collect();
        let mut owned: Vec<usize> = Vec::new();
        for (i, point) in unique.iter().enumerate() {
            match store.try_claim(point, worlds_per_point) {
                TryClaim::Ready { samples, .. } => {
                    self.bump(|m| m.points_cached += 1);
                    results[i] = Some((self.to_sample_set(point, samples), EvalOutcome::Cached));
                }
                TryClaim::Owner(guard) => {
                    guards[i] = Some(guard);
                    owned.push(i);
                }
                TryClaim::Pending(handle) => waits[i] = Some(handle),
            }
        }

        // ---- probe + match + remap (the fingerprint phase).
        let mut probes: Vec<Option<HashMap<String, Fingerprint>>> =
            (0..unique.len()).map(|_| None).collect();
        let mut to_simulate: Vec<usize> = Vec::new();
        if use_fingerprints && !owned.is_empty() {
            let phase = Stopwatch::start();
            let owned_points: Vec<&ParamPoint> = owned.iter().map(|&i| &unique[i]).collect();
            let probe_results =
                parallel_map(&owned_points, threads, |p| self.probe_fingerprints(p));
            let mut owned_probes: Vec<(usize, HashMap<String, Fingerprint>)> =
                Vec::with_capacity(owned.len());
            for (&i, r) in owned.iter().zip(probe_results) {
                owned_probes.push((i, r?));
            }
            self.bump(|m| m.batch_probes += owned.len() as u64);

            // Match + remap, fused per probe: every probe scans the same
            // snapshot of the store (taken here, after the whole probe
            // phase — no probe ever matches a sibling of its batch) and a
            // hit re-maps on the worker that found it.
            let snapshot = self.scan_snapshot();
            let fused = parallel_map(&owned_probes, threads, |(i, probe)| {
                self.match_and_remap(&snapshot, &unique[*i], probe)
            });
            self.record_scans(&snapshot, fused.iter().map(|f| f.work));

            // Publish hits in batch order.
            let publish = Stopwatch::start();
            for ((i, probe), matched) in owned_probes.into_iter().zip(fused) {
                match matched.outcome? {
                    Some(hit) => {
                        let guard = guards[i]
                            .take()
                            .expect("invariant: every hit point holds its claim guard");
                        guard.complete(probe, Arc::clone(&hit.samples), hit.worlds, false);
                        self.bump(|m| m.points_mapped += 1);
                        results[i] = Some((
                            self.to_sample_set(&unique[i], hit.samples),
                            EvalOutcome::Mapped {
                                from: hit.source,
                                exact: hit.exact,
                            },
                        ));
                    }
                    None => {
                        probes[i] = Some(probe);
                        to_simulate.push(i);
                    }
                }
            }
            self.bump(|m| {
                m.publish_nanos += publish.elapsed_nanos();
                m.probe_nanos += phase.elapsed_nanos();
            });
        } else {
            to_simulate = owned;
        }

        // ---- simulate misses across the worker pool. With at least
        // `threads` misses, point-level parallelism saturates the pool with
        // single-threaded simulations; with fewer misses than threads,
        // each point instead world-parallelizes sequentially so no worker
        // sits idle. The world→sample assignment is seed-based, so every
        // sample and counter is identical under either schedule.
        if !to_simulate.is_empty() {
            let phase = Stopwatch::start();
            let miss_points: Vec<&ParamPoint> = to_simulate.iter().map(|&i| &unique[i]).collect();
            let simulated: Vec<ProphetResult<_>> = if miss_points.len() < threads {
                miss_points
                    .iter()
                    .map(|p| self.simulate_full(p, true))
                    .collect()
            } else {
                parallel_map(&miss_points, threads, |p| self.simulate_full(p, false))
            };
            let publish = Stopwatch::start();
            for (&i, sim) in to_simulate.iter().zip(simulated) {
                let samples = sim?;
                let guard = guards[i]
                    .take()
                    .expect("invariant: every missed point holds its claim guard");
                guard.complete(
                    probes[i].take().unwrap_or_default(),
                    Arc::clone(&samples),
                    worlds_per_point,
                    true,
                );
                self.bump(|m| m.points_simulated += 1);
                results[i] = Some((
                    self.to_sample_set(&unique[i], samples),
                    EvalOutcome::Simulated,
                ));
            }
            self.bump(|m| {
                m.publish_nanos += publish.elapsed_nanos();
                m.sim_nanos += phase.elapsed_nanos();
            });
        }

        // ---- resolve cross-session waits last, so our own publications
        // are already out (two sessions waiting on each other's points
        // therefore cannot deadlock).
        for i in 0..unique.len() {
            if let Some(handle) = waits[i].take() {
                results[i] = Some(self.resolve_wait(&unique[i], handle)?);
            }
        }

        Ok(slot_of
            .into_iter()
            .map(|i| {
                results[i]
                    .clone()
                    .expect("invariant: every unique point resolves to a result")
            })
            .collect())
    }

    /// Block on another session's in-flight simulation of `point`. If the
    /// owner abandons it (error, or a store clear mid-flight), or publishes
    /// fewer worlds than this engine requires (shared store, differing
    /// `worlds_per_point`), re-claim: becoming the owner means
    /// re-simulating at this engine's own depth. (Crate-visible: the
    /// scheduled pipeline in [`crate::scheduler`] resolves its waits
    /// through the same path.)
    pub(crate) fn resolve_wait(
        &self,
        point: &ParamPoint,
        handle: WaitHandle,
    ) -> ProphetResult<(SampleSet, EvalOutcome)> {
        let mut handle = Some(handle);
        loop {
            if let Some(h) = handle.take() {
                if let Some((samples, worlds)) = h.wait() {
                    if worlds >= self.config().worlds_per_point {
                        self.bump(|m| {
                            m.points_cached += 1;
                            m.inflight_waits += 1;
                        });
                        return Ok((self.to_sample_set(point, samples), EvalOutcome::Cached));
                    }
                    // Under-provisioned publish: fall through and re-claim,
                    // exactly as the Ready path's min-worlds filter would.
                }
            }
            match self
                .basis_store()
                .try_claim(point, self.config().worlds_per_point)
            {
                TryClaim::Ready { samples, .. } => {
                    self.bump(|m| m.points_cached += 1);
                    return Ok((self.to_sample_set(point, samples), EvalOutcome::Cached));
                }
                TryClaim::Pending(h) => handle = Some(h),
                TryClaim::Owner(guard) => return self.run_owner(point, guard),
            }
        }
    }

    // ------------------------------------------------ match-scan primitives
    // (shared by this blocking pipeline, the scheduled one in
    // `crate::scheduler`, and the single-point paths below — one scan
    // implementation, three runners)

    /// Snapshot the basis store's candidate sources for this engine's
    /// match scans (its stochastic columns, detector and `match_index`
    /// mode). The only step of a scan that touches the store's locks;
    /// timed into `match_scan_nanos`.
    pub(crate) fn scan_snapshot(&self) -> ScanSnapshot {
        let start = Stopwatch::start();
        let snapshot = self.basis_store().scan_snapshot(
            self.stochastic_columns(),
            &self.config().detector,
            self.config().match_index,
        );
        self.bump(|m| {
            m.match_scan_nanos += start.elapsed_nanos();
            m.fingerprint_time += start.elapsed();
        });
        snapshot
    }

    /// The per-probe step of the fingerprint phase: scan `snapshot` for
    /// the best source of `probe` and, on a hit, re-map it onto `point`.
    /// A pure function of its arguments, so a batch runs it for every
    /// probe in parallel. Self-times the scan into `match_scan_nanos` (the
    /// remap self-times into `remap_nanos`).
    pub(crate) fn match_and_remap(
        &self,
        snapshot: &ScanSnapshot,
        point: &ParamPoint,
        probe: &HashMap<String, Fingerprint>,
    ) -> Matched {
        let start = Stopwatch::start();
        let scan = snapshot.scan_probe(probe);
        let scan_nanos = start.elapsed_nanos();
        self.bump(|m| {
            m.match_scan_nanos += scan_nanos;
            m.fingerprint_time += start.elapsed();
        });
        Matched {
            work: scan.work,
            scan_nanos,
            outcome: scan.hit.map(|hit| self.remap_hit(point, hit)).transpose(),
        }
    }

    fn remap_hit(&self, point: &ParamPoint, hit: BasisHit) -> ProphetResult<MappedHit> {
        Ok(MappedHit {
            samples: self.remap_samples(point, &hit.samples, &hit.mappings, hit.worlds)?,
            worlds: hit.worlds,
            exact: hit.mappings.values().all(Mapping::is_exact),
            source: hit.source,
        })
    }

    /// Close a batch's scans: fold the probes' work into
    /// `candidates_scanned` / `candidates_pruned` and the store's hit/miss
    /// ledger.
    pub(crate) fn record_scans(
        &self,
        snapshot: &ScanSnapshot,
        work: impl IntoIterator<Item = ScanWork>,
    ) {
        let scan = self.basis_store().record_scans(snapshot, work);
        self.bump(|m| {
            m.candidates_scanned += scan.candidates_scanned;
            m.candidates_pruned += scan.candidates_pruned;
        });
    }

    /// Probe one point's fingerprints, scan for a source and re-map a hit
    /// — the fingerprint phase for a batch of one, with the batched
    /// phase's metric accounting. Shared by [`Engine::run_owner`] and the
    /// progressive estimator in [`crate::session`].
    pub(crate) fn probe_and_map_one(
        &self,
        point: &ParamPoint,
    ) -> ProphetResult<(HashMap<String, Fingerprint>, Option<MappedHit>)> {
        let probes = self.probe_fingerprints(point)?;
        let snapshot = self.scan_snapshot();
        let matched = self.match_and_remap(&snapshot, point, &probes);
        self.record_scans(&snapshot, [matched.work]);
        Ok((probes, matched.outcome?))
    }

    /// Sequential Figure-1 cycle for one owned point — the retry path when
    /// a waited-on simulation was cancelled under us.
    fn run_owner(
        &self,
        point: &ParamPoint,
        guard: InflightGuard,
    ) -> ProphetResult<(SampleSet, EvalOutcome)> {
        let use_fingerprints =
            self.config().fingerprints_enabled && !self.stochastic_columns().is_empty();
        let mut probes = HashMap::new();
        if use_fingerprints {
            let phase = Stopwatch::start();
            let (point_probes, hit) = self.probe_and_map_one(point)?;
            probes = point_probes;
            if let Some(hit) = hit {
                guard.complete(probes, Arc::clone(&hit.samples), hit.worlds, false);
                self.bump(|m| {
                    m.points_mapped += 1;
                    m.probe_nanos += phase.elapsed_nanos();
                });
                return Ok((
                    self.to_sample_set(point, hit.samples),
                    EvalOutcome::Mapped {
                        from: hit.source,
                        exact: hit.exact,
                    },
                ));
            }
            self.bump(|m| m.probe_nanos += phase.elapsed_nanos());
        }
        let phase = Stopwatch::start();
        let samples = self.simulate_full(point, true)?;
        guard.complete(
            probes,
            Arc::clone(&samples),
            self.config().worlds_per_point,
            true,
        );
        self.bump(|m| {
            m.points_simulated += 1;
            m.sim_nanos += phase.elapsed_nanos();
        });
        Ok((self.to_sample_set(point, samples), EvalOutcome::Simulated))
    }
}

/// A fingerprint hit re-mapped onto the queried point, ready to publish:
/// the same `samples` allocation goes to the basis store and the reply.
pub(crate) struct MappedHit {
    pub(crate) samples: Arc<ColumnSamples>,
    /// Worlds backing the source's (and therefore the mapped) samples.
    pub(crate) worlds: usize,
    /// The basis point the mapping came from.
    pub(crate) source: ParamPoint,
    /// Whether every column's mapping was exact (identity/offset).
    pub(crate) exact: bool,
}

/// One probe's trip through [`Engine::match_and_remap`].
pub(crate) struct Matched {
    /// The scan's accounting, for [`Engine::record_scans`].
    pub(crate) work: ScanWork,
    /// Nanoseconds the scan took (the tracer's match-scan histogram).
    pub(crate) scan_nanos: u64,
    /// `Ok(None)` is a miss; an `Err` is a hit whose re-map failed.
    pub(crate) outcome: ProphetResult<Option<MappedHit>>,
}

/// Collapse a point list to unique points in first-seen order plus, per
/// input slot, the index of its unique point. Shared by this blocking
/// pipeline and the scheduled one ([`crate::scheduler`]), so both agree on
/// what "the batch's unique points" means.
pub(crate) fn dedupe_points(points: &[ParamPoint]) -> (Vec<ParamPoint>, Vec<usize>) {
    let mut unique: Vec<ParamPoint> = Vec::new();
    let mut index_of: HashMap<&ParamPoint, usize> = HashMap::with_capacity(points.len());
    let slot_of: Vec<usize> = points
        .iter()
        .map(|p| {
            *index_of.entry(p).or_insert_with(|| {
                unique.push(p.clone());
                unique.len() - 1
            })
        })
        .collect();
    (unique, slot_of)
}

/// Apply `f` to every item, fanning out across up to `threads` scoped
/// workers (contiguous chunks, results in input order). Single-item or
/// single-thread calls run inline with no spawn overhead.
fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| scope.spawn(move || slice.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("invariant: executor workers do not panic"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::scenario::Scenario;
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
    fn empty_batch_is_a_no_op() {
        let e = engine(small_config());
        assert!(e.evaluate_batch(&[]).unwrap().is_empty());
        assert_eq!(e.metrics().points_total(), 0);
    }

    #[test]
    fn duplicate_points_in_one_batch_are_evaluated_once() {
        let e = engine(small_config());
        let p = demo_point(10, 16, 36, 12);
        let results = e.evaluate_batch(&[p.clone(), p.clone(), p]).unwrap();
        assert_eq!(results.len(), 3);
        for (samples, outcome) in &results {
            assert_eq!(*outcome, EvalOutcome::Simulated);
            assert_eq!(samples.samples("demand"), results[0].0.samples("demand"));
        }
        let m = e.metrics();
        assert_eq!(m.points_simulated, 1, "duplicates collapse to one");
        assert_eq!(m.points_total(), 1);
        assert_eq!(m.worlds_simulated, 60);
    }

    #[test]
    fn batch_results_keep_input_order() {
        let e = engine(small_config());
        let a = demo_point(5, 16, 36, 12);
        let b = demo_point(50, 0, 4, 44);
        let results = e
            .evaluate_batch(&[a.clone(), b.clone(), a.clone()])
            .unwrap();
        assert_eq!(results[0].0.point(), &a);
        assert_eq!(results[1].0.point(), &b);
        assert_eq!(results[2].0.point(), &a);
    }

    #[test]
    fn batch_phase_clocks_are_recorded() {
        let e = engine(small_config());
        let results = e
            .evaluate_batch(&[demo_point(5, 16, 36, 12), demo_point(5, 16, 36, 36)])
            .unwrap();
        assert_eq!(results.len(), 2);
        let m = e.metrics();
        assert_eq!(m.batch_probes, 2, "both cold points probed in batch");
        assert!(m.probe_nanos > 0, "probe phase wall-clock recorded");
        assert!(m.sim_nanos > 0, "simulate phase wall-clock recorded");
    }
}
