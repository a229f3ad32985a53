//! The traced run's pipeline replay.
//!
//! A seeded eight-batch sample of the workload's points is pushed through
//! the evaluation pipeline using only the public layer calls — claim →
//! select → fingerprint → scan → apply-mapping + derived eval → simulate →
//! publish — with a span around every call. The same batches go through
//! `Engine::evaluate_batch` on a twin store; the replayed samples must be
//! bit-identical to the engine's, and the share of the engine's wall that
//! no layer call of the replay covers is reported as
//! `core.engine.unattributed_share`.
//!
//! The parallel phases fan out over scoped threads in the executor's own
//! chunking, so layer intervals overlap here the way they do inside
//! `evaluate_batch` and the covered time is a critical path, not a CPU sum.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fuzzy_prophet::{Engine, EngineConfig, EvalOutcome, Scenario};
use prophet_data::Value;
use prophet_fingerprint::Fingerprint;
use prophet_mc::{
    simulate_point_columnar, BasisHit, ColumnSamples, InflightGuard, ParamPoint, SharedBasisStore,
    TryClaim,
};
use prophet_sql::columnar::{evaluate_select_columns, to_f64_samples};
use prophet_sql::executor::{eval_expr, EvalContext};
use prophet_sql::Script;
use prophet_vg::rng::{Rng64, SeedSequence};
use prophet_vg::{SeedManager, VgRegistry};

use crate::inputs::{self, Plan};
use crate::spans::{Leaf, Recorder};
use crate::stats::Report;

/// The layer calls of the pipeline, in pipeline order.
pub const LAYERS: [&str; 8] = [
    "claim",
    "select",
    "fingerprint",
    "scan",
    "apply_mapping",
    "derived_eval",
    "simulate",
    "publish",
];

/// Batches replayed per workload, after as many warm-up batches.
const BATCHES: usize = 8;

/// How a replayed point was served — `EvalOutcome` without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Cached,
    Mapped,
    Simulated,
}

impl From<&EvalOutcome> for Served {
    fn from(outcome: &EvalOutcome) -> Self {
        match outcome {
            EvalOutcome::Cached => Served::Cached,
            EvalOutcome::Mapped { .. } => Served::Mapped,
            EvalOutcome::Simulated => Served::Simulated,
        }
    }
}

/// Derived columns never draw: consulting this generator is a bug.
pub struct NoRandomness;

impl Rng64 for NoRandomness {
    fn next_u64(&mut self) -> u64 {
        unreachable!("derived columns must not consume randomness")
    }
}

/// Layer intervals measured on one thread against the recorder's clock.
struct Stamps {
    epoch: Instant,
    leaves: Vec<Leaf>,
}

impl Stamps {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        self.leaves
            .push((name, start, self.epoch.elapsed().as_nanos() as u64));
        out
    }
}

/// Apply `f` to every item across up to `threads` scoped workers
/// (contiguous chunks, results in input order — the executor's own
/// fan-out), attaching every worker's layer intervals to the open span.
fn fan_out<T: Sync, R: Send>(
    rec: &mut Recorder,
    batch: u64,
    items: &[T],
    threads: usize,
    f: impl Fn(&T, &mut Stamps) -> R + Sync,
) -> Vec<R> {
    let epoch = rec.epoch();
    let workers = threads.min(items.len());
    if workers <= 1 {
        let mut stamps = Stamps {
            epoch,
            leaves: Vec::new(),
        };
        let out = items.iter().map(|item| f(item, &mut stamps)).collect();
        rec.attach(0, batch, &stamps.leaves);
        return out;
    }
    let chunk = items.len().div_ceil(workers);
    // lint:allow(thread-spawn): mirrors the blocking executor's per-phase fan-out so replayed layer intervals overlap as they do inside evaluate_batch
    let per_worker: Vec<(Vec<R>, Vec<Leaf>)> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut stamps = Stamps {
                        epoch,
                        leaves: Vec::new(),
                    };
                    let out: Vec<R> = slice.iter().map(|item| f(item, &mut stamps)).collect();
                    (out, stamps.leaves)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay workers do not panic"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for (i, (results, leaves)) in per_worker.into_iter().enumerate() {
        rec.attach(i as u32 + 1, batch, &leaves);
        out.extend(results);
    }
    out
}

/// Everything the layer calls need, assembled from public pieces the way
/// `Engine::with_basis_store` assembles them.
struct Pipeline<'a> {
    script: &'a Script,
    registry: &'a VgRegistry,
    config: EngineConfig,
    seeds: SeedManager,
    probe_seeds: SeedSequence,
    stochastic: Vec<String>,
    worlds: Vec<u64>,
    store: SharedBasisStore,
}

impl<'a> Pipeline<'a> {
    fn new(
        script: &'a Script,
        registry: &'a VgRegistry,
        config: EngineConfig,
        store: SharedBasisStore,
    ) -> Self {
        let stochastic = script
            .select
            .items
            .iter()
            .filter(|item| {
                item.expr
                    .referenced_calls()
                    .iter()
                    .any(|(name, _)| registry.get(name).is_ok())
            })
            .map(|item| item.alias.clone())
            .collect();
        Pipeline {
            script,
            registry,
            config,
            seeds: SeedManager::new(config.root_seed),
            probe_seeds: SeedSequence::fingerprint_default(config.fingerprint.length),
            stochastic,
            worlds: (0..config.worlds_per_point as u64).collect(),
            store,
        }
    }

    /// select + fingerprint: one columnar walk over the probe seed block,
    /// then one fingerprint per stochastic column.
    fn probe(&self, point: &ParamPoint, stamps: &mut Stamps) -> HashMap<String, Fingerprint> {
        let params = point.to_value_map();
        let (columns, _) = stamps.time("select", || {
            evaluate_select_columns(
                &self.script.select,
                self.registry,
                &params,
                self.seeds,
                self.probe_seeds.seeds(),
            )
            .expect("probe walk succeeds")
        });
        stamps.time("fingerprint", || {
            columns
                .iter()
                .filter(|(name, _)| self.stochastic.contains(name))
                .map(|(name, column)| {
                    let values = to_f64_samples(column).expect("probe columns are numeric");
                    (
                        name.clone(),
                        Fingerprint::compute_block_with_seeds(&self.probe_seeds, |_| values),
                    )
                })
                .collect()
        })
    }

    /// apply-mapping + derived eval: map the stochastic columns, then
    /// recompute the derived ones world by world on the scalar path.
    fn remap(&self, point: &ParamPoint, hit: &BasisHit, stamps: &mut Stamps) -> ColumnSamples {
        let mut out: ColumnSamples = stamps.time("apply_mapping", || {
            self.stochastic
                .iter()
                .map(|col| {
                    (
                        col.clone(),
                        hit.mappings[col].apply_samples(&hit.samples[col]),
                    )
                })
                .collect()
        });
        stamps.time("derived_eval", || {
            let params = point.to_value_map();
            let items = &self.script.select.items;
            for item in items.iter().filter(|i| !self.stochastic.contains(&i.alias)) {
                out.insert(item.alias.clone(), Vec::with_capacity(hit.worlds));
            }
            for w in 0..hit.worlds {
                let mut rng = NoRandomness;
                let mut ctx = EvalContext::new(self.registry, &params, &mut rng);
                for item in items {
                    if self.stochastic.contains(&item.alias) {
                        ctx.bind_alias(&item.alias, Value::Float(out[&item.alias][w]));
                    } else {
                        let v = eval_expr(&item.expr, &mut ctx).expect("derived item evaluates");
                        let x = match &v {
                            Value::Null => f64::NAN,
                            v => v.as_f64().expect("derived items are numeric"),
                        };
                        ctx.bind_alias(&item.alias, v);
                        out.get_mut(&item.alias)
                            .expect("derived columns are pre-inserted")
                            .push(x);
                    }
                }
            }
        });
        out
    }

    fn simulate(&self, point: &ParamPoint, stamps: &mut Stamps) -> ColumnSamples {
        stamps.time("simulate", || {
            let (set, _) = simulate_point_columnar(
                &self.script.select,
                self.registry,
                &self.seeds,
                point,
                &self.worlds,
                true,
            )
            .expect("simulation succeeds");
            set.columns()
                .iter()
                .map(|c| {
                    let samples = set.samples(c).expect("column exists by construction");
                    (c.clone(), samples.to_vec())
                })
                .collect()
        })
    }

    /// One batch through the pipeline, in `evaluate_batch`'s order: every
    /// probe matches against the store as it stood at batch start; hits
    /// publish before misses, both in batch order.
    fn run_batch(
        &self,
        rec: &mut Recorder,
        batch: u64,
        points: &[ParamPoint],
    ) -> Vec<(Arc<ColumnSamples>, Served)> {
        let threads = self.config.threads.max(1);
        let worlds = self.config.worlds_per_point;
        let mut results: Vec<Option<(Arc<ColumnSamples>, Served)>> = vec![None; points.len()];
        let mut guards: Vec<Option<InflightGuard>> = (0..points.len()).map(|_| None).collect();
        let mut owned: Vec<usize> = Vec::new();
        rec.scope("claim", batch, |_| {
            for (i, point) in points.iter().enumerate() {
                match self.store.try_claim(point, worlds) {
                    TryClaim::Ready { samples, .. } => results[i] = Some((samples, Served::Cached)),
                    TryClaim::Owner(guard) => {
                        guards[i] = Some(guard);
                        owned.push(i);
                    }
                    TryClaim::Pending(_) => unreachable!("the replay is the store's only client"),
                }
            }
        });
        if owned.is_empty() {
            return results.into_iter().flatten().collect();
        }

        let owned_points: Vec<&ParamPoint> = owned.iter().map(|&i| &points[i]).collect();
        let mut probes = fan_out(rec, batch, &owned_points, threads, |p, stamps| {
            Some(self.probe(p, stamps))
        });
        let hits = rec.scope("scan", batch, |_| {
            let fingerprints: Vec<HashMap<String, Fingerprint>> = probes
                .iter()
                .map(|p| p.clone().expect("probes are taken only at publish"))
                .collect();
            self.store
                .find_correlated_batch_scan(
                    &fingerprints,
                    &self.stochastic,
                    &self.config.detector,
                    threads,
                    true,
                )
                .0
        });

        let (mut hit_items, mut misses) = (Vec::new(), Vec::new());
        for (pos, hit) in hits.into_iter().enumerate() {
            match hit {
                Some(hit) => hit_items.push((pos, hit)),
                None => misses.push(pos),
            }
        }
        let remapped = fan_out(rec, batch, &hit_items, threads, |(pos, hit), stamps| {
            self.remap(owned_points[*pos], hit, stamps)
        });
        let simulated = fan_out(rec, batch, &misses, threads, |&pos, stamps| {
            self.simulate(owned_points[pos], stamps)
        });
        rec.scope("publish", batch, |_| {
            let hit_results = hit_items
                .iter()
                .zip(remapped)
                .map(|((pos, hit), samples)| (*pos, samples, hit.worlds, Served::Mapped));
            let miss_results = misses
                .iter()
                .zip(simulated)
                .map(|(pos, samples)| (*pos, samples, worlds, Served::Simulated));
            for (pos, samples, backing, served) in hit_results.chain(miss_results) {
                let samples = Arc::new(samples);
                guards[owned[pos]]
                    .take()
                    .expect("every owned point holds its claim")
                    .complete(
                        probes[pos].take().expect("each probe publishes once"),
                        Arc::clone(&samples),
                        backing,
                        served == Served::Simulated,
                    );
                results[owned[pos]] = Some((samples, served));
            }
        });
        results.into_iter().flatten().collect()
    }
}

/// One scenario's share of a replay: the batches that warm both stores,
/// then the batches replayed against the engine.
type ReplayPlan = (Scenario, Vec<Vec<ParamPoint>>, Vec<Vec<ParamPoint>>);

/// The batches a workload's replay walks.
fn plan_batches(workload: &str, plan: &Plan) -> Vec<ReplayPlan> {
    let mut rng = inputs::SplitMix::new(plan.seed ^ 0x5E_9A7);
    let mut sweep_window = |scenario: Scenario, warm: usize, replayed: usize| {
        let mut groups = inputs::sweep_groups(scenario.script());
        let start = rng.below(groups.len());
        groups.rotate_left(start);
        groups.truncate(warm + replayed);
        let tail = groups.split_off(warm.min(groups.len()));
        (scenario, groups, tail)
    };
    match workload {
        "sweep_lowreuse" => inputs::LOWREUSE
            .iter()
            .zip([3, 3, 2])
            .map(|((_, sql), n)| {
                sweep_window(Scenario::parse(sql).expect("bundled scenario parses"), 2, n)
            })
            .collect(),
        // Everything a restored service serves is already in its store:
        // the replayed batches are the warm-up batches.
        "restored_serve" => {
            let (scenario, warm, _) = sweep_window(inputs::figure2_coarse(), BATCHES, 0);
            vec![(scenario, warm.clone(), warm)]
        }
        "online_adjust" | "interactive_under_sweep" => {
            let scenario = plan.figure2();
            let mut states = inputs::slider_states(scenario.script(), plan.seed, 2 * BATCHES - 1);
            let tail = states.split_off(BATCHES);
            vec![(scenario, states, tail)]
        }
        _ => vec![sweep_window(plan.figure2(), BATCHES, BATCHES)],
    }
}

pub fn run(workload: &str, plan: &Plan, rec: &mut Recorder, report: &mut Report) {
    let config = plan.config();
    let registry = Arc::new(prophet_models::full_registry());
    let (mut engine_ns, mut checked) = (0u64, 0u64);
    let mut batch_id = 0u64;
    for (scenario, warm, replayed) in plan_batches(workload, plan) {
        let twin = |store: &SharedBasisStore| {
            Engine::with_basis_store(&scenario, Arc::clone(&registry), config, store.clone())
                .expect("engine builds")
        };
        let (store_a, store_b) = (
            SharedBasisStore::new(config.basis_capacity),
            SharedBasisStore::new(config.basis_capacity),
        );
        let (warm_a, engine) = (twin(&store_a), twin(&store_b));
        for batch in &warm {
            warm_a.evaluate_batch(batch).expect("warm-up evaluates");
            engine.evaluate_batch(batch).expect("warm-up evaluates");
        }
        let pipeline = Pipeline::new(scenario.script(), &registry, config, store_a);
        for batch in &replayed {
            let ours = rec.scope("replay.batch", batch_id, |rec| {
                pipeline.run_batch(rec, batch_id, batch)
            });
            let t = Instant::now();
            let theirs = engine.evaluate_batch(batch).expect("engine evaluates");
            engine_ns += t.elapsed().as_nanos() as u64;
            report.check(ours.len() == theirs.len(), || {
                format!("replay batch {batch_id}: result count differs")
            });
            for ((samples, served), (set, outcome)) in ours.iter().zip(&theirs) {
                checked += 1;
                let identical = *served == Served::from(outcome)
                    && set
                        .columns()
                        .iter()
                        .all(|c| match (samples.get(c), set.samples(c)) {
                            (Some(a), Some(b)) => {
                                a.len() == b.len()
                                    && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                            }
                            _ => false,
                        });
                report.check(identical, || {
                    format!(
                        "replay of {} ({served:?}) is not bit-identical to evaluate_batch ({outcome:?})",
                        set.point()
                    )
                });
            }
            batch_id += 1;
        }
    }

    // Layer split of the replayed sample, as CPU shares (durations summed
    // over threads), and the part of the engine's wall no layer explains.
    let covered_ns: u64 = rec
        .named("replay.batch")
        .into_iter()
        .map(|span| rec.covered_ns(span))
        .sum();
    let by_name = rec.self_by_name();
    let layer_ns = |name: &str| by_name.get(name).copied().unwrap_or(0);
    let total: u64 = LAYERS.iter().map(|l| layer_ns(l)).sum();
    for layer in LAYERS {
        report.scalar(
            &format!("replay.cpu_share.{layer}"),
            "ratio",
            layer_ns(layer) as f64 / total.max(1) as f64,
        );
    }
    report.scalar("replay.points_checked", "count", checked as f64);
    let unattributed = 1.0 - covered_ns as f64 / engine_ns.max(1) as f64;
    report.scalar("core.engine.unattributed_share", "ratio", unattributed);
    if unattributed > 0.10 {
        println!(
            "residue: {:.1} % of evaluate_batch's wall ({:.3} ms of {:.3} ms over {batch_id} batches) \
             is covered by no layer call of the replay",
            unattributed * 100.0,
            (engine_ns.saturating_sub(covered_ns)) as f64 / 1e6,
            engine_ns as f64 / 1e6,
        );
    }
}
