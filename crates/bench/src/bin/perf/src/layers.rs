//! The traced run's layer probes: one cost-per-unit number per layer,
//! measured from the outside around public calls (layers = crates).
//!
//! Which end-to-end metric each number should move, on which workload, is
//! written down in `README.md` before anything is measured. The probes are
//! the same on every workload — they characterize the build, not the
//! workload — and each runs inside a span of the traced run's recorder.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fuzzy_prophet::trace::{NO_CHUNK, NO_JOB};
use fuzzy_prophet::{Engine, EvalOutcome, JobSpec, Scenario, TraceConfig, TraceEventKind, Tracer};
use prophet_data::Value;
use prophet_fingerprint::{CorrelationDetector, Fingerprint, FingerprintSummary, Mapping};
use prophet_mc::{
    simulate_point_columnar, ColumnSamples, InflightGuard, ParamPoint, SharedBasisStore, TryClaim,
};
use prophet_sql::columnar::{evaluate_select_columns, to_f64_samples};
use prophet_sql::executor::{eval_expr, evaluate_select_with, EvalContext, WorldRng};
use prophet_sql::parse_script;
use prophet_vg::rng::{SeedSequence, Xoshiro256StarStar};
use prophet_vg::{SeedManager, VgCallF64, VgRegistry};

use crate::inputs::{self, Plan, SplitMix};
use crate::replay::NoRandomness;
use crate::spans::{Recorder, NO_BATCH};
use crate::stats::Report;

/// Time `reps` repetitions of `f`, each `units` units of work, inside one
/// span; report the median nanoseconds per unit as `metric`.
fn probe(
    rec: &mut Recorder,
    report: &mut Report,
    metric: &'static str,
    reps: usize,
    units: usize,
    mut f: impl FnMut(),
) {
    let samples: Vec<f64> = rec.scope(metric, NO_BATCH, |_| {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64 / units.max(1) as f64
            })
            .collect()
    });
    report.timing(metric, "ns", &samples);
}

/// What every probe shares: the catalog, the seed derivations an engine
/// would use, and a seeded sample of the Figure-2 space.
struct Bed {
    plan: Plan,
    registry: VgRegistry,
    seeds: SeedManager,
    probe_seeds: SeedSequence,
    worlds: Vec<u64>,
    figure2: Scenario,
    points: Vec<ParamPoint>,
    /// Divides every sample size in `--selftest`.
    shrink: usize,
}

impl Bed {
    fn new(plan: &Plan) -> Bed {
        let config = plan.config();
        let figure2 = plan.figure2();
        let mut all: Vec<ParamPoint> = inputs::sweep_groups(figure2.script())
            .into_iter()
            .flatten()
            .collect();
        // Seeded partial shuffle: the first `n` entries are the sample.
        let mut rng = SplitMix::new(plan.seed ^ 0x1A_7E25);
        let n = all.len().min(4_352);
        for i in 0..n {
            let j = i + rng.below(all.len() - i);
            all.swap(i, j);
        }
        all.truncate(n);
        Bed {
            plan: *plan,
            registry: prophet_models::full_registry(),
            seeds: SeedManager::new(config.root_seed),
            probe_seeds: SeedSequence::fingerprint_default(config.fingerprint.length),
            worlds: (0..config.worlds_per_point as u64).collect(),
            figure2,
            points: all,
            shrink: if plan.selftest { 16 } else { 1 },
        }
    }

    /// Graph batches of a seeded slider walk (state 0 = initial sliders).
    fn slider_states(&self, n: usize) -> Vec<Vec<ParamPoint>> {
        inputs::slider_states(self.figure2.script(), self.plan.seed ^ 0xE9_61E, n)
    }

    fn take(&self, n: usize) -> &[ParamPoint] {
        &self.points[..(n / self.shrink).clamp(1, self.points.len())]
    }
}

pub fn run(plan: &Plan, rec: &mut Recorder, report: &mut Report) {
    let bed = Bed::new(plan);
    sql_probes(&bed, rec, report);
    vg_probes(&bed, rec, report);
    let fingerprints = fingerprint_probes(&bed, rec, report);
    simulate_probes(&bed, rec, report);
    store_probes(&bed, &fingerprints, rec, report);
    trace_probe(&bed, rec, report);
    engine_probes(&bed, rec, report);
    service_probes(&bed, rec, report);
}

// ---------------------------------------------------------------- prophet-sql

fn sql_probes(bed: &Bed, rec: &mut Recorder, report: &mut Report) {
    let sources = inputs::bundled_sources();
    probe(
        rec,
        report,
        "sql.parse_ns_per_script",
        50 / bed.shrink.min(10),
        sources.len(),
        || {
            for source in &sources {
                std::hint::black_box(
                    parse_script(std::hint::black_box(source)).expect("script parses"),
                );
            }
        },
    );

    let select = &bed.figure2.script().select;
    let points = bed.take(256);
    let params: Vec<HashMap<String, Value>> = points.iter().map(ParamPoint::to_value_map).collect();
    for (metric, block) in [
        (
            "sql.select_columnar_ns_per_world.b32",
            bed.probe_seeds.seeds(),
        ),
        (
            "sql.select_columnar_ns_per_world.b400",
            bed.worlds.as_slice(),
        ),
    ] {
        probe(rec, report, metric, 3, params.len() * block.len(), || {
            for p in &params {
                std::hint::black_box(
                    evaluate_select_columns(select, &bed.registry, p, bed.seeds, block)
                        .expect("columnar walk succeeds"),
                );
            }
        });
    }
    let scalar_params = &params[..params.len().div_ceil(4)];
    probe(
        rec,
        report,
        "sql.select_scalar_ns_per_world",
        3,
        scalar_params.len() * bed.probe_seeds.len(),
        || {
            for p in scalar_params {
                for &world in bed.probe_seeds.seeds() {
                    std::hint::black_box(
                        evaluate_select_with(
                            select,
                            &bed.registry,
                            p,
                            WorldRng::per_call(bed.seeds, world),
                        )
                        .expect("scalar walk succeeds"),
                    );
                }
            }
        },
    );
    // The remap inner loop: the derived item with its inputs bound as
    // aliases, one scalar walk per world.
    let derived = select
        .items
        .last()
        .expect("Figure 2 ends with its derived column");
    let inputs: Vec<(f64, f64)> = (0..bed.worlds.len())
        .map(|w| (9_000.0 + w as f64, 9_200.0 - w as f64))
        .collect();
    probe(
        rec,
        report,
        "sql.derived_eval_ns_per_world",
        3,
        scalar_params.len() * inputs.len(),
        || {
            for p in scalar_params {
                for &(demand, capacity) in &inputs {
                    let mut rng = NoRandomness;
                    let mut ctx = EvalContext::new(&bed.registry, p, &mut rng);
                    ctx.bind_alias("demand", Value::Float(demand));
                    ctx.bind_alias("capacity", Value::Float(capacity));
                    let v = eval_expr(&derived.expr, &mut ctx).expect("derived item evaluates");
                    std::hint::black_box(v.as_f64().expect("derived item is numeric"));
                }
            }
        },
    );
}

// ----------------------------------------------------- prophet-vg / -models

fn vg_probes(bed: &Bed, rec: &mut Recorder, report: &mut Report) {
    let models: [(&'static str, &str, &[i64]); 5] = [
        ("vg.draw_ns.DemandModel", "DemandModel", &[30, 12]),
        ("vg.draw_ns.CapacityModel", "CapacityModel", &[30, 16, 36]),
        (
            "vg.draw_ns.InventoryModel",
            "InventoryModel",
            &[28, 240, 300],
        ),
        ("vg.draw_ns.QueueModel", "QueueModel", &[24, 12]),
        ("vg.draw_ns.RevenueModel", "RevenueModel", &[24, 26]),
    ];
    for (metric, name, args) in models {
        let args: Vec<Value> = args.iter().map(|&a| Value::Int(a)).collect();
        let draws = bed.worlds.len();
        probe(rec, report, metric, 25 / bed.shrink.min(5), draws, || {
            let mut rngs: Vec<Xoshiro256StarStar> = bed
                .worlds
                .iter()
                .map(|&w| bed.seeds.rng_for(w, name, 0))
                .collect();
            let mut calls: Vec<VgCallF64<'_>> = rngs
                .iter_mut()
                .map(|rng| VgCallF64 { params: &args, rng })
                .collect();
            std::hint::black_box(
                bed.registry
                    .invoke_batch_columnar(name, &mut calls)
                    .expect("model draws"),
            );
        });
    }
}

// --------------------------------------------------------- prophet-fingerprint

/// Probe fingerprints of every sampled point (the scan, store and
/// snapshot probes below reuse them), timing construction on the way.
fn fingerprint_probes(
    bed: &Bed,
    rec: &mut Recorder,
    report: &mut Report,
) -> Vec<HashMap<String, Fingerprint>> {
    let select = &bed.figure2.script().select;
    let columns: Vec<Vec<(String, Vec<f64>)>> = bed
        .take(4_352)
        .iter()
        .map(|p| {
            let (cols, _) = evaluate_select_columns(
                select,
                &bed.registry,
                &p.to_value_map(),
                bed.seeds,
                bed.probe_seeds.seeds(),
            )
            .expect("probe walk succeeds");
            cols.into_iter()
                .take(2) // demand, capacity: the stochastic columns
                .map(|(name, c)| (name, to_f64_samples(&c).expect("numeric column")))
                .collect()
        })
        .collect();
    // The engine moves each probe column into its fingerprint; hand every
    // repetition its own copy so the timed region does the same.
    let mut copies = vec![columns.clone(), columns.clone(), columns];
    let units = copies[0].len() * 2;
    let mut fingerprints: Vec<HashMap<String, Fingerprint>> = Vec::new();
    probe(
        rec,
        report,
        "fingerprint.build_ns_per_probe",
        copies.len(),
        units,
        || {
            fingerprints = copies
                .pop()
                .expect("one copy per repetition")
                .into_iter()
                .map(|cols| {
                    cols.into_iter()
                        .map(|(name, values)| {
                            let fp =
                                Fingerprint::compute_block_with_seeds(&bed.probe_seeds, |_| values);
                            std::hint::black_box(FingerprintSummary::of(&fp));
                            (name, fp)
                        })
                        .collect()
                })
                .collect();
        },
    );

    let detector = CorrelationDetector::default();
    let pairs: Vec<(&Fingerprint, &Fingerprint)> = fingerprints
        .windows(2)
        .flat_map(|w| {
            [
                (&w[0]["demand"], &w[1]["demand"]),
                (&w[0]["capacity"], &w[1]["capacity"]),
            ]
        })
        .collect();
    let mut mappings: Vec<Mapping> = Vec::new();
    probe(
        rec,
        report,
        "fingerprint.detect_ns_per_pair",
        3,
        pairs.len(),
        || {
            mappings = pairs
                .iter()
                .filter_map(|(a, b)| detector.detect(a, b))
                .collect();
        },
    );
    let summaries: Vec<(FingerprintSummary, FingerprintSummary)> = pairs
        .iter()
        .map(|(a, b)| (FingerprintSummary::of(a), FingerprintSummary::of(b)))
        .collect();
    probe(
        rec,
        report,
        "fingerprint.bound_ns_per_candidate",
        5,
        summaries.len(),
        || {
            for (a, b) in &summaries {
                std::hint::black_box(a.bound(b, &detector));
            }
        },
    );
    let samples: Vec<f64> = bed.worlds.iter().map(|&w| 9_000.0 + w as f64).collect();
    let mappings = if mappings.is_empty() {
        vec![Mapping::Identity]
    } else {
        mappings
    };
    probe(
        rec,
        report,
        "fingerprint.apply_mapping_ns_per_sample",
        5,
        mappings.len() * samples.len(),
        || {
            for m in &mappings {
                std::hint::black_box(m.apply_samples(&samples));
            }
        },
    );
    fingerprints
}

// ------------------------------------------------------------------ prophet-mc

fn simulate_probes(bed: &Bed, rec: &mut Recorder, report: &mut Report) {
    let mut scenarios: Vec<(&'static str, Scenario)> =
        vec![("mc.simulate_ns_per_world.figure2", bed.figure2.clone())];
    for (metric, (_, sql)) in [
        "mc.simulate_ns_per_world.inventory",
        "mc.simulate_ns_per_world.staffing",
        "mc.simulate_ns_per_world.pricing",
    ]
    .into_iter()
    .zip(inputs::LOWREUSE)
    {
        scenarios.push((
            metric,
            Scenario::parse(sql).expect("bundled scenario parses"),
        ));
    }
    for (metric, scenario) in scenarios {
        let mut rng = SplitMix::new(bed.plan.seed ^ 0x51_A7E);
        let all: Vec<ParamPoint> = inputs::sweep_groups(scenario.script())
            .into_iter()
            .flatten()
            .collect();
        let points: Vec<&ParamPoint> = (0..32 / bed.shrink.min(8))
            .map(|_| &all[rng.below(all.len())])
            .collect();
        probe(
            rec,
            report,
            metric,
            3,
            points.len() * bed.worlds.len(),
            || {
                for p in &points {
                    std::hint::black_box(
                        simulate_point_columnar(
                            &scenario.script().select,
                            &bed.registry,
                            &bed.seeds,
                            p,
                            &bed.worlds,
                            true,
                        )
                        .expect("simulation succeeds"),
                    );
                }
            },
        );
    }
}

/// A point no bundled scenario produces — the store does not care.
fn synthetic_point(i: usize) -> ParamPoint {
    ParamPoint::from_pairs([
        ("current", (i % 53) as i64),
        ("purchase1", (i / 53) as i64),
        ("purchase2", 4),
        ("feature", 12),
    ])
}

/// One store, `threads` clients on disjoint points: per-operation cost of
/// claim → Owner, publish below capacity, claim → Ready, and publish at
/// capacity (every insert evicts). Returns per-thread ns/op samples.
fn store_round(
    capacity: usize,
    ops: usize,
    threads: usize,
    fingerprints: &HashMap<String, Fingerprint>,
    samples: &Arc<ColumnSamples>,
) -> [Vec<f64>; 4] {
    let store = SharedBasisStore::new(capacity);
    let per_thread = ops / threads;
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64 / per_thread as f64
    };
    let claim_all = |base: usize| -> Vec<InflightGuard> {
        (base..base + per_thread)
            .map(|i| match store.try_claim(&synthetic_point(i), 1) {
                TryClaim::Owner(guard) => guard,
                _ => unreachable!("probe points are claimed once"),
            })
            .collect()
    };
    let publish_all = |guards: Vec<InflightGuard>| {
        for guard in guards {
            guard.complete(fingerprints.clone(), Arc::clone(samples), 1, false);
        }
    };
    // Each client: below-capacity round on its own slice, then (after the
    // store has been filled) an evicting round on a fresh slice.
    let client = |t: usize, fill: &std::sync::Barrier| -> [f64; 4] {
        let base = t * per_thread;
        let mut guards = Vec::new();
        let claim = timed(&mut || guards = claim_all(base));
        let mut pending = Some(guards);
        let publish = timed(&mut || publish_all(pending.take().expect("published once")));
        let lookup = timed(&mut || {
            for i in base..base + per_thread {
                let ready = matches!(
                    store.try_claim(&synthetic_point(i), 1),
                    TryClaim::Ready { .. }
                );
                assert!(ready, "published points are served from the store");
            }
        });
        fill.wait(); // everyone has finished the below-capacity round
        fill.wait(); // the store has been filled to capacity
        let mut pending = Some(claim_all(capacity + ops + base));
        let evicting = timed(&mut || publish_all(pending.take().expect("published once")));
        [claim, publish, lookup, evicting]
    };
    let fill = std::sync::Barrier::new(threads + 1);
    let fill_store = || {
        fill.wait();
        for i in ops..ops + capacity {
            if let TryClaim::Owner(guard) = store.try_claim(&synthetic_point(i), 1) {
                guard.complete(fingerprints.clone(), Arc::clone(samples), 1, false);
            }
        }
        fill.wait();
    };
    // lint:allow(thread-spawn): the .tN probes need N concurrent clients on one store
    let per_client: Vec<[f64; 4]> = std::thread::scope(|scope| {
        let (client, fill) = (&client, &fill);
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || client(t, fill)))
            .collect();
        fill_store();
        handles
            .into_iter()
            .map(|h| h.join().expect("store clients do not panic"))
            .collect()
    });
    let mut out: [Vec<f64>; 4] = Default::default();
    for costs in per_client {
        for (slot, cost) in out.iter_mut().zip(costs) {
            slot.push(cost);
        }
    }
    out
}

fn store_probes(
    bed: &Bed,
    fingerprints: &[HashMap<String, Fingerprint>],
    rec: &mut Recorder,
    report: &mut Report,
) {
    let config = bed.plan.config();
    let samples: Arc<ColumnSamples> = Arc::new(
        ["demand", "capacity", "overload"]
            .into_iter()
            .map(|c| (c.to_owned(), vec![1.0; bed.worlds.len()]))
            .collect(),
    );
    let capacity = config.basis_capacity / bed.shrink;
    let ops = capacity / 2;
    let pool = inputs::pool_threads();
    let names: [[&'static str; 2]; 4] = [
        ["mc.store.claim_ns.t1", "mc.store.claim_ns.tN"],
        ["mc.store.publish_ns.t1", "mc.store.publish_ns.tN"],
        ["mc.store.lookup_ns.t1", "mc.store.lookup_ns.tN"],
        [
            "mc.store.publish_evicting_ns.t1",
            "mc.store.publish_evicting_ns.tN",
        ],
    ];
    for (column, threads) in [(0, 1), (1, pool)] {
        let mut merged: [Vec<f64>; 4] = Default::default();
        rec.scope("mc.store.ops", NO_BATCH, |_| {
            for _ in 0..3 {
                let round = store_round(capacity, ops, threads, &fingerprints[0], &samples);
                for (all, new) in merged.iter_mut().zip(round) {
                    all.extend(new);
                }
            }
        });
        for (row, costs) in names.iter().zip(&merged) {
            report.timing(row[column], "ns", costs);
        }
    }

    // The match scan and the snapshot codec, on a store of ~4k matchable
    // entries carrying real Figure-2 fingerprints.
    let entries = fingerprints.len().saturating_sub(256 / bed.shrink).max(1);
    let store = SharedBasisStore::new(config.basis_capacity);
    for (i, fps) in fingerprints[..entries].iter().enumerate() {
        if let TryClaim::Owner(guard) = store.try_claim(&bed.points[i], 1) {
            guard.complete(fps.clone(), Arc::clone(&samples), bed.worlds.len(), true);
        }
    }
    let columns = ["demand".to_owned(), "capacity".to_owned()];
    let batches: Vec<&[HashMap<String, Fingerprint>]> = fingerprints[entries..].chunks(8).collect();
    let (mut scanned, mut pruned, mut nanos) = (0u64, 0u64, 0u64);
    rec.scope("mc.store.scan_ns_per_candidate", NO_BATCH, |_| {
        for batch in &batches {
            let t = Instant::now();
            let (_, scan) =
                store.find_correlated_batch_scan(batch, &columns, &config.detector, pool, true);
            nanos += t.elapsed().as_nanos() as u64;
            scanned += scan.candidates_scanned;
            pruned += scan.candidates_pruned;
        }
    });
    let bounded = (scanned + pruned).max(1);
    report.scalar(
        "mc.store.scan_ns_per_candidate",
        "ns",
        nanos as f64 / bounded as f64,
    );
    report.scalar(
        "mc.store.scan_prune_rate",
        "ratio",
        pruned as f64 / bounded as f64,
    );

    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    rec.scope("mc.store.snapshot", NO_BATCH, |_| {
        for _ in 0..3 {
            let t = Instant::now();
            let bytes = store.snapshot_bytes();
            let megabytes = bytes.len() as f64 / 1e6;
            encode.push(megabytes / t.elapsed().as_secs_f64());
            let fresh = SharedBasisStore::new(config.basis_capacity);
            let t = Instant::now();
            let restored = fresh.restore_bytes(&bytes).expect("snapshot restores");
            decode.push(megabytes / t.elapsed().as_secs_f64());
            let exact = fresh.get_exact(&bed.points[0], 1).is_some();
            report.check(restored == entries && exact, || {
                format!("snapshot round trip restored {restored} of {entries} entries")
            });
        }
    });
    report.timing("mc.store.snapshot_encode_mb_per_s", "MB/s", &encode);
    report.timing("mc.store.snapshot_decode_mb_per_s", "MB/s", &decode);
}

fn trace_probe(bed: &Bed, rec: &mut Recorder, report: &mut Report) {
    let tracer = Tracer::new(TraceConfig::ring());
    let events = 100_000 / bed.shrink;
    probe(
        rec,
        report,
        "mc.trace.record_ns_per_event",
        5,
        events,
        || {
            for _ in 0..events {
                tracer.instant(TraceEventKind::StorePublish, NO_JOB, NO_CHUNK);
            }
        },
    );
}

// ----------------------------------------------------------- fuzzy-prophet (core)

fn engine_probes(bed: &Bed, rec: &mut Recorder, report: &mut Report) {
    let config = bed.plan.config();
    let states = bed.slider_states(24 / bed.shrink.min(4));
    let engine = || {
        Engine::new(&bed.figure2, prophet_models::full_registry(), config).expect("engine builds")
    };
    let per_point = |t: Instant, n: usize| t.elapsed().as_nanos() as f64 / n as f64;

    let mut simulated = Vec::new();
    rec.scope("core.engine.simulated_ns_per_point", NO_BATCH, |_| {
        for _ in 0..3 {
            let cold = engine();
            let t = Instant::now();
            let out = cold.evaluate_batch(&states[0]).expect("batch evaluates");
            simulated.push(per_point(t, out.len()));
        }
    });
    report.timing("core.engine.simulated_ns_per_point", "ns", &simulated);

    let warm = engine();
    warm.evaluate_batch(&states[0]).expect("batch evaluates");
    let (mut mapped, mut remap_publish, mut cached) = (Vec::new(), Vec::new(), Vec::new());
    rec.scope("core.engine.mapped_ns_per_point", NO_BATCH, |_| {
        for batch in &states[1..] {
            let before = warm.metrics();
            let t = Instant::now();
            let out = warm.evaluate_batch(batch).expect("batch evaluates");
            let wall = t.elapsed().as_nanos() as f64;
            let after = warm.metrics();
            // Only batches served purely by re-mapping count; revisited or
            // partly simulated slider states are skipped.
            if out
                .iter()
                .all(|(_, o)| matches!(o, EvalOutcome::Mapped { .. }))
            {
                let n = out.len() as f64;
                let lanes = config.threads.clamp(1, out.len()) as f64;
                let probe_wall = (after.probe_eval_nanos - before.probe_eval_nanos) as f64 / lanes;
                let scan = (after.match_scan_nanos - before.match_scan_nanos) as f64;
                mapped.push(wall / n);
                remap_publish.push((wall - probe_wall - scan) / n);
            }
            let t = Instant::now();
            let again = warm.evaluate_batch(batch).expect("batch evaluates");
            cached.push(per_point(t, again.len()));
            report.check(again.iter().all(|(_, o)| *o == EvalOutcome::Cached), || {
                "a just-evaluated batch was not served from the store".to_owned()
            });
        }
    });
    report.timing("core.engine.mapped_ns_per_point", "ns", &mapped);
    report.timing(
        "core.engine.remap_publish_ns_per_point",
        "ns",
        &remap_publish,
    );
    report.timing("core.engine.cached_ns_per_point", "ns", &cached);
}

/// Job-layer overheads: the same batches through `submit(points).wait()`
/// on a service and through `evaluate_batch` on a bare engine with an
/// identical store.
fn service_probes(bed: &Bed, rec: &mut Recorder, report: &mut Report) {
    let config = bed.plan.config();
    let states = bed.slider_states(16 / bed.shrink.min(4));
    let service = inputs::service(&[("figure2", &bed.figure2)], config, TraceConfig::Off);
    let direct =
        Engine::new(&bed.figure2, prophet_models::full_registry(), config).expect("engine builds");
    let job = |batch: &[ParamPoint]| -> f64 {
        let points = batch.to_vec();
        let t = Instant::now();
        service
            .submit(JobSpec::points("figure2", points))
            .expect("points job submits")
            .wait()
            .expect("points job completes");
        t.elapsed().as_nanos() as f64
    };
    let bare = |batch: &[ParamPoint]| -> f64 {
        let t = Instant::now();
        direct.evaluate_batch(batch).expect("batch evaluates");
        t.elapsed().as_nanos() as f64
    };
    rec.scope("core.job.overheads", NO_BATCH, |_| {
        // Mapped batches first (each state is new to both stores), then
        // the fixed per-job cost on a batch both stores now hold.
        job(&states[0]);
        bare(&states[0]);
        let mapped_extra: Vec<f64> = states[1..]
            .iter()
            .map(|batch| job(batch) - bare(batch))
            .collect();
        let cached_extra: Vec<f64> = (0..30 / bed.shrink.min(3))
            .map(|_| job(&states[0]) - bare(&states[0]))
            .collect();
        let fixed = crate::stats::summarize(&cached_extra).median;
        report.timing(
            "core.job.submit_to_first_event_us",
            "us",
            &cached_extra.iter().map(|ns| ns / 1e3).collect::<Vec<_>>(),
        );
        // What the scheduler adds to a mapped batch beyond that fixed
        // cost. Per job, not per chunk: how a job is cut into chunks is
        // the scheduler's own business and may change.
        report.timing(
            "core.scheduler.dispatch_ns_per_job",
            "ns",
            &mapped_extra.iter().map(|ns| ns - fixed).collect::<Vec<_>>(),
        );
    });

    // The floor of an adjustment: flipping one slider between two states
    // that are both already rendered.
    let script = bed.figure2.script();
    let moves = inputs::adjustments(script, bed.plan.seed ^ 0xE9_61E, 1);
    let (name, there) = &moves[0];
    let back = inputs::final_sliders(script, &[])
        .get(name)
        .expect("the moved slider exists");
    let mut session = service.online("figure2").expect("session opens");
    session.refresh().expect("initial render");
    let mut flips = Vec::new();
    rec.scope("core.session.cached_refresh_us", NO_BATCH, |_| {
        for i in 0..40 / bed.shrink.min(4) {
            let value = if i % 2 == 0 { *there } else { back };
            let t = Instant::now();
            let render = session.set_param(name, value).expect("valid adjustment");
            flips.push(t.elapsed().as_nanos() as f64 / 1e3);
            report.check(render.weeks_cached == render.weeks_total, || {
                format!("flip {i} was not served from the store: {render:?}")
            });
        }
    });
    report.timing("core.session.cached_refresh_us", "us", &flips);
}
