//! Persistent basis store (tier 2): snapshot fidelity, end to end.
//!
//! `Prophet::save_basis` / `load_basis` move a warmed basis across
//! processes. Mapped points travel as recipes with their moments and
//! arrive as recipe records: a load rebuilds nothing, a restored point's moments
//! are the kernel's bits of the samples a read rebuilds, and those
//! samples are the warm store's bit for bit, on either execution tier; a
//! sweep on the restored service must be bit-identical to a re-sweep on
//! the warm one, simulate nothing (`points_simulated == 0`) and rebuild
//! nothing, and a tight restored store must evict like the one that
//! wrote it; a file writes each recipe once and a load gives the records
//! of one recipe one shared body; a snapshot drawn in another world
//! (seed, script, model tag) fails `WrongWorld`, a v4 file
//! `UnsupportedVersion(4)`, and one whose
//! recipes the loading scenario could not rebuild `Rebuild`; corrupt or
//! truncated snapshot files are rejected with typed
//! [`ProphetError::Snapshot`] variants and leave the store untouched, as
//! does every seeded flip, cut and splice of one that does not restore to
//! a byte-identical re-save, and every one that does restore reads back
//! every entry's samples; a sweep through a
//! store far smaller than its point count pins the snapshot's size and
//! the eviction count, so neither the FPBS encoding nor the byte budget
//! can drift silently; a cold sweep keeps only its simulated sources
//! holding samples, and a samples read of a mapped point rebuilds the
//! first visit's bits; a store that holds a sweep only because its mapped
//! entries are recipe records serves a second sweep from the store, with
//! the first sweep's bits, by reading the moments recipe records keep —
//! as does a session revisiting slider settings — and every kind of reply
//! answers `EXPECT` / `EXPECT_STDDEV` with the kernel's bits of its own
//! samples.
//!
//! The store's own unit suite (`crates/mc/src/store.rs`) pins the byte
//! format and the lock protocol; this file pins the end-to-end surface.

use std::collections::HashMap;
use std::fs;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use fuzzy_prophet::prelude::*;
use prophet_data::{DataResult, Value};
use prophet_mc::{
    aggregate, ColumnMoments, GridGuide, SampleSet, SampleStats, SharedBasisStore, TryClaim,
};
use prophet_models::scenarios::{
    figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
};
use prophet_models::{demo_registry, full_registry};
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::{VgFunction, VgRegistry};

/// Store capacity that holds the whole 3,969-point coarse sweep.
const ROOMY: usize = 8_192;

/// Distinct recipes among the coarse sweep's 3,912 mapped points.
const RECIPES: usize = 195;

/// A coarse Figure-2 service whose store is budgeted at `basis_capacity`
/// full-depth records.
fn service(src: &str, basis_capacity: usize) -> Prophet {
    service_on(src, basis_capacity, ExecTier::Columnar)
}

/// [`service`] on an explicit execution tier.
fn service_on(src: &str, basis_capacity: usize, tier: ExecTier) -> Prophet {
    service_with(src, basis_capacity, tier, 8)
}

/// [`service_on`] at `worlds_per_point` worlds.
fn service_with(src: &str, basis_capacity: usize, tier: ExecTier, worlds: usize) -> Prophet {
    let config = EngineConfig {
        worlds_per_point: worlds,
        threads: 2,
        basis_capacity,
        tier,
        ..EngineConfig::default()
    };
    service_from(src, demo_registry(), config)
}

/// A coarse Figure-2 service on `registry` under `config`.
fn service_from(src: &str, registry: VgRegistry, config: EngineConfig) -> Prophet {
    Prophet::builder()
        .scenario_sql("figure2", src)
        .unwrap()
        .registry(registry)
        .config(config)
        .scheduler(SchedulerConfig {
            workers: 2,
            // Tiny chunks: many concurrent claims on the store.
            chunk_points: 2,
            ..SchedulerConfig::default()
        })
        .build()
        .unwrap()
}

/// Run a scheduled sweep, collecting the streamed per-point outcomes
/// (the chosen mapping sources) and the final report.
fn run_sweep(prophet: &Prophet, name: &str) -> (OfflineReport, HashMap<ParamPoint, EvalOutcome>) {
    let handle = prophet.submit(JobSpec::sweep(name)).unwrap();
    let mut outcomes = HashMap::new();
    let mut report = None;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(update) => {
                for (point, outcome) in update.results {
                    outcomes.insert(point, outcome);
                }
            }
            JobEvent::Final(output) => report = Some(output.into_sweep().unwrap()),
            other => panic!("unexpected event {other:?}"),
        }
    }
    (report.expect("sweep must finish"), outcomes)
}

fn assert_sweeps_identical(
    label: &str,
    run: &(OfflineReport, HashMap<ParamPoint, EvalOutcome>),
    reference: &(OfflineReport, HashMap<ParamPoint, EvalOutcome>),
) {
    let (report, outcomes) = run;
    let (want, want_outcomes) = reference;
    assert_eq!(report.answers, want.answers, "{label}: per-group answers");
    assert_eq!(report.best, want.best, "{label}: sweep optimum");
    assert_eq!(
        outcomes, want_outcomes,
        "{label}: chosen mapping sources / samples per point"
    );
    let (a, b) = (&report.metrics, &want.metrics);
    assert_eq!(a.points_simulated, b.points_simulated, "{label}");
    assert_eq!(a.points_mapped, b.points_mapped, "{label}");
    assert_eq!(a.points_cached, b.points_cached, "{label}");
    assert_eq!(a.worlds_simulated, b.worlds_simulated, "{label}");
    assert_eq!(a.candidates_scanned, b.candidates_scanned, "{label}");
    assert_eq!(a.candidates_pruned, b.candidates_pruned, "{label}");
}

/// Every point's samples, served from the store by one points job, as
/// `(column, bits)` lists.
fn stored_bits(prophet: &Prophet, points: &[ParamPoint]) -> Vec<Vec<(String, Vec<u64>)>> {
    let results = prophet
        .submit(JobSpec::points("figure2", points.to_vec()))
        .unwrap()
        .wait()
        .unwrap()
        .into_points()
        .unwrap();
    results
        .iter()
        .map(|(set, outcome)| {
            assert_eq!(*outcome, EvalOutcome::Cached, "served from the store");
            let bits = |c: &String| {
                set.samples(c)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            set.columns().iter().map(|c| (c.clone(), bits(c))).collect()
        })
        .collect()
}

/// The FPBS trailer checksum, written from its specification in
/// `docs/CONCURRENCY.md` rather than shared with the store, so this file
/// is a second implementation of the format: a disagreement fails every
/// re-stamped case below with `ChecksumMismatch`.
fn fpbs_checksum(body: &[u8]) -> u64 {
    let step = |acc: u64, word: u64| {
        (acc ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
    };
    let word_at = |i: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&body[i..i + 8]);
        u64::from_le_bytes(w)
    };
    let blocks = body.len() / 32;
    let mut lanes = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    for block in 0..blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word_at(32 * block + 8 * k));
        }
    }
    let mut acc = step(0x4528_21E6_38D0_1377, body.len() as u64);
    for &b in &body[32 * blocks..] {
        acc = step(acc, b as u64);
    }
    for lane in lanes {
        acc = step(acc, lane);
        acc ^= acc >> 29;
    }
    acc
}

/// Append a valid trailer to a snapshot body, so damage inside it
/// reaches the structural parser instead of failing the checksum.
fn restamp(mut body: Vec<u8>) -> Vec<u8> {
    let digest = fpbs_checksum(&body);
    body.extend_from_slice(&digest.to_le_bytes());
    body
}

/// A cursor over an FPBS file, for [`fpbs_record_kinds`].
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn skip(&mut self, n: usize) {
        self.at += n;
    }

    fn byte(&mut self) -> u8 {
        self.at += 1;
        self.bytes[self.at - 1]
    }

    fn u32(&mut self) -> usize {
        let mut w = [0u8; 4];
        w.copy_from_slice(&self.bytes[self.at..self.at + 4]);
        self.at += 4;
        u32::from_le_bytes(w) as usize
    }

    fn u64(&mut self) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.bytes[self.at..self.at + 8]);
        self.at += 8;
        u64::from_le_bytes(w)
    }

    /// Skip a length-prefixed name.
    fn name(&mut self) {
        let len = self.u32();
        self.skip(len);
    }
}

/// An FPBS v5 file's records, each as its kind — 0 samples, 1 source,
/// 2 recipe definition, 3 recipe index — and its byte span, walking the
/// layout `docs/CONCURRENCY.md` specifies rather than the store's parser,
/// as [`fpbs_checksum`] is a second implementation of the trailer.
fn fpbs_records(bytes: &[u8]) -> Vec<(u8, Range<usize>)> {
    let mut c = Cursor { bytes, at: 6 };
    c.skip(8); // the stamp counter
    let count = c.u64();
    c.skip(3 * 8); // the provenance's script, root-seed and probe-seed words
    for _ in 0..c.u32() {
        c.name();
        c.skip(4); // a model's tag
    }
    for _ in 0..c.u32() {
        c.name(); // the parameter name table
    }
    // Each source's column count: how many moments pairs a recipe that
    // names it writes.
    let mut columns: HashMap<u64, usize> = HashMap::new();
    let mut records = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let start = c.at;
        let stamp = c.u64();
        let pairs = c.u32();
        c.skip(pairs * (4 + 8));
        let kind = c.byte();
        match kind {
            0 | 1 => {
                c.skip(8); // worlds
                if kind == 1 {
                    for _ in 0..c.u32() {
                        c.name();
                        let values = c.u32();
                        c.skip(8 * values);
                    }
                }
                let ncols = c.u32();
                for _ in 0..ncols {
                    c.name();
                    let lanes = c.u64() as usize;
                    c.skip(8 * lanes);
                }
                columns.insert(stamp, ncols);
            }
            2 => {
                let source = c.u64();
                for _ in 0..c.u32() {
                    c.name();
                    let params = [0, 1, 3][c.byte() as usize];
                    c.skip(8 * params);
                }
                c.skip(16 * columns[&source]);
            }
            _ => c.skip(4), // the recipe's index
        }
        records.push((kind, start..c.at));
    }
    assert_eq!(c.at, bytes.len() - 8, "the records end at the trailer");
    records
}

/// [`fpbs_records`] counted by kind.
fn fpbs_record_kinds(bytes: &[u8]) -> [usize; 4] {
    let mut kinds = [0; 4];
    for (kind, _) in fpbs_records(bytes) {
        kinds[kind as usize] += 1;
    }
    kinds
}

fn temp_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fp_basis_snapshot_{}_{label}.fpbs",
        std::process::id()
    ))
}

// --------------------------------------------------- snapshot fidelity

/// Save a warmed basis, load it into a cold service, and sweep: the
/// restored run simulates nothing and is bit-identical — answers,
/// outcomes, counters — to a re-sweep on the warm service.
#[test]
fn restored_basis_serves_a_sweep_without_simulation() {
    let src = figure2_coarse_sql(0.05);
    let warm = service(&src, ROOMY);
    let first = run_sweep(&warm, "figure2");
    assert!(
        first.0.metrics.points_simulated > 0,
        "cold sweep must simulate"
    );
    // The all-cached reference: a second sweep on the warm store.
    let rerun = run_sweep(&warm, "figure2");
    assert_eq!(rerun.0.metrics.points_simulated, 0);

    let path = temp_path("roundtrip");
    let saved = warm.save_basis("figure2", &path).unwrap();
    assert_eq!(saved, 3_969, "warm store must hold the whole sweep");
    // 57 simulated sources carry their samples and fingerprints; the
    // 3,912 mapped points travel as a stamp, a point of four indexed
    // pairs and their recipe: the first of each recipe defines it with
    // three `(mean, std_dev)` pairs, and the rest name it by index. The
    // header names the world (68 B with the demo registry's two models)
    // and the four parameters.
    assert_eq!(fs::metadata(&path).unwrap().len(), 321_875);

    let cold = service(&src, ROOMY);
    let loaded = cold.load_basis("figure2", &path).unwrap();
    assert_eq!(loaded, saved, "every entry crosses the snapshot");
    assert_eq!(cold.basis_len("figure2").unwrap(), saved);

    // Every restored point's samples are the warm store's, bit for bit —
    // rebuilt on read, on the production tier and on the scalar
    // reference alike.
    let points: Vec<ParamPoint> = first.1.keys().cloned().collect();
    let warm_bits = stored_bits(&warm, &points);
    assert_eq!(stored_bits(&cold, &points), warm_bits, "columnar rebuild");
    let scalar = service_on(&src, ROOMY, ExecTier::Scalar);
    assert_eq!(scalar.load_basis("figure2", &path).unwrap(), saved);
    assert_eq!(stored_bits(&scalar, &points), warm_bits, "scalar rebuild");

    let restored = run_sweep(&cold, "figure2");
    assert_eq!(
        restored.0.metrics.points_simulated, 0,
        "restored run must not simulate"
    );
    assert_eq!(restored.0.metrics.worlds_simulated, 0);
    assert_sweeps_identical("restored-vs-warm", &restored, &rerun);

    let _ = fs::remove_file(&path);
}

/// Corrupt and truncated snapshot files are rejected with the matching
/// typed variant, the target store is left untouched, and the pristine
/// file still loads afterwards.
#[test]
fn corrupt_snapshots_are_rejected_with_typed_errors() {
    let src = figure2_coarse_sql(0.05);
    let warm = service(&src, ROOMY);
    run_sweep(&warm, "figure2");
    let path = temp_path("corrupt");
    let saved = warm.save_basis("figure2", &path).unwrap();
    let good = fs::read(&path).unwrap();
    let len_before = warm.basis_len("figure2").unwrap();

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    fs::write(&path, &bad).unwrap();
    match warm.load_basis("figure2", &path).unwrap_err() {
        ProphetError::Snapshot(SnapshotError::BadMagic) => {}
        other => panic!("wrong variant {other:?}"),
    }

    // Truncated mid-record. A naive cut trips the checksum first, so
    // re-stamp a valid checksum over the shortened body — the
    // structural parse must then run out of bytes.
    let short = restamp(good[..good.len() / 2].to_vec());
    fs::write(&path, &short).unwrap();
    match warm.load_basis("figure2", &path).unwrap_err() {
        ProphetError::Snapshot(SnapshotError::Truncated) => {}
        other => panic!("wrong variant {other:?}"),
    }

    // A single flipped payload bit fails the checksum.
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    fs::write(&path, &bad).unwrap();
    match warm.load_basis("figure2", &path).unwrap_err() {
        ProphetError::Snapshot(SnapshotError::ChecksumMismatch) => {}
        other => panic!("wrong variant {other:?}"),
    }

    // A missing file surfaces as the Io variant.
    let gone = temp_path("missing");
    let _ = fs::remove_file(&gone);
    match warm.load_basis("figure2", &gone).unwrap_err() {
        ProphetError::Snapshot(SnapshotError::Io(_)) => {}
        other => panic!("wrong variant {other:?}"),
    }

    // Every rejection left the warm store untouched…
    assert_eq!(warm.basis_len("figure2").unwrap(), len_before);
    // …and the pristine bytes still restore.
    fs::write(&path, &good).unwrap();
    assert_eq!(warm.load_basis("figure2", &path).unwrap(), saved);

    let _ = fs::remove_file(&path);
}

/// A sweep of 3,969 points through a store budgeted at 64 full-depth
/// records: 3,903 evictions, and what survives is pinned by count, by
/// record kind and by snapshot size (the 9 recipes, all distinct, carry
/// 48 B of moments each, the header 68 B of provenance and the four
/// parameter names). Mapped entries are recipe records from birth and
/// are evicted first; sources go only when no mapped entry remains — so
/// the 57 sources survive, and the 9 newest mapped entries travel as
/// recipes — and a change to the byte charges, the eviction policy, the
/// stamp order or the FPBS encoding moves one of these numbers. Save →
/// load → save reproduces the file byte for byte.
#[test]
fn churned_store_snapshot_is_pinned() {
    let src = figure2_coarse_sql(0.05);
    let prophet = service(&src, 64);
    prophet
        .submit(JobSpec::sweep("figure2"))
        .unwrap()
        .wait()
        .unwrap()
        .into_sweep()
        .unwrap();

    let path = temp_path("churned");
    assert_eq!(prophet.save_basis("figure2", &path).unwrap(), 66);
    let bytes = fs::read(&path).unwrap();
    let stats = prophet.basis_stats("figure2").unwrap();
    assert_eq!(
        (
            stats.entries,
            bytes.len(),
            stats.evictions,
            stats.hits,
            stats.misses
        ),
        (66, 51_044, 3_903, 3_912, 57)
    );
    assert_eq!(fpbs_record_kinds(&bytes), [0, 57, 9, 0]);
    assert_eq!(
        restamp(bytes[..bytes.len() - 8].to_vec()),
        bytes,
        "the reference checksum reproduces the store's trailer"
    );

    let reloaded = service(&src, 64);
    assert_eq!(reloaded.load_basis("figure2", &path).unwrap(), 66);
    reloaded.save_basis("figure2", &path).unwrap();
    assert_eq!(fs::read(&path).unwrap(), bytes, "save → load → save");

    let _ = fs::remove_file(&path);
}

/// Seeded mutational fuzz of the engine-backed restore
/// (`Engine::restore_basis`, what `load_basis` runs): flip bytes in,
/// truncate, and splice the body of a snapshot — sources and recipes
/// both — then re-stamp a valid checksum. Two inputs: a warm coarse
/// snapshot churned through a 64-record budget, whose recipes are all
/// distinct, and a small store whose mapped records share one recipe, so
/// most of them name it by index; some of its cases land inside such a
/// record. Every case either restores a store whose every entry's
/// samples read back (the recipe records rebuilt: the restore's
/// structural check admits no recipe the rebuild would reject) and whose
/// re-save is the input byte for byte (and reloads), or fails with a
/// typed error and leaves the target store as it was. No case panics.
#[test]
fn mutated_snapshots_restore_cleanly_or_fail_typed() {
    const CASES: usize = 120;
    let src = figure2_coarse_sql(0.05);
    let warm = service(&src, 64);
    warm.submit(JobSpec::sweep("figure2"))
        .unwrap()
        .wait()
        .unwrap()
        .into_sweep()
        .unwrap();
    let churned = warm
        .engine("figure2")
        .unwrap()
        .basis_store()
        .snapshot_bytes();
    assert_eq!(fpbs_record_kinds(&churned), [0, 57, 9, 0]);
    // The grid's first 24 points, four to a batch: each batch maps from
    // the sources of the ones before it.
    let small = service(&src, 64);
    let engine = small.engine("figure2").unwrap();
    let scenario = Scenario::parse(&src).unwrap();
    let points: Vec<ParamPoint> = GridGuide::new(&scenario.script().params).take(24).collect();
    for batch in points.chunks(4) {
        engine.evaluate_batch(batch).unwrap();
    }
    let shared = engine.basis_store().snapshot_bytes();
    assert_eq!(fpbs_record_kinds(&shared), [0, 4, 1, 19]);

    let target = service(&src, 64);
    let engine = target.engine("figure2").unwrap();
    let store = engine.basis_store().clone();
    let restore = |bytes: &[u8]| match engine.restore_basis(bytes) {
        Ok(n) => Ok(n),
        Err(ProphetError::Snapshot(e)) => Err(e),
        Err(other) => panic!("untyped restore failure {other:?}"),
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF9B5_F022);
    let mut below = |n: usize| rng.gen_range_i64(0, n as i64 - 1) as usize;
    for (label, good, entries) in [("churned", churned, 66), ("shared", shared, 24)] {
        assert_eq!(restore(&good), Ok(entries), "{label}");
        assert_eq!(
            store.restore_bytes(&good),
            Err(SnapshotError::RecipeNeedsEngine),
            "{label}: the snapshot holds recipes"
        );
        let body = &good[..good.len() - 8];
        let indices: Vec<Range<usize>> = (fpbs_records(&good).into_iter())
            .filter_map(|(kind, span)| (kind == 3).then_some(span))
            .collect();
        let (mut restored, mut rejected, mut in_index) = (0, 0, 0);
        for case in 0..CASES {
            // The mutated input and the body offsets the mutation touched.
            let (mutated, touched) = match case % 3 {
                0 => {
                    let mut m = body.to_vec();
                    let mut at = Vec::new();
                    for _ in 0..=below(4) {
                        at.push(below(m.len()));
                        m[at[at.len() - 1]] ^= 1 + below(255) as u8;
                    }
                    (m, at)
                }
                1 => {
                    let cut = below(body.len());
                    (body[..cut].to_vec(), vec![cut])
                }
                _ => {
                    let (cut, resume) = (below(body.len()), below(body.len()));
                    ([&body[..cut], &body[resume..]].concat(), vec![cut, resume])
                }
            };
            in_index += touched
                .iter()
                .any(|at| indices.iter().any(|span| span.contains(at)))
                as usize;
            let input = restamp(mutated);
            match restore(&input) {
                Ok(n) => {
                    restored += 1;
                    assert_eq!(target.basis_len("figure2").unwrap(), n, "{label} {case}");
                    for point in store.points() {
                        let read = store.get_exact(&point, 0);
                        assert!(read.is_some(), "{label} {case}: {point}");
                    }
                    let resaved = store.snapshot_bytes();
                    assert!(
                        resaved == input,
                        "{label} {case}: re-save is byte-identical"
                    );
                    assert_eq!(restore(&resaved), Ok(n), "{label} {case}");
                    assert_eq!(restore(&good), Ok(entries));
                }
                Err(e) => {
                    rejected += 1;
                    assert!(
                        !matches!(e, SnapshotError::ChecksumMismatch | SnapshotError::Io(_)),
                        "{label} {case}: {e}"
                    );
                    let len = target.basis_len("figure2").unwrap();
                    assert_eq!(len, entries, "{label} {case}");
                    assert!(store.snapshot_bytes() == good, "{label} {case}: untouched");
                }
            }
        }
        assert!(
            restored > 0 && rejected > 0,
            "{label}: {restored} / {rejected}"
        );
        assert_eq!(in_index > 0, !indices.is_empty(), "{label}: {in_index}");
    }
}

// ------------------------------------------------------- recipe records

/// One group's sweep batch per [`Engine::evaluate_batch`] call, in the
/// order a sweep evaluates them: every group point of the OPTIMIZE
/// directive's parameters in row-major order, each with the remaining
/// (axis) parameters' grid bound onto it. Returns every reply — the
/// first-visit samples — and outcome by point.
fn sweep_replies(engine: &Engine, src: &str) -> HashMap<ParamPoint, (SampleSet, EvalOutcome)> {
    let scenario = Scenario::parse(src).unwrap();
    let params = &scenario.script().params;
    let grouped = &scenario.script().optimize.as_ref().unwrap().select_params;
    let (group, axis): (Vec<_>, Vec<_>) =
        (params.iter().cloned()).partition(|p| grouped.contains(&p.name));
    let mut replies = HashMap::new();
    for mut full in GridGuide::new(&group) {
        let batch: Vec<ParamPoint> = GridGuide::new(&axis)
            .map(|a| {
                for (name, value) in a.iter() {
                    full.set(name, value);
                }
                full.clone()
            })
            .collect();
        let results = engine.evaluate_batch(&batch).unwrap();
        replies.extend(batch.into_iter().zip(results));
    }
    replies
}

/// A cold sweep leaves only its simulated sources holding samples: every
/// mapped point is a recipe record from birth, and the sweep, which reads
/// moments, rebuilds none. A later points job over the mapped points
/// rebuilds each of them exactly once, and the rebuilt samples are the
/// first-visit replies' bits — on either tier. The first visits are the
/// same sweep's batches run on an engine that keeps its replies; its
/// outcomes (every mapped point's source) are the sweep's.
#[test]
fn a_cold_sweep_keeps_only_its_sources_resident() {
    let src = figure2_coarse_sql(0.05);
    for tier in [ExecTier::Columnar, ExecTier::Scalar] {
        let prophet = service_on(&src, ROOMY, tier);
        let (report, outcomes) = run_sweep(&prophet, "figure2");
        let store = prophet.engine("figure2").unwrap().basis_store().clone();
        let stats = prophet.basis_stats("figure2").unwrap();
        assert_eq!(
            store.resident_len() as u64,
            report.metrics.points_simulated,
            "{tier:?}"
        );
        assert_eq!(stats.resident, 57, "{tier:?}");
        assert_eq!(
            (stats.entries, stats.evictions, stats.rematerializations),
            (3_969, 0, 0),
            "{tier:?}"
        );

        let scenario = Scenario::parse(&src).unwrap();
        let config = EngineConfig {
            worlds_per_point: 8,
            threads: 2,
            basis_capacity: ROOMY,
            tier,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&scenario, demo_registry(), config).unwrap();
        let first = sweep_replies(&engine, &src);
        assert_eq!(first.len(), outcomes.len(), "{tier:?}");
        let mut mapped: Vec<ParamPoint> = Vec::new();
        for (point, outcome) in &outcomes {
            assert_eq!(&first[point].1, outcome, "{tier:?}: {point}");
            if matches!(outcome, EvalOutcome::Mapped { .. }) {
                mapped.push(point.clone());
            }
        }
        assert_eq!(mapped.len(), 3_912, "{tier:?}");

        let first_bits: Vec<Vec<(String, Vec<u64>)>> = (mapped.iter())
            .map(|point| {
                let set = &first[point].0;
                let bits = |c: &String| set.samples(c).unwrap().iter().map(|v| v.to_bits());
                (set.columns().iter())
                    .map(|c| (c.clone(), bits(c).collect()))
                    .collect()
            })
            .collect();
        assert_eq!(stored_bits(&prophet, &mapped), first_bits, "{tier:?}");
        let stats = prophet.basis_stats("figure2").unwrap();
        assert_eq!(
            stats.rematerializations, 3_912,
            "{tier:?}: one rebuild per mapped point read"
        );
        assert_eq!(stats.resident, 57, "{tier:?}: a read keeps no samples");
    }
}

// This test and `revisited_settings_render_from_demoted_moments_without_a_rebuild`
// keep their names from when an over-budget mapped record dropped its
// samples: a recipe record is what a demoted record was, from birth.

/// A store budgeted at 3,000 full-depth records — fewer than the sweep's
/// 3,969 points, more than they take as recipe records — keeps the whole
/// coarse Figure 2. A second sweep on the same service is then served
/// entirely from the store with the first sweep's answers and rebuilds
/// nothing — its answers read the stored moments — and a points job that
/// reads the samples rebuilds each mapped point once and gets the bits a
/// roomy store's points job reads — on either tier.
#[test]
fn demoted_basis_serves_a_second_sweep_from_the_store() {
    const TIGHT: usize = 3_000;
    let src = figure2_coarse_sql(0.05);
    let roomy = service(&src, ROOMY);
    let reference = run_sweep(&roomy, "figure2");
    let points: Vec<ParamPoint> = reference.1.keys().cloned().collect();
    let roomy_bits = stored_bits(&roomy, &points);

    for tier in [ExecTier::Columnar, ExecTier::Scalar] {
        let prophet = service_on(&src, TIGHT, tier);
        let first = run_sweep(&prophet, "figure2");
        assert_sweeps_identical(&format!("{tier:?} first pass"), &first, &reference);
        let stats = prophet.basis_stats("figure2").unwrap();
        assert_eq!((stats.entries, stats.evictions), (3_969, 0), "{tier:?}");
        let engine = prophet.engine("figure2").unwrap();
        assert_eq!(
            engine.basis_store().resident_len(),
            57,
            "{tier:?}: only the sources hold samples"
        );
        let recipes = 3_969 - 57;

        let (report, outcomes) = run_sweep(&prophet, "figure2");
        let m = &report.metrics;
        assert_eq!(
            (m.points_cached, m.points_mapped, m.points_simulated),
            (3_969, 0, 0),
            "{tier:?}: the second pass is served from the store"
        );
        assert!(outcomes.values().all(|o| *o == EvalOutcome::Cached));
        assert_eq!(report.answers, first.0.answers, "{tier:?}: answer bits");
        assert_eq!(report.best, first.0.best, "{tier:?}");
        let rebuilt = prophet.basis_stats("figure2").unwrap().rematerializations;
        assert_eq!(rebuilt, 0, "{tier:?}: a sweep reads moments, never samples");

        assert_eq!(stored_bits(&prophet, &points), roomy_bits, "{tier:?}");
        let rebuilt = prophet.basis_stats("figure2").unwrap().rematerializations;
        assert_eq!(
            rebuilt, recipes,
            "{tier:?}: one rebuild per recipe record's samples read"
        );
    }
}

// ------------------------------------------------------- stored moments

/// One series of a graph as comparable bits: its column and its
/// `(x, y bits, worlds)` points.
type SeriesBits = (String, Vec<(i64, u64, u64)>);

/// Every series of a session's graph as comparable bits.
fn graph_bits(session: &OnlineSession) -> Vec<SeriesBits> {
    (session.graph().iter())
        .map(|series| {
            let points = (series.points.iter())
                .map(|p| (p.x, p.y.to_bits(), p.worlds))
                .collect();
            (series.column.clone(), points)
        })
        .collect()
}

/// An analyst session through a store whose budget of 96 full-depth
/// records would not hold every week it visits as samples. The walk goes
/// on until the store holds more entries than that, and never evicts:
/// mapped weeks are recipe records. Walking back through the earlier
/// slider settings is then served from the store — every week cached —
/// by the moments the recipe records keep: nothing is rebuilt, and the
/// graph's bits are those of a twin service with a roomy store. A points
/// job that reads the samples of every visited point gets the twin's bits
/// and rebuilds each recipe record exactly once.
#[test]
fn revisited_settings_render_from_demoted_moments_without_a_rebuild() {
    const SMALL: usize = 96;
    const WORLDS: usize = 64;
    let src = figure2_coarse_sql(0.05);
    let small = service_with(&src, SMALL, ExecTier::Columnar, WORLDS);
    let twin = service_with(&src, ROOMY, ExecTier::Columnar, WORLDS);
    let mut session = small.online("figure2").unwrap();
    let mut reference = twin.online("figure2").unwrap();
    session.refresh().unwrap();
    reference.refresh().unwrap();

    // A seeded walk, one slider per move, until the store holds more
    // entries than its budget has full-depth records. `undo[k]` sets move
    // `k`'s slider back.
    let grid: [&[i64]; 3] = [
        &[0, 8, 16, 24, 32, 40, 48],
        &[0, 8, 16, 24, 32, 40, 48],
        &[12, 36, 44],
    ];
    let sliders = ["purchase1", "purchase2", "feature"];
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0039);
    let mut undo: Vec<(&str, i64)> = Vec::new();
    let mut settings = vec![session.sliders().clone()];
    while small.basis_len("figure2").unwrap() <= SMALL {
        assert!(undo.len() < 64, "the walk reaches the budget");
        let stats = small.basis_stats("figure2").unwrap();
        assert_eq!(stats.evictions, 0, "the walk never evicts");
        let k = rng.gen_range_i64(0, 2) as usize;
        let value = grid[k][rng.gen_range_i64(0, grid[k].len() as i64 - 1) as usize];
        let old = session.sliders().get(sliders[k]).unwrap();
        if value == old {
            continue;
        }
        session.set_param(sliders[k], value).unwrap();
        reference.set_param(sliders[k], value).unwrap();
        assert_eq!(graph_bits(&session), graph_bits(&reference));
        undo.push((sliders[k], old));
        settings.push(session.sliders().clone());
    }
    let stats = small.basis_stats("figure2").unwrap();
    assert_eq!(stats.evictions, 0, "past the budget, nothing evicted");
    assert_eq!(stats.rematerializations, 0, "a render reads moments");

    // Undoing the moves in reverse revisits every earlier setting.
    for &(slider, old) in undo.iter().rev() {
        let report = session.set_param(slider, old).unwrap();
        reference.set_param(slider, old).unwrap();
        let label = format!("{slider} back to {old}");
        assert_eq!(report.weeks_cached, report.weeks_total, "{label}");
        assert_eq!(graph_bits(&session), graph_bits(&reference), "{label}");
    }
    let stats = small.basis_stats("figure2").unwrap();
    assert_eq!(stats.rematerializations, 0, "a revisit reads moments");
    assert_eq!(stats.evictions, 0);

    // Every visited point — the whole store — read as samples.
    let weeks: Vec<i64> = session.graph()[0].points.iter().map(|p| p.x).collect();
    let mut seen = std::collections::HashSet::new();
    let points: Vec<ParamPoint> = (settings.iter())
        .flat_map(|s| weeks.iter().map(move |&w| s.with("current", w)))
        .filter(|p| seen.insert(p.clone()))
        .collect();
    let store = small.engine("figure2").unwrap().basis_store().clone();
    assert_eq!(
        points.len(),
        store.len(),
        "the session's weeks fill the store"
    );
    let recipes = (store.len() - store.resident_len()) as u64;
    assert!(recipes > 0);
    assert_eq!(stored_bits(&small, &points), stored_bits(&twin, &points));
    let rebuilt = small.basis_stats("figure2").unwrap().rematerializations;
    assert_eq!(
        rebuilt, recipes,
        "one rebuild per recipe record's samples read"
    );
}

/// Every kind of reply answers `EXPECT` / `EXPECT_STDDEV` with the
/// fixed-order kernel's bits of its own samples, on all five bundled
/// scenarios: a simulated and a mapped reply as published, and a cached
/// one served from a samples record or from a recipe record's kept
/// moments. Batches of ten make all four kinds.
#[test]
fn every_reply_kind_answers_with_the_kernels_moments() {
    type Registry = fn() -> prophet_vg::VgRegistry;
    let scenarios: [(&str, String, Registry); 5] = [
        (
            "figure2",
            Scenario::figure2().unwrap().source().to_string(),
            demo_registry,
        ),
        ("figure2-coarse", figure2_coarse_sql(0.05), demo_registry),
        ("inventory", INVENTORY_POLICY.to_string(), full_registry),
        ("pricing", PRICING_WHATIF.to_string(), full_registry),
        ("staffing", SUPPORT_STAFFING.to_string(), full_registry),
    ];
    for (name, src, registry) in scenarios {
        let scenario = Scenario::parse(&src).unwrap();
        let points: Vec<ParamPoint> = GridGuide::new(&scenario.script().params).take(60).collect();
        let config = EngineConfig {
            worlds_per_point: 64,
            threads: 2,
            basis_capacity: 48,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&scenario, registry(), config).unwrap();
        let store = engine.basis_store().clone();
        let mut kinds: HashMap<&str, usize> = HashMap::new();
        // The first pass in batches of ten, so later batches map onto the
        // sources of earlier ones; the second reads everything back.
        for (pass, size) in [(0, 10), (1, points.len())] {
            let replies = points
                .chunks(size)
                .flat_map(|b| engine.evaluate_batch(b).unwrap());
            for (set, outcome) in replies {
                let before = store.stats_snapshot().rematerializations;
                for c in set.columns() {
                    let (mean, sd) = (set.expect(c).unwrap(), set.expect_std_dev(c).unwrap());
                    let xs = set.samples(c).unwrap();
                    let label = format!("{name} pass {pass} {} {c} ({outcome:?})", set.point());
                    assert_eq!(mean.to_bits(), aggregate::mean(xs).to_bits(), "{label}");
                    assert_eq!(
                        sd.to_bits(),
                        SampleStats::of(xs).std_dev.to_bits(),
                        "{label}"
                    );
                }
                let rebuilt = store.stats_snapshot().rematerializations > before;
                let kind = match outcome {
                    EvalOutcome::Simulated => "simulated",
                    EvalOutcome::Mapped { .. } => "mapped",
                    EvalOutcome::Cached if rebuilt => "cached-recipe",
                    EvalOutcome::Cached => "cached-samples",
                };
                *kinds.entry(kind).or_default() += 1;
            }
        }
        for kind in ["simulated", "mapped", "cached-samples", "cached-recipe"] {
            assert!(
                kinds.get(kind).is_some_and(|&n| n > 0),
                "{name}: no {kind} reply in {kinds:?}"
            );
        }
    }
}

// ------------------------------------------------- a restore rebuilds nothing

/// Save a warm coarse Figure 2 and return its file's path.
fn saved_figure2(src: &str, basis_capacity: usize, label: &str) -> (Prophet, PathBuf) {
    let warm = service(src, basis_capacity);
    run_sweep(&warm, "figure2");
    let path = temp_path(label);
    warm.save_basis("figure2", &path).unwrap();
    (warm, path)
}

/// A load installs every mapped entry as a recipe record and rebuilds
/// none, and the restored sweep, served from the file's moments, rebuilds
/// none either.
#[test]
fn a_restore_and_the_restored_sweep_rebuild_nothing() {
    let src = figure2_coarse_sql(0.05);
    let (_, path) = saved_figure2(&src, ROOMY, "rebuild_nothing");
    let cold = service(&src, ROOMY);
    assert_eq!(cold.load_basis("figure2", &path).unwrap(), 3_969);
    let store = cold.engine("figure2").unwrap().basis_store().clone();
    assert_eq!(store.resident_len(), 57, "only the sources hold samples");
    assert_eq!(cold.basis_stats("figure2").unwrap().rematerializations, 0);

    let (report, _) = run_sweep(&cold, "figure2");
    assert_eq!(report.metrics.points_cached, 3_969);
    let stats = cold.basis_stats("figure2").unwrap();
    assert_eq!(
        (stats.rematerializations, stats.resident, stats.evictions),
        (0, 57, 0)
    );
    let _ = fs::remove_file(&path);
}

/// A file writes each recipe once, and a load gives the records of one
/// recipe one shared body: the warm store's 3,912 mapped records share
/// the recipe memo's one body per recipe — as many as the cold sweep
/// remapped — and the restored store's hold exactly as many as the file
/// defines recipes.
#[test]
fn a_restore_shares_one_body_per_recipe() {
    let src = figure2_coarse_sql(0.05);
    let warm = service(&src, ROOMY);
    let (report, _) = run_sweep(&warm, "figure2");
    let path = temp_path("shared_bodies");
    warm.save_basis("figure2", &path).unwrap();
    let warm_store = warm.engine("figure2").unwrap().basis_store().clone();
    assert_eq!(
        warm_store.recipe_bodies(),
        RECIPES,
        "a publish files the memo's"
    );
    assert_eq!(
        warm_store.recipe_bodies() as u64,
        report.metrics.remaps,
        "one body per remap"
    );
    let [samples, sources, defined, indexed] = fpbs_record_kinds(&fs::read(&path).unwrap());
    assert_eq!((samples, sources, defined + indexed), (0, 57, 3_912));
    assert_eq!(defined, RECIPES);

    let cold = service(&src, ROOMY);
    assert_eq!(cold.load_basis("figure2", &path).unwrap(), 3_969);
    let store = cold.engine("figure2").unwrap().basis_store().clone();
    assert_eq!(store.recipe_bodies(), defined, "one body per recipe");
    let _ = fs::remove_file(&path);
}

/// Every restored entry's moments — read from the file, never computed
/// at load — are the kernel's bits of the samples a read rebuilds, on the
/// production tier and on the scalar reference.
#[test]
fn restored_moments_are_the_kernels_bits_of_the_rebuilt_samples() {
    let src = figure2_coarse_sql(0.05);
    let (_, path) = saved_figure2(&src, ROOMY, "restored_moments");
    for tier in [ExecTier::Columnar, ExecTier::Scalar] {
        let cold = service_on(&src, ROOMY, tier);
        cold.load_basis("figure2", &path).unwrap();
        let store = cold.engine("figure2").unwrap().basis_store().clone();
        let mut recipes = 0;
        for point in store.points() {
            let TryClaim::Ready { samples: entry, .. } = store.try_claim_stored(&point, 8) else {
                panic!("{tier:?}: {point} is stored");
            };
            let Some(moments) = entry.moments() else {
                assert!(
                    entry.resident().is_some(),
                    "{tier:?}: a source holds samples"
                );
                continue;
            };
            assert!(
                entry.resident().is_none(),
                "{tier:?}: {point} arrives as a recipe record"
            );
            let want = ColumnMoments::of(&entry.materialize(&point));
            assert_eq!(moments.columns(), want.columns(), "{tier:?}: {point}");
            for column in want.columns() {
                let bits = |m: &ColumnMoments| {
                    let (mean, sd) = m.get(column).unwrap();
                    (mean.to_bits(), sd.to_bits())
                };
                assert_eq!(bits(moments), bits(&want), "{tier:?}: {point} {column}");
            }
            recipes += 1;
        }
        assert_eq!(recipes, 3_912, "{tier:?}");
        let rebuilt = cold.basis_stats("figure2").unwrap().rematerializations;
        assert_eq!(rebuilt, recipes, "{tier:?}: one rebuild per samples read");
    }
    let _ = fs::remove_file(&path);
}

/// A tight store (64 full-depth records) and its restored twin — whose
/// mapped entries arrive as the recipe records the writer held — run the
/// same further sweep: identical answers, outcomes and evictions.
#[test]
fn a_restored_tight_store_evicts_like_the_store_that_wrote_it() {
    let src = figure2_coarse_sql(0.05);
    let (warm, path) = saved_figure2(&src, 64, "tight_twin");
    let twin = service(&src, 64);
    assert_eq!(twin.load_basis("figure2", &path).unwrap(), 66);
    let evicted_before = warm.basis_stats("figure2").unwrap().evictions;

    let further = run_sweep(&warm, "figure2");
    let restored = run_sweep(&twin, "figure2");
    assert_sweeps_identical("restored twin", &restored, &further);
    let warm_evictions = warm.basis_stats("figure2").unwrap().evictions - evicted_before;
    let twin_evictions = twin.basis_stats("figure2").unwrap().evictions;
    assert!(warm_evictions > 0, "the further sweep churns the store");
    assert_eq!(twin_evictions, warm_evictions);
    let _ = fs::remove_file(&path);
}

/// A v4 file — every recipe and parameter name written per record — is
/// not read: there is no old-version reader.
#[test]
fn a_v4_snapshot_fails_unsupported_version() {
    let src = figure2_coarse_sql(0.05);
    let (warm, path) = saved_figure2(&src, 64, "v4");
    let mut bytes = fs::read(&path).unwrap();
    assert_eq!(bytes[4..6], 5u16.to_le_bytes(), "FPBS v5");
    bytes[4..6].copy_from_slice(&4u16.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    match warm.load_basis("figure2", &path).unwrap_err() {
        ProphetError::Snapshot(SnapshotError::UnsupportedVersion(4)) => {}
        other => panic!("wrong variant {other:?}"),
    }
    assert_eq!(warm.basis_len("figure2").unwrap(), 66, "untouched");
    let _ = fs::remove_file(&path);
}

/// The coarse Figure 2's parameters with only its demand model: a
/// scenario that lacks the mapped column `capacity`.
const DEMAND_ONLY: &str = "\
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 2;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 8;
DECLARE PARAMETER @feature AS SET (12,36,44);
SELECT DemandModel(@current, @feature) AS demand,
       CASE WHEN 9000 < demand THEN 1 ELSE 0 END AS overload
INTO results;";

/// Recipes the loading scenario could not rebuild — it lacks a mapped
/// column — fail the restore's structural check with `Rebuild` before
/// the store is touched. Both engines run on bare stores, whose zero
/// provenance lets the load reach the recipes.
#[test]
fn a_scenario_lacking_a_mapped_column_fails_rebuild_and_leaves_the_store() {
    let config = EngineConfig {
        worlds_per_point: 8,
        threads: 2,
        ..EngineConfig::default()
    };
    let registry = Arc::new(demo_registry());
    let engine = |scenario: &Scenario| {
        let store = SharedBasisStore::new(ROOMY);
        Engine::with_basis_store(scenario, Arc::clone(&registry), config, store).unwrap()
    };
    let figure2 = Scenario::parse(&figure2_coarse_sql(0.05)).unwrap();
    let warm = engine(&figure2);
    let points: Vec<ParamPoint> = GridGuide::new(&figure2.script().params).take(60).collect();
    for batch in points.chunks(10) {
        warm.evaluate_batch(batch).unwrap();
    }
    assert!(warm.basis_store().stats_snapshot().hits > 0, "recipes");
    let bytes = warm.basis_store().snapshot_bytes();

    let cold = engine(&Scenario::parse(DEMAND_ONLY).unwrap());
    cold.evaluate_batch(&points[..4]).unwrap();
    let before = cold.basis_store().snapshot_bytes();
    match cold.restore_basis(&bytes) {
        Err(ProphetError::Snapshot(SnapshotError::Rebuild(msg))) => {
            assert!(msg.contains("capacity"), "{msg}")
        }
        other => panic!("expected a typed rebuild failure, got {other:?}"),
    }
    assert!(cold.basis_store().snapshot_bytes() == before, "untouched");
    assert_eq!(
        warm.restore_basis(&bytes).unwrap(),
        60,
        "the writer reloads it"
    );
}

// --------------------------------------------------------------- provenance

/// A snapshot of a few coarse Figure-2 points from a service built by
/// `build`, and that service.
fn small_snapshot(build: impl Fn() -> Prophet, label: &str) -> (Prophet, PathBuf) {
    let warm = build();
    let points: Vec<ParamPoint> = GridGuide::new(
        &Scenario::parse(&figure2_coarse_sql(0.05))
            .unwrap()
            .script()
            .params,
    )
    .take(20)
    .collect();
    warm.submit(JobSpec::points("figure2", points))
        .unwrap()
        .wait()
        .unwrap();
    let path = temp_path(label);
    assert_eq!(warm.save_basis("figure2", &path).unwrap(), 20);
    (warm, path)
}

/// `load_basis` of `path` into `cold` fails `WrongWorld { field }` and
/// leaves its store as it was; a service built like the writer loads it.
fn assert_wrong_world(cold: &Prophet, path: &PathBuf, field: &str, writer_twin: &Prophet) {
    let before = cold.basis_len("figure2").unwrap();
    match cold.load_basis("figure2", path).unwrap_err() {
        ProphetError::Snapshot(SnapshotError::WrongWorld { field: got }) => {
            assert_eq!(got, field)
        }
        other => panic!("wrong variant {other:?}"),
    }
    assert_eq!(cold.basis_len("figure2").unwrap(), before, "untouched");
    assert_eq!(writer_twin.load_basis("figure2", path).unwrap(), 20);
}

fn seeded(root_seed: u64) -> EngineConfig {
    EngineConfig {
        worlds_per_point: 8,
        threads: 2,
        root_seed,
        ..EngineConfig::default()
    }
}

/// A seed-1 basis is not a seed-7 service's: its samples are other draws.
#[test]
fn a_snapshot_of_another_seed_fails_wrong_world() {
    let src = figure2_coarse_sql(0.05);
    let build = |seed| service_from(&src, demo_registry(), seeded(seed));
    let (_, path) = small_snapshot(|| build(1), "seed");
    assert_wrong_world(&build(7), &path, "root_seed", &build(1));
    let _ = fs::remove_file(&path);
}

/// A basis drawn under another script is not this one's, even with the
/// same parameters and columns.
#[test]
fn a_snapshot_of_another_script_fails_wrong_world() {
    let (strict, loose) = (figure2_coarse_sql(0.01), figure2_coarse_sql(0.05));
    let build = |src: &str| service_from(src, demo_registry(), seeded(1));
    let (_, path) = small_snapshot(|| build(&loose), "script");
    assert_wrong_world(&build(&strict), &path, "script", &build(&loose));
    let _ = fs::remove_file(&path);
}

/// A model that delegates to another and declares a bumped tag: what a
/// re-pinned model looks like to a snapshot.
struct Retagged(Arc<dyn VgFunction>);

impl VgFunction for Retagged {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn arity(&self) -> usize {
        self.0.arity()
    }

    fn model_tag(&self) -> u32 {
        self.0.model_tag() + 1
    }

    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        self.0.invoke(params, rng)
    }
}

/// A basis drawn by an older version of a model is not the re-pinned
/// model's: a bumped `model_tag` fails the load.
#[test]
fn a_snapshot_under_a_bumped_model_tag_fails_wrong_world() {
    let src = figure2_coarse_sql(0.05);
    let (_, path) = small_snapshot(|| service_from(&src, demo_registry(), seeded(1)), "tag");
    let mut bumped = demo_registry();
    let demand = Arc::clone(bumped.get("DemandModel").unwrap());
    bumped.register(Arc::new(Retagged(demand)));
    let cold = service_from(&src, bumped, seeded(1));
    let twin = service_from(&src, demo_registry(), seeded(1));
    assert_wrong_world(&cold, &path, "registry", &twin);
    let _ = fs::remove_file(&path);
}
