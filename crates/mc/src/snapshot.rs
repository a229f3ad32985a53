//! The FPBS basis-snapshot codec: the byte format a
//! [`SharedBasisStore`](crate::store::SharedBasisStore) is saved in and
//! restored from (spelled out in `docs/CONCURRENCY.md`).
//!
//! Encoding is a pure function of the records handed in — header (with
//! the [`Provenance`] of the world the samples were drawn in), records in
//! stamp order with name-sorted maps, and a trailing four-lane word
//! checksum — so save → load → save is byte-identical. Decoding validates
//! the whole stream (length, magic, version, checksum, provenance, record
//! structure, recipe sources, stamp order, distinct points) into parsed
//! records and touches no store: installing them is the store's business.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use prophet_fingerprint::{Fingerprint, Mapping};
use prophet_vg::VgRegistry;

use crate::aggregate::ColumnMoments;
use crate::instance::ParamPoint;
use crate::store::{ColumnSamples, Recipe, Record};

/// Magic prefix of a basis snapshot ("FuzzyProphet Basis Snapshot").
const SNAPSHOT_MAGIC: [u8; 4] = *b"FPBS";
/// Current snapshot format version. Older versions are not read: they
/// fail with [`SnapshotError::UnsupportedVersion`].
const SNAPSHOT_VERSION: u16 = 4;
/// Magic, version, stamp counter, record count, and the fixed part of the
/// [`Provenance`]: the script, root-seed and probe-seed words and the
/// registry's entry count.
const SNAPSHOT_HEADER: usize = 4 + 2 + 8 + 8 + 8 + 8 + 8 + 4;
/// The trailing [`snapshot_checksum`] of every preceding byte.
pub(crate) const SNAPSHOT_FOOTER: usize = 8;

/// A record's kind byte, after its stamp: an unmatchable samples record
/// (columns only)…
pub(crate) const KIND_SAMPLES: u8 = 0;
/// …a matchable one (fingerprints, then columns)…
pub(crate) const KIND_SOURCE: u8 = 1;
/// …or a recipe record (source stamp, mappings, then moments).
pub(crate) const KIND_RECIPE: u8 = 2;

/// A mapping's tag byte, followed by its `f64` parameters:
/// [`Mapping::Identity`] (none)…
const MAP_IDENTITY: u8 = 0;
/// …[`Mapping::Offset`] (the offset)…
pub(crate) const MAP_OFFSET: u8 = 1;
/// …[`Mapping::Affine`] (scale, offset, residual standard deviation).
const MAP_AFFINE: u8 = 2;

/// Which world a snapshot's samples were drawn in: what must match for
/// them to be the loading service's answers. Every field is a stable
/// function of its input, so two services built alike write and expect
/// equal provenance. A bare store
/// ([`SharedBasisStore::new`](crate::store::SharedBasisStore::new)) has
/// the zero provenance, [`Provenance::default`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// FNV-1a of the scenario script's source text.
    pub script: u64,
    /// The root seed every world's draws derive from.
    pub root_seed: u64,
    /// FNV-1a of the probe seed set fingerprints are taken over.
    pub probe_seeds: u64,
    /// Every registered VG function's name and model tag
    /// (`VgFunction::model_tag`), name-sorted.
    pub registry: Vec<(String, u32)>,
}

impl Provenance {
    /// The provenance of samples drawn by `script` (its source text)
    /// under `root_seed`, fingerprinted over `probe_seeds`, with the
    /// models of `registry`.
    pub fn new(script: &str, root_seed: u64, probe_seeds: &[u64], registry: &VgRegistry) -> Self {
        let registry = (registry.names().into_iter())
            .map(|name| {
                let tag = (registry.get(&name)).map_or(0, |f| f.model_tag());
                (name, tag)
            })
            .collect();
        Provenance {
            script: fnv1a(script.bytes()),
            root_seed,
            probe_seeds: fnv1a(probe_seeds.iter().flat_map(|s| s.to_le_bytes())),
            registry,
        }
    }

    /// The first field in which `self` and `other` differ, if any.
    fn mismatch(&self, other: &Provenance) -> Option<&'static str> {
        [
            ("script", self.script == other.script),
            ("root_seed", self.root_seed == other.root_seed),
            ("probe_seeds", self.probe_seeds == other.probe_seeds),
            ("registry", self.registry == other.registry),
        ]
        .into_iter()
        .find_map(|(field, equal)| (!equal).then_some(field))
    }

    /// Bytes [`put_header`] writes for this provenance beyond
    /// [`SNAPSHOT_HEADER`]: each VG's name and tag.
    fn variable_len(&self) -> usize {
        (self.registry.iter())
            .map(|(name, _)| 4 + name.len() + 4)
            .sum()
    }
}

/// 64-bit FNV-1a: a stable hash, not a security one.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Why a basis snapshot could not be produced or restored. Restore
/// validates the *entire* byte stream — header, checksum, provenance,
/// structure, recipe sources and their structural check, capacity —
/// before touching any store state, so a failed restore leaves the store
/// exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the structure it promised, or a field
    /// held a structurally impossible value.
    Truncated,
    /// The leading magic was not `FPBS` — not a basis snapshot at all.
    BadMagic,
    /// The snapshot's format version is not one this build can read.
    UnsupportedVersion(u16),
    /// The trailing four-lane word checksum did not match the body: the
    /// file was corrupted after it was written.
    ChecksumMismatch,
    /// The snapshot's entries, charged as their writer charged them,
    /// exceed this store's byte budget: it was written by a larger store
    /// and restoring it would immediately evict.
    CapacityExceeded {
        /// Entries the snapshot holds.
        entries: usize,
        /// This store's capacity, in full-depth samples records.
        capacity: usize,
    },
    /// A recipe record does not name an earlier matchable samples record
    /// with its own `worlds`, so there is nothing to rebuild it from.
    DanglingRecipe {
        /// The recipe record's stamp.
        stamp: u64,
        /// The source stamp it names.
        source_stamp: u64,
    },
    /// The snapshot holds recipe records but was restored without a
    /// rebuild
    /// ([`SharedBasisStore::restore_bytes`](crate::store::SharedBasisStore::restore_bytes)); restore it through
    /// an engine (`Prophet::load_basis`).
    RecipeNeedsEngine,
    /// A recipe record fails the loading engine's structural check
    /// (`Rebuild::check`): its samples could not be rebuilt — the loading
    /// scenario lacks a mapped column, say (the engine's error,
    /// stringified).
    Rebuild(String),
    /// The snapshot was written in another world: its header's
    /// [`Provenance`] differs from the loading store's in `field`
    /// (`script`, `root_seed`, `probe_seeds` or `registry`), so its
    /// samples are not this service's answers.
    WrongWorld {
        /// The first differing provenance field.
        field: &'static str,
    },
    /// Filesystem failure (the underlying `io::Error`, stringified so the
    /// error stays `Clone` + `Eq` like every other `ProphetError` cause).
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated or structurally malformed"),
            SnapshotError::BadMagic => write!(f, "not a basis snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::CapacityExceeded { entries, capacity } => write!(
                f,
                "snapshot's {entries} entries exceed the store's capacity of {capacity} records"
            ),
            SnapshotError::DanglingRecipe {
                stamp,
                source_stamp,
            } => write!(
                f,
                "recipe record {stamp} names source {source_stamp}, \
                 which is no earlier matchable record of equal worlds"
            ),
            SnapshotError::RecipeNeedsEngine => {
                write!(
                    f,
                    "snapshot holds recipe records: restore it through an engine"
                )
            }
            SnapshotError::Rebuild(msg) => write!(f, "a recipe record cannot be rebuilt: {msg}"),
            SnapshotError::WrongWorld { field } => write!(
                f,
                "snapshot was written in another world: its {field} differs from this store's"
            ),
            SnapshotError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Initial states of the checksum's four word lanes.
const SUM_LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// Initial state of the checksum's final accumulator.
const SUM_FINAL_SEED: u64 = 0x4528_21E6_38D0_1377;
/// The checksum step's multiplier (odd, so the multiply is a bijection).
const SUM_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;
/// The checksum step's rotation.
const SUM_ROTATE: u32 = 31;
/// The xor-shift applied after folding each lane into the accumulator.
const SUM_FOLD_SHIFT: u32 = 29;

/// One checksum step. For a fixed `word` it is a bijection of `acc` (and
/// for a fixed `acc` one of `word`), so a single changed word changes
/// every later state. The rotate moves bit 63 into the low bits:
/// without it a bit-63 difference never leaves bit 63 and two such flips
/// in one lane cancel.
fn sum_step(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(SUM_PRIME).rotate_left(SUM_ROTATE)
}

/// The snapshot trailer's checksum (`docs/CONCURRENCY.md` spells it out).
/// Every 32-byte block feeds its four little-endian `u64` words to four
/// independent lanes, so the dependent multiplies of different lanes
/// overlap; the body length and the `len % 32` tail bytes (one step
/// each) go into a final accumulator, which then folds in the lanes in
/// order, each followed by an xor-shift.
pub(crate) fn snapshot_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = SUM_LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(
                word.try_into()
                    .expect("invariant: chunks_exact(8) yields 8-byte words"),
            );
            *lane = sum_step(*lane, word);
        }
    }
    let mut acc = sum_step(SUM_FINAL_SEED, bytes.len() as u64);
    for &b in blocks.remainder() {
        acc = sum_step(acc, b as u64);
    }
    for lane in lanes {
        acc = sum_step(acc, lane);
        acc ^= acc >> SUM_FOLD_SHIFT;
    }
    acc
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A column of `f64`s as their little-endian bits, in one resize.
fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A mapping's tag, and its `f64` parameters as the first `n` of three.
fn mapping_parts(mapping: &Mapping) -> (u8, [f64; 3], usize) {
    match *mapping {
        Mapping::Identity => (MAP_IDENTITY, [0.0; 3], 0),
        Mapping::Offset(offset) => (MAP_OFFSET, [offset, 0.0, 0.0], 1),
        Mapping::Affine {
            scale,
            offset,
            residual_std,
        } => (MAP_AFFINE, [scale, offset, residual_std], 3),
    }
}

/// A recipe's mappings in the order a snapshot writes them: by column.
fn sorted_mappings(recipe: &Recipe) -> Vec<(&String, &Mapping)> {
    let mut maps: Vec<(&String, &Mapping)> = recipe.mappings.iter().collect();
    maps.sort_by(|a, b| a.0.cmp(b.0));
    maps
}

/// What a recipe record writes in place of its samples: the recipe, and
/// its `moments` of each of `columns` — the name-sorted columns of the
/// source it names, every one of which `moments` covers. The source
/// fixes their names and count, so neither is written.
pub(crate) struct RecipeOut<'a> {
    pub(crate) recipe: &'a Recipe,
    pub(crate) moments: &'a ColumnMoments,
    pub(crate) columns: &'a [&'a str],
}

/// The exact number of bytes [`serialize_record`] writes for a record,
/// so a snapshot is written into one allocation of its final size.
fn record_len(point: &ParamPoint, record: &Record, recipe: Option<&RecipeOut<'_>>) -> usize {
    let name = |n: &str| 4 + n.len();
    let pairs: usize = point.iter().map(|(n, _)| name(n) + 8).sum();
    let head = 4 + pairs + 8 + 8 + 1;
    if let Some(out) = recipe {
        let maps: usize = (sorted_mappings(out.recipe).into_iter())
            .map(|(n, m)| name(n) + 1 + mapping_parts(m).2 * 8)
            .sum();
        return head + 8 + 4 + maps + out.columns.len() * 16;
    }
    let fps: usize = if record.matchable {
        let fps: usize = (record.fingerprints.iter().flat_map(|f| f.iter()))
            .map(|(n, fp)| name(n) + 4 + fp.values().len() * 8)
            .sum();
        4 + fps
    } else {
        0
    };
    let cols: usize = (record.samples().into_iter().flat_map(|s| s.iter()))
        .map(|(n, values)| name(n) + 8 + values.len() * 8)
        .sum();
    head + fps + 4 + cols
}

/// One record's bytes — a recipe record if `recipe` is given, else a
/// samples record — in a fixed field order with name-sorted maps, so the
/// serialization is a pure function of the record and its recipe's
/// liveness. Byte stability is what lets the round-trip tests assert
/// `restore(bytes).snapshot_bytes() == bytes`. A samples record must hold
/// its samples: a recipe record written as one is rebuilt first.
pub(crate) fn serialize_record(
    out: &mut Vec<u8>,
    point: &ParamPoint,
    record: &Record,
    recipe: Option<&RecipeOut<'_>>,
) {
    let pairs: Vec<(&str, i64)> = point.iter().collect();
    put_u32(out, pairs.len() as u32);
    for (name, value) in pairs {
        put_str(out, name);
        put_i64(out, value);
    }
    put_u64(out, record.worlds as u64);
    put_u64(out, record.stamp);
    if let Some(RecipeOut {
        recipe,
        moments,
        columns,
    }) = recipe
    {
        out.push(KIND_RECIPE);
        put_u64(out, recipe.source_stamp);
        let maps = sorted_mappings(recipe);
        put_u32(out, maps.len() as u32);
        for (name, mapping) in maps {
            put_str(out, name);
            let (tag, params, n) = mapping_parts(mapping);
            out.push(tag);
            put_f64s(out, &params[..n]);
        }
        for column in columns.iter() {
            let (mean, std_dev) = (moments.get(column))
                .expect("invariant: a written recipe's moments cover its source's columns");
            put_f64s(out, &[mean, std_dev]);
        }
        return;
    }
    if record.matchable {
        out.push(KIND_SOURCE);
        let mut fps: Vec<(&String, &Fingerprint)> =
            record.fingerprints.iter().flat_map(|f| f.iter()).collect();
        fps.sort_by(|a, b| a.0.cmp(b.0));
        put_u32(out, fps.len() as u32);
        for (name, fp) in fps {
            put_str(out, name);
            let values = fp.values();
            put_u32(out, values.len() as u32);
            put_f64s(out, values);
        }
    } else {
        out.push(KIND_SAMPLES);
    }
    let mut cols: Vec<(&String, &Vec<f64>)> = record
        .samples()
        .into_iter()
        .flat_map(|s| s.iter())
        .collect();
    cols.sort_by(|a, b| a.0.cmp(b.0));
    put_u32(out, cols.len() as u32);
    for (name, values) in cols {
        put_str(out, name);
        put_u64(out, values.len() as u64);
        put_f64s(out, values);
    }
}

/// A snapshot's header: magic, version, the stamp counter, the record
/// count, then `provenance` — its script, root-seed and probe-seed words
/// and its registry as a count of `(name, model tag)` pairs.
pub(crate) fn put_header(out: &mut Vec<u8>, provenance: &Provenance, next_stamp: u64, count: u64) {
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    put_u64(out, next_stamp);
    put_u64(out, count);
    put_u64(out, provenance.script);
    put_u64(out, provenance.root_seed);
    put_u64(out, provenance.probe_seeds);
    put_u32(out, provenance.registry.len() as u32);
    for (name, tag) in &provenance.registry {
        put_str(out, name);
        put_u32(out, *tag);
    }
}

/// A whole snapshot of `records` drawn in `provenance`'s world, given in
/// stamp order with the recipe each is written as (or `None` for its
/// samples): header, records, and the trailing checksum, in one
/// allocation of the final size.
pub(crate) fn encode_snapshot(
    provenance: &Provenance,
    next_stamp: u64,
    records: &[(&ParamPoint, Cow<'_, Record>, Option<RecipeOut<'_>>)],
) -> Vec<u8> {
    let body: usize = (records.iter())
        .map(|(p, r, recipe)| record_len(p, r, recipe.as_ref()))
        .sum();
    let total = SNAPSHOT_HEADER + provenance.variable_len() + body + SNAPSHOT_FOOTER;
    let mut out = Vec::with_capacity(total);
    put_header(&mut out, provenance, next_stamp, records.len() as u64);
    for (point, record, recipe) in records {
        serialize_record(&mut out, point, record, recipe.as_ref());
    }
    let checksum = snapshot_checksum(&out);
    put_u64(&mut out, checksum);
    debug_assert_eq!(
        out.len(),
        total,
        "record_len disagrees with serialize_record"
    );
    out
}

/// Bounds-checked little-endian reader over a snapshot body. Every
/// over-run is a [`SnapshotError::Truncated`].
struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or(SnapshotError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect(
            "invariant: take() returned exactly the requested width",
        )))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect(
            "invariant: take() returned exactly the requested width",
        )))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect(
            "invariant: take() returned exactly the requested width",
        )))
    }

    /// A mapping: its tag, then that tag's `f64` parameters. An unknown
    /// tag is structurally impossible.
    fn mapping(&mut self) -> Result<Mapping, SnapshotError> {
        let tag = self.take(1)?[0];
        let mut param = || self.u64().map(f64::from_bits);
        Ok(match tag {
            MAP_IDENTITY => Mapping::Identity,
            MAP_OFFSET => Mapping::Offset(param()?),
            MAP_AFFINE => Mapping::Affine {
                scale: param()?,
                offset: param()?,
                residual_std: param()?,
            },
            _ => return Err(SnapshotError::Truncated),
        })
    }

    /// A column of `len` little-endian `f64`s, taken as one slice: a
    /// hostile `len` fails the bounds check before anything is allocated.
    fn f64s(&mut self, len: usize) -> Result<Vec<f64>, SnapshotError> {
        let bytes = self.take(len.checked_mul(8).ok_or(SnapshotError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| {
                f64::from_le_bytes(
                    b.try_into()
                        .expect("invariant: chunks_exact(8) yields 8-byte words"),
                )
            })
            .collect())
    }

    /// A header's [`Provenance`]: three words, then the registry's
    /// `(name, model tag)` pairs, names sorted and unique.
    fn provenance(&mut self) -> Result<Provenance, SnapshotError> {
        let (script, root_seed, probe_seeds) = (self.u64()?, self.u64()?, self.u64()?);
        let count = self.u32()? as usize;
        let mut registry = Vec::with_capacity(count.min(64));
        let mut prev = None;
        for _ in 0..count {
            let name = self.next_name(&mut prev)?;
            registry.push((name, self.u32()?));
        }
        Ok(Provenance {
            script,
            root_seed,
            probe_seeds,
            registry,
        })
    }

    /// The next name of a list the writer emits sorted and unique (a
    /// point's pairs, a record's fingerprint or sample columns). One at
    /// or below `prev` is structurally impossible: accepting it would
    /// reorder a point or silently overwrite a column.
    fn next_name(&mut self, prev: &mut Option<&'a str>) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let name = std::str::from_utf8(self.take(len)?).map_err(|_| SnapshotError::Truncated)?;
        if prev.is_some_and(|p| p >= name) {
            return Err(SnapshotError::Truncated);
        }
        *prev = Some(name);
        Ok(name.to_owned())
    }
}

/// A parsed and validated snapshot record, not yet installed in any
/// store.
pub(crate) struct ParsedRecord {
    pub(crate) point: ParamPoint,
    pub(crate) worlds: usize,
    pub(crate) stamp: u64,
    pub(crate) body: ParsedBody,
}

/// What a parsed record carries.
pub(crate) enum ParsedBody {
    /// Its samples, and a matchable record's fingerprints.
    Samples {
        fingerprints: HashMap<String, Fingerprint>,
        samples: Arc<ColumnSamples>,
        matchable: bool,
    },
    /// Its recipe, the samples of the source record it names, and its
    /// moments, named by that source's columns.
    Recipe {
        recipe: Recipe,
        source: Arc<ColumnSamples>,
        moments: ColumnMoments,
    },
}

/// A matchable samples record parsed so far: what a later recipe record
/// may name.
struct Source {
    worlds: usize,
    samples: Arc<ColumnSamples>,
    /// Its column names, sorted: the order — and the names — of the
    /// moments of every recipe record that names it.
    columns: Arc<[String]>,
}

/// The [`Source`]s parsed so far, by stamp.
type Sources = HashMap<u64, Source>;

fn parse_record(
    r: &mut SnapshotReader<'_>,
    sources: &Sources,
) -> Result<ParsedRecord, SnapshotError> {
    let npairs = r.u32()? as usize;
    let mut pairs = Vec::with_capacity(npairs.min(64));
    let mut prev = None;
    for _ in 0..npairs {
        let name = r.next_name(&mut prev)?;
        let value = r.i64()?;
        pairs.push((name, value));
    }
    let point = ParamPoint::from_pairs(pairs);
    let worlds = r.u64()? as usize;
    let stamp = r.u64()?;
    let kind = r.take(1)?[0];
    let body = match kind {
        KIND_RECIPE => {
            let source_stamp = r.u64()?;
            let source = match sources.get(&source_stamp) {
                Some(source) if source.worlds == worlds => source,
                _ => {
                    return Err(SnapshotError::DanglingRecipe {
                        stamp,
                        source_stamp,
                    })
                }
            };
            let nmaps = r.u32()? as usize;
            let mut mappings = HashMap::with_capacity(nmaps.min(64));
            let mut prev = None;
            for _ in 0..nmaps {
                let name = r.next_name(&mut prev)?;
                mappings.insert(name, r.mapping()?);
            }
            let recipe = Recipe {
                source_stamp,
                mappings,
            };
            let mut values = Vec::with_capacity(source.columns.len());
            for _ in 0..source.columns.len() {
                values.push((f64::from_bits(r.u64()?), f64::from_bits(r.u64()?)));
            }
            let moments = ColumnMoments::from_parts(Arc::clone(&source.columns), values);
            ParsedBody::Recipe {
                recipe,
                source: Arc::clone(&source.samples),
                moments,
            }
        }
        KIND_SAMPLES | KIND_SOURCE => {
            let matchable = kind == KIND_SOURCE;
            let nfps = if matchable { r.u32()? as usize } else { 0 };
            let mut fingerprints = HashMap::with_capacity(nfps.min(64));
            let mut prev = None;
            for _ in 0..nfps {
                let name = r.next_name(&mut prev)?;
                let len = r.u32()? as usize;
                fingerprints.insert(name, Fingerprint::from_values(r.f64s(len)?));
            }
            let ncols = r.u32()? as usize;
            let mut samples: ColumnSamples = HashMap::with_capacity(ncols.min(64));
            let mut prev = None;
            for _ in 0..ncols {
                let name = r.next_name(&mut prev)?;
                let len = r.u64()? as usize;
                // Consumers index sample lanes by world (`0..worlds`): a
                // column of any other length is a malformed record,
                // however valid its checksum.
                if len != worlds {
                    return Err(SnapshotError::Truncated);
                }
                samples.insert(name, r.f64s(len)?);
            }
            ParsedBody::Samples {
                fingerprints,
                samples: Arc::new(samples),
                matchable,
            }
        }
        _ => return Err(SnapshotError::Truncated),
    };
    Ok(ParsedRecord {
        point,
        worlds,
        stamp,
        body,
    })
}

/// Parse and validate a whole snapshot — length, magic, version,
/// checksum, that it was drawn in `world`, record structure, recipe
/// sources, stamp order, distinct points — into its stamp counter and
/// records, touching no store.
pub(crate) fn parse_snapshot(
    bytes: &[u8],
    world: &Provenance,
) -> Result<(u64, Vec<ParsedRecord>), SnapshotError> {
    if bytes.len() < SNAPSHOT_HEADER + SNAPSHOT_FOOTER {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - SNAPSHOT_FOOTER);
    let stored_sum = u64::from_le_bytes(
        trailer
            .try_into()
            .expect("invariant: the footer-wide trailer converts to its array"),
    );
    if snapshot_checksum(body) != stored_sum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut reader = SnapshotReader { buf: body, pos: 6 };
    let next_stamp = reader.u64()?;
    let count = reader.u64()? as usize;
    let provenance = reader.provenance()?;
    if let Some(field) = provenance.mismatch(world) {
        return Err(SnapshotError::WrongWorld { field });
    }
    let mut parsed = Vec::with_capacity(count.min(65_536));
    let mut sources = Sources::new();
    for _ in 0..count {
        let record = parse_record(&mut reader, &sources)?;
        if let ParsedBody::Samples {
            samples,
            matchable: true,
            ..
        } = &record.body
        {
            let mut columns: Vec<String> = samples.keys().cloned().collect();
            columns.sort_unstable();
            let source = Source {
                worlds: record.worlds,
                samples: Arc::clone(samples),
                columns: columns.into(),
            };
            sources.insert(record.stamp, source);
        }
        parsed.push(record);
    }
    if reader.pos != body.len() {
        return Err(SnapshotError::Truncated);
    }
    let mut points = HashSet::with_capacity(count);
    let mut last_stamp = None;
    for r in &parsed {
        // A writer emits distinct points in strictly ascending stamp
        // order, none past its stamp counter. Anything else would file two
        // entries under one queue stamp (an orphan that is never scanned
        // or evicted), a stamp the next insert re-issues, or fewer entries
        // than the count returned. Ascending stamps also make a recipe's
        // source, which precedes it in the stream, an earlier record.
        if last_stamp.is_some_and(|last| r.stamp <= last)
            || r.stamp > next_stamp
            || !points.insert(&r.point)
        {
            return Err(SnapshotError::Truncated);
        }
        last_stamp = Some(r.stamp);
    }
    Ok((next_stamp, parsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checksum of a byte ramp of each length that exercises the
    /// lanes and the tail: empty, tail only, a full block, a block plus a
    /// tail byte, and many blocks. A change to the lanes, the constants
    /// or the tail handling is a format change and must move these.
    #[test]
    fn snapshot_checksum_digests_are_pinned() {
        let ramp = |n: usize| (0..n).map(|i| i as u8).collect::<Vec<u8>>();
        let digests: Vec<(usize, u64)> = [0, 1, 31, 32, 33, 1_000]
            .into_iter()
            .map(|n| (n, snapshot_checksum(&ramp(n))))
            .collect();
        assert_eq!(
            digests,
            [
                (0, 0x7ED3_50D0_E80A_440B),
                (1, 0xE5B1_2AC1_73DB_1D62),
                (31, 0x6C97_B273_41BB_EA72),
                (32, 0x7E3E_88C9_7CC9_0EF4),
                (33, 0x222F_46F1_060B_DE74),
                (1_000, 0xACB9_C6BB_DFA7_74C9),
            ]
        );
    }
}
