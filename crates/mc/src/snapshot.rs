//! The FPBS basis-snapshot codec: the byte format a
//! [`SharedBasisStore`](crate::store::SharedBasisStore) is saved in and
//! restored from (spelled out in `docs/CONCURRENCY.md`).
//!
//! Encoding is a pure function of the records handed in — header (with
//! the [`Provenance`] of the world the samples were drawn in and the
//! sorted table of the parameter names the points use), records in stamp
//! order with name-sorted maps, and a trailing four-lane word checksum —
//! so save → load → save is byte-identical. A point is written as its
//! `(name index, value)` pairs. Each distinct recipe is written once: the
//! first record that uses it defines it inline, and every later one names
//! it by index. Recipes are told apart by value (source stamp, mapping
//! bits, moment bits), never by allocation, so the bytes do not depend on
//! which records share one.
//!
//! Decoding validates the whole stream (length, magic, version, checksum,
//! provenance, record structure, recipe sources, stamp order, canonical
//! form) into parsed records and the recipes they share, and touches no
//! store: installing them is the store's business. It accepts exactly the
//! writer's canonical form — a table name no point uses, non-ascending
//! name indices, a recipe defined twice or an index not yet defined fail
//! [`SnapshotError::NotCanonical`] — so a stream that restores re-saves
//! to itself.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use prophet_fingerprint::{Fingerprint, Mapping};
use prophet_vg::{FastBuild, VgRegistry};

use crate::aggregate::ColumnMoments;
use crate::instance::ParamPoint;
use crate::store::{ColumnSamples, Recipe, Record};

/// Magic prefix of a basis snapshot ("FuzzyProphet Basis Snapshot").
const SNAPSHOT_MAGIC: [u8; 4] = *b"FPBS";
/// Current snapshot format version. Older versions are not read: they
/// fail with [`SnapshotError::UnsupportedVersion`].
pub(crate) const SNAPSHOT_VERSION: u16 = 5;
/// Magic, version, stamp counter, record count, the fixed part of the
/// [`Provenance`] — the script, root-seed and probe-seed words and the
/// registry's entry count — and the name table's entry count.
pub(crate) const SNAPSHOT_HEADER: usize = 4 + 2 + 8 + 8 + 8 + 8 + 8 + 4 + 4;
/// The trailing [`snapshot_checksum`] of every preceding byte.
pub(crate) const SNAPSHOT_FOOTER: usize = 8;

/// A record's kind byte, after its stamp and point: an unmatchable
/// samples record (worlds, columns)…
pub(crate) const KIND_SAMPLES: u8 = 0;
/// …a matchable one (worlds, fingerprints, then columns)…
pub(crate) const KIND_SOURCE: u8 = 1;
/// …a recipe record that defines its recipe (source stamp, mappings, then
/// moments)…
pub(crate) const KIND_RECIPE: u8 = 2;
/// …or a recipe record of a recipe an earlier record defined (its index,
/// in order of definition).
pub(crate) const KIND_RECIPE_INDEX: u8 = 3;

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
    /// A recipe record fails the loading engine's structural checks
    /// (`Rebuild::check_recipe`, `Rebuild::check_point`): its samples
    /// could not be rebuilt — the loading scenario lacks a mapped column,
    /// say (the engine's error, stringified).
    Rebuild(String),
    /// The snapshot was written in another world: its header's
    /// [`Provenance`] differs from the loading store's in `field`
    /// (`script`, `root_seed`, `probe_seeds` or `registry`), so its
    /// samples are not this service's answers.
    WrongWorld {
        /// The first differing provenance field.
        field: &'static str,
    },
    /// The stream is well formed but not in the writer's canonical form
    /// (the rule it breaks): a table name no point uses, a point whose
    /// name indices do not ascend, a recipe defined twice, or a recipe
    /// index not yet defined. Restoring it would re-save to other bytes.
    NotCanonical(&'static str),
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
            SnapshotError::NotCanonical(rule) => {
                write!(f, "snapshot is not in canonical form: {rule}")
            }
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

/// A mapping's tag and parameter bits: equal exactly when the two write
/// equal bytes.
fn mapping_bits(mapping: &Mapping) -> (u8, [u64; 3]) {
    let (tag, params, _) = mapping_parts(mapping);
    (tag, params.map(f64::to_bits))
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

impl RecipeOut<'_> {
    /// The moments as written: `(mean, std_dev)` bits in `columns` order.
    fn moment_bits(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.columns.iter().map(|column| {
            let (mean, std_dev) = (self.moments.get(column))
                .expect("invariant: a written recipe's moments cover its source's columns");
            (mean.to_bits(), std_dev.to_bits())
        })
    }
}

/// A recipe as its bytes see it: two are equal exactly when they write
/// the same definition — source stamp, mapping bits, moment bits — so a
/// snapshot writes each value once however many allocations hold it.
struct RecipeValue<'r, 'a>(&'r RecipeOut<'a>);

impl PartialEq for RecipeValue<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        if std::ptr::eq(a.recipe, b.recipe) && std::ptr::eq(a.moments, b.moments) {
            return true;
        }
        // Equal source stamps name one source, so the two cover the same
        // columns.
        let (maps, other_maps) = (&a.recipe.mappings, &b.recipe.mappings);
        // A recipe maps a few columns: a scan of them is cheaper than
        // hashing a name.
        let mapping =
            |column: &String| (other_maps.iter()).find_map(|(c, n)| (c == column).then_some(n));
        a.recipe.source_stamp == b.recipe.source_stamp
            && maps.len() == other_maps.len()
            && (maps.iter()).all(|(column, m)| {
                mapping(column).is_some_and(|n| mapping_bits(m) == mapping_bits(n))
            })
            && a.moments.bits_eq(b.moments)
    }
}

impl Eq for RecipeValue<'_, '_> {}

/// Hashes the source stamp and the moment bits, folded in an order-free
/// sum so the moments' own column order does not matter: what
/// [`PartialEq`] compares, less the mappings.
impl Hash for RecipeValue<'_, '_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let moments = (self.0.moments.values().iter()).fold(0u64, |sum, (mean, std_dev)| {
            let pair = mean.to_bits() ^ std_dev.to_bits().rotate_left(32);
            sum.wrapping_add(pair.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        });
        state.write_u64(self.0.recipe.source_stamp);
        state.write_u64(moments);
    }
}

/// How a snapshot writes one record.
#[derive(Clone, Copy)]
pub(crate) enum Shape<'r, 'a> {
    /// As the samples it holds (and a matchable one's fingerprints).
    Samples,
    /// As the recipe it is the first record to use, defined inline.
    Define(&'r RecipeOut<'a>),
    /// As the index of a recipe an earlier record defined.
    Index(u32),
}

/// Each record's [`Shape`], for records in stamp order with the recipe
/// each is written as: the first use of a recipe value defines it, and
/// every later use names it by its index in order of definition.
fn shapes<'r, 'a>(recipes: impl Iterator<Item = Option<&'r RecipeOut<'a>>>) -> Vec<Shape<'r, 'a>> {
    let mut defined: HashMap<RecipeValue<'r, 'a>, u32, FastBuild> = HashMap::default();
    recipes
        .map(|recipe| {
            let Some(out) = recipe else {
                return Shape::Samples;
            };
            let next = defined.len() as u32;
            match defined.entry(RecipeValue(out)) {
                Entry::Occupied(first) => Shape::Index(*first.get()),
                Entry::Vacant(slot) => {
                    slot.insert(next);
                    Shape::Define(out)
                }
            }
        })
        .collect()
}

/// The header's name table — the sorted, distinct parameter names of
/// the points written — and each point's indices into it. The points of
/// one scenario mostly share their names' allocations
/// ([`ParamPoint::shares_names`]), so a run of them is looked up once.
pub(crate) struct Names<'p> {
    table: Vec<&'p str>,
    last: Option<&'p ParamPoint>,
    indices: Vec<u32>,
}

impl<'p> Names<'p> {
    /// The table `table`, which is sorted and distinct.
    pub(crate) fn new(table: Vec<&'p str>) -> Self {
        Names {
            table,
            last: None,
            indices: Vec::new(),
        }
    }

    /// The table of every name `points` use.
    fn of(points: impl Iterator<Item = &'p ParamPoint>) -> Self {
        let mut table: Vec<&str> = Vec::new();
        let mut last: Option<&ParamPoint> = None;
        for point in points {
            if last.is_some_and(|last| point.shares_names(last)) {
                continue;
            }
            for (name, _) in point.iter() {
                if let Err(at) = table.binary_search(&name) {
                    table.insert(at, name);
                }
            }
            last = Some(point);
        }
        Names::new(table)
    }

    /// The bytes the header writes for the table, beyond its count.
    fn len(&self) -> usize {
        self.table.iter().map(|name| 4 + name.len()).sum()
    }

    /// `point`'s name indices, in its name order.
    fn indices(&mut self, point: &'p ParamPoint) -> &[u32] {
        if !self.last.is_some_and(|last| point.shares_names(last)) {
            self.indices.clear();
            for (name, _) in point.iter() {
                let index = (self.table.binary_search(&name))
                    .expect("invariant: the name table holds every written point's names");
                self.indices.push(index as u32);
            }
            self.last = Some(point);
        }
        &self.indices
    }
}

/// The exact number of bytes [`serialize_record`] writes for a record,
/// so a snapshot is written into one allocation of its final size.
fn record_len(point: &ParamPoint, record: &Record, shape: Shape<'_, '_>) -> usize {
    let name = |n: &str| 4 + n.len();
    let head = 8 + 4 + point.len() * (4 + 8) + 1;
    match shape {
        Shape::Index(_) => head + 4,
        Shape::Define(out) => {
            let maps: usize = (sorted_mappings(out.recipe).into_iter())
                .map(|(n, m)| name(n) + 1 + mapping_parts(m).2 * 8)
                .sum();
            head + 8 + 4 + maps + out.columns.len() * 16
        }
        Shape::Samples => {
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
            head + 8 + fps + 4 + cols
        }
    }
}

/// One record's bytes — its stamp, its point as `(index into names,
/// value)` pairs, then what `shape` says — in a fixed field order with
/// name-sorted maps, so the serialization is a pure function of the
/// record, its shape and the name table. Byte stability is what lets the
/// round-trip tests assert `restore(bytes).snapshot_bytes() == bytes`. A
/// record written as samples must hold them: a recipe record written so
/// is rebuilt first.
pub(crate) fn serialize_record<'p>(
    out: &mut Vec<u8>,
    names: &mut Names<'p>,
    point: &'p ParamPoint,
    record: &Record,
    shape: Shape<'_, '_>,
) {
    put_u64(out, record.stamp);
    put_u32(out, point.len() as u32);
    for (&index, (_, value)) in names.indices(point).iter().zip(point.iter()) {
        put_u32(out, index);
        put_i64(out, value);
    }
    match shape {
        Shape::Index(index) => {
            out.push(KIND_RECIPE_INDEX);
            put_u32(out, index);
        }
        Shape::Define(recipe_out) => {
            out.push(KIND_RECIPE);
            put_u64(out, recipe_out.recipe.source_stamp);
            let maps = sorted_mappings(recipe_out.recipe);
            put_u32(out, maps.len() as u32);
            for (name, mapping) in maps {
                put_str(out, name);
                let (tag, params, n) = mapping_parts(mapping);
                out.push(tag);
                put_f64s(out, &params[..n]);
            }
            for (mean, std_dev) in recipe_out.moment_bits() {
                put_u64(out, mean);
                put_u64(out, std_dev);
            }
        }
        Shape::Samples => {
            if record.matchable {
                out.push(KIND_SOURCE);
                put_u64(out, record.worlds as u64);
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
                put_u64(out, record.worlds as u64);
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
    }
}

/// A snapshot's header: magic, version, the stamp counter, the record
/// count, then `provenance` — its script, root-seed and probe-seed words
/// and its registry as a count of `(name, model tag)` pairs — and the
/// name table, a count of `names`.
pub(crate) fn put_header(
    out: &mut Vec<u8>,
    provenance: &Provenance,
    names: &Names<'_>,
    next_stamp: u64,
    count: u64,
) {
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
    put_u32(out, names.table.len() as u32);
    for name in &names.table {
        put_str(out, name);
    }
}

/// A whole snapshot of `records` drawn in `provenance`'s world, given in
/// stamp order with the recipe each is written as (or `None` for its
/// samples): header, records — each distinct recipe defined by its first
/// record — and the trailing checksum, in one allocation of the final
/// size.
pub(crate) fn encode_snapshot(
    provenance: &Provenance,
    next_stamp: u64,
    records: &[(&ParamPoint, Cow<'_, Record>, Option<RecipeOut<'_>>)],
) -> Vec<u8> {
    let mut names = Names::of(records.iter().map(|(point, ..)| *point));
    let shapes = shapes(records.iter().map(|(.., recipe)| recipe.as_ref()));
    let body: usize = (records.iter().zip(&shapes))
        .map(|((point, record, _), shape)| record_len(point, record, *shape))
        .sum();
    let total = SNAPSHOT_HEADER + provenance.variable_len() + names.len() + body + SNAPSHOT_FOOTER;
    let mut out = Vec::with_capacity(total);
    put_header(
        &mut out,
        provenance,
        &names,
        next_stamp,
        records.len() as u64,
    );
    for ((point, record, _), shape) in records.iter().zip(&shapes) {
        serialize_record(&mut out, &mut names, point, record, *shape);
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
            let name = self.next_name(&mut prev)?.to_owned();
            registry.push((name, self.u32()?));
        }
        Ok(Provenance {
            script,
            root_seed,
            probe_seeds,
            registry,
        })
    }

    /// The next name of a list the writer emits sorted and unique (the
    /// name table, a record's fingerprint or sample columns, a recipe's
    /// mappings). One at or below `prev` is structurally impossible:
    /// accepting it would reorder a point or silently overwrite a column.
    fn next_name(&mut self, prev: &mut Option<&'a str>) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let name = std::str::from_utf8(self.take(len)?).map_err(|_| SnapshotError::Truncated)?;
        if prev.is_some_and(|p| p >= name) {
            return Err(SnapshotError::Truncated);
        }
        *prev = Some(name);
        Ok(name)
    }

    /// The header's name table: its names, sorted and unique, each shared
    /// by every point that uses it.
    fn name_table(&mut self) -> Result<Vec<Arc<str>>, SnapshotError> {
        let count = self.u32()? as usize;
        let mut names = Vec::with_capacity(count.min(64));
        let mut prev = None;
        for _ in 0..count {
            names.push(Arc::from(self.next_name(&mut prev)?));
        }
        Ok(names)
    }

    /// A point: its `(name index, value)` pairs, indices ascending, built
    /// through `scratch` in one allocation that shares the table's names.
    /// Marks each index it uses in `used`.
    fn point(
        &mut self,
        names: &[Arc<str>],
        used: &mut [bool],
        scratch: &mut Vec<(Arc<str>, i64)>,
    ) -> Result<ParamPoint, SnapshotError> {
        let count = self.u32()?;
        scratch.clear();
        let mut prev = None;
        for _ in 0..count {
            let index = self.u32()? as usize;
            let value = self.i64()?;
            let name = names.get(index).ok_or(SnapshotError::Truncated)?;
            if prev.is_some_and(|p| p >= index) {
                return Err(SnapshotError::NotCanonical("name indices not ascending"));
            }
            prev = Some(index);
            used[index] = true;
            scratch.push((Arc::clone(name), value));
        }
        Ok(ParamPoint::from_sorted(scratch))
    }
}

/// A parsed and validated snapshot, not yet installed in any store.
pub(crate) struct ParsedSnapshot {
    /// The writer's stamp counter.
    pub(crate) next_stamp: u64,
    /// Every record, in stamp order.
    pub(crate) records: Vec<ParsedRecord>,
    /// Every recipe the records share, in order of definition.
    pub(crate) recipes: Vec<ParsedRecipe>,
}

/// A parsed record.
pub(crate) struct ParsedRecord {
    pub(crate) point: ParamPoint,
    pub(crate) stamp: u64,
    pub(crate) body: ParsedBody,
}

/// What a parsed record carries.
pub(crate) enum ParsedBody {
    /// Its samples, and a matchable record's fingerprints.
    Samples {
        worlds: usize,
        fingerprints: HashMap<String, Fingerprint>,
        samples: Arc<ColumnSamples>,
        matchable: bool,
    },
    /// The index of its recipe in [`ParsedSnapshot::recipes`].
    Recipe(usize),
}

/// A parsed recipe: the recipe, the samples and worlds of the source
/// record it names, and its moments, named by that source's columns.
pub(crate) struct ParsedRecipe {
    pub(crate) recipe: Recipe,
    pub(crate) source: Arc<ColumnSamples>,
    pub(crate) worlds: usize,
    pub(crate) moments: ColumnMoments,
}

/// A matchable samples record parsed so far: what a later recipe may
/// name.
struct Source {
    worlds: usize,
    samples: Arc<ColumnSamples>,
    /// Its column names, sorted: the order — and the names — of the
    /// moments of every recipe that names it.
    columns: Arc<[String]>,
}

/// The [`Source`]s parsed so far, by stamp.
type Sources = HashMap<u64, Source, FastBuild>;

/// A recipe's definition, after the kind byte of the record at `stamp`
/// that defines it: its source stamp — an earlier matchable record —
/// its mappings, and a moments pair per source column.
fn parse_recipe(
    r: &mut SnapshotReader<'_>,
    stamp: u64,
    sources: &Sources,
) -> Result<ParsedRecipe, SnapshotError> {
    let source_stamp = r.u64()?;
    let source = (sources.get(&source_stamp)).ok_or(SnapshotError::DanglingRecipe {
        stamp,
        source_stamp,
    })?;
    let nmaps = r.u32()? as usize;
    let mut mappings = HashMap::with_capacity(nmaps.min(64));
    let mut prev = None;
    for _ in 0..nmaps {
        let name = r.next_name(&mut prev)?.to_owned();
        mappings.insert(name, r.mapping()?);
    }
    let mut values = Vec::with_capacity(source.columns.len());
    for _ in 0..source.columns.len() {
        values.push((f64::from_bits(r.u64()?), f64::from_bits(r.u64()?)));
    }
    Ok(ParsedRecipe {
        recipe: Recipe {
            source_stamp,
            mappings,
        },
        source: Arc::clone(&source.samples),
        worlds: source.worlds,
        moments: ColumnMoments::from_parts(Arc::clone(&source.columns), values),
    })
}

/// A samples record's body, after its kind byte: its worlds, a matchable
/// one's fingerprints, and its columns of exactly `worlds` lanes.
fn parse_samples(r: &mut SnapshotReader<'_>, matchable: bool) -> Result<ParsedBody, SnapshotError> {
    let worlds = r.u64()? as usize;
    let nfps = if matchable { r.u32()? as usize } else { 0 };
    let mut fingerprints = HashMap::with_capacity(nfps.min(64));
    let mut prev = None;
    for _ in 0..nfps {
        let name = r.next_name(&mut prev)?.to_owned();
        let len = r.u32()? as usize;
        fingerprints.insert(name, Fingerprint::from_values(r.f64s(len)?));
    }
    let ncols = r.u32()? as usize;
    let mut samples: ColumnSamples = HashMap::with_capacity(ncols.min(64));
    let mut prev = None;
    for _ in 0..ncols {
        let name = r.next_name(&mut prev)?.to_owned();
        let len = r.u64()? as usize;
        // Consumers index sample lanes by world (`0..worlds`): a column of
        // any other length is a malformed record, however valid its
        // checksum.
        if len != worlds {
            return Err(SnapshotError::Truncated);
        }
        samples.insert(name, r.f64s(len)?);
    }
    Ok(ParsedBody::Samples {
        worlds,
        fingerprints,
        samples: Arc::new(samples),
        matchable,
    })
}

/// Parse and validate a whole snapshot — length, magic, version,
/// checksum, that it was drawn in `world`, record structure, recipe
/// sources, stamp order and canonical form — into its stamp counter, its
/// records and the recipes they share, touching no store. Distinct points
/// are left to the install, whose own insert sees a repeated one.
pub(crate) fn parse_snapshot(
    bytes: &[u8],
    world: &Provenance,
) -> Result<ParsedSnapshot, SnapshotError> {
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
    let names = reader.name_table()?;
    let mut used = vec![false; names.len()];
    let mut scratch = Vec::with_capacity(names.len());
    let mut records = Vec::with_capacity(count.min(65_536));
    let mut recipes = Vec::new();
    // Each definition's bytes: equal values write equal bytes.
    let mut defined: HashSet<&[u8], FastBuild> = HashSet::default();
    let mut sources = Sources::default();
    let mut last_stamp = None;
    for _ in 0..count {
        let stamp = reader.u64()?;
        // A writer emits records in strictly ascending stamp order, none
        // past its stamp counter. Anything else would file two entries
        // under one queue stamp (an orphan that is never scanned or
        // evicted), or a stamp the next insert re-issues. Ascending stamps
        // also make a recipe's source, which precedes it in the stream,
        // an earlier record.
        if last_stamp.is_some_and(|last| stamp <= last) || stamp > next_stamp {
            return Err(SnapshotError::Truncated);
        }
        last_stamp = Some(stamp);
        let point = reader.point(&names, &mut used, &mut scratch)?;
        let parsed = match reader.take(1)?[0] {
            KIND_RECIPE => {
                let start = reader.pos;
                recipes.push(parse_recipe(&mut reader, stamp, &sources)?);
                if !defined.insert(&body[start..reader.pos]) {
                    return Err(SnapshotError::NotCanonical("a recipe defined twice"));
                }
                ParsedBody::Recipe(recipes.len() - 1)
            }
            KIND_RECIPE_INDEX => {
                let index = reader.u32()? as usize;
                if index >= recipes.len() {
                    return Err(SnapshotError::NotCanonical(
                        "a recipe index not yet defined",
                    ));
                }
                ParsedBody::Recipe(index)
            }
            kind @ (KIND_SAMPLES | KIND_SOURCE) => {
                let parsed = parse_samples(&mut reader, kind == KIND_SOURCE)?;
                if let ParsedBody::Samples {
                    worlds,
                    samples,
                    matchable: true,
                    ..
                } = &parsed
                {
                    let mut columns: Vec<String> = samples.keys().cloned().collect();
                    columns.sort_unstable();
                    let source = Source {
                        worlds: *worlds,
                        samples: Arc::clone(samples),
                        columns: columns.into(),
                    };
                    sources.insert(stamp, source);
                }
                parsed
            }
            _ => return Err(SnapshotError::Truncated),
        };
        records.push(ParsedRecord {
            point,
            stamp,
            body: parsed,
        });
    }
    if reader.pos != body.len() {
        return Err(SnapshotError::Truncated);
    }
    if used.contains(&false) {
        return Err(SnapshotError::NotCanonical("a table name no point uses"));
    }
    Ok(ParsedSnapshot {
        next_stamp,
        records,
        recipes,
    })
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
