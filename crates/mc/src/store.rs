//! The shared, parameter-point-keyed basis store.
//!
//! The paper's Storage Manager holds "the set of basis distributions
//! containing the output of prior scenario evaluation runs". In the demo
//! that store lived inside a single GUI session; the service architecture
//! shares one store per scenario across *every* session, so a slider move in
//! one session can re-map results another session simulated
//! ([`SharedBasisStore`] is `Clone` + thread-safe: clones are handles onto
//! the same shared state).
//!
//! Beyond storage, the store coordinates *work*: per-point in-flight guards
//! ([`SharedBasisStore::try_claim`]) guarantee that N concurrent sessions
//! evaluating the same cold point block on one simulation instead of each
//! running it (the thundering-herd dedup), and
//! [`SharedBasisStore::scan_snapshot_shared`] hands a batch one lock-free
//! view of the candidate sources that each of its probes then scans
//! independently ([`ScanSnapshot::scan_probe`]) — the same view for as
//! long as no candidate source comes or goes.
//!
//! # One table
//!
//! Every entry lives in one table behind one [`rank::STORE_TABLE`]
//! `RwLock`: the point → record map, the insertion-stamp counter, the
//! byte budget's books, and the stamp-ordered queues that making room
//! pops from and that give the match scan its candidate order.
//!
//! An insert is one write guard; a scan's snapshot holds one read guard
//! just long enough to clone the matchable records'
//! `Arc`s in stamp order, and every probe then runs its window and wave
//! scans over that list with no store lock held. Windows, wave
//! boundaries, pruning decisions, chosen sources, and the scan accounting
//! are functions of the stamp order alone, so they are bit-identical at
//! any thread count.
//! Claims and publishes serialize per store on the in-flight table
//! ([`rank::INFLIGHT_TABLE`]), which is held across the table access.
//!
//! # Recipe records
//!
//! A mapped record holds no samples. It is a *recipe record*: a
//! [`RecipeBody`] — its [`Recipe`], the source's samples `Arc` its hit
//! carried, and the engine's [`Rebuild`] handle, so a source evicted or
//! replaced later cannot change it, plus every column's
//! `(mean, std_dev)` ([`ColumnMoments`]) — which every record of that
//! recipe shares. A published one is filed so from birth — a fingerprint
//! hit publishes the engine's recipe memo entry, never samples, so the
//! memo and every record of the recipe hold one body — and a restored one
//! from the body its snapshot's recipe and moments build, one per recipe.
//! Only simulated and unsourced records hold samples.
//!
//! A claim reads a recipe record without rebuilding it:
//! [`SharedBasisStore::try_claim_stored`] → [`TryClaim::Ready`] hands out
//! a [`StoredEntry`] — the moments, and what rebuilds the samples — as do
//! [`InflightGuard::complete_mapped`] to its caller and
//! [`WaitHandle::wait`] to the point's waiters, and a reader that needs
//! only moments (an `EXPECT` answer, a GRAPH render) never rebuilds. A
//! samples read — [`StoredEntry::materialize`], which
//! the materializing [`SharedBasisStore::try_claim`],
//! [`SharedBasisStore::get_exact`] and a save that cannot write a recipe
//! also run — rebuilds them with the remap that made them, on the same
//! inputs, so they are its published bits (a restored record's are the
//! warm store's: the same remap on the same inputs); the rebuild runs on
//! the reader's thread after every store lock is released, and is not
//! kept.
//!
//! # A byte budget: evict
//!
//! The store's capacity is `capacity` full-depth samples records' worth
//! of bytes: each record is charged its lanes, fingerprint values and
//! moments at 8 bytes, its mappings, and a fixed measured overhead, and
//! the unit is the largest charge of any samples record the table has
//! held. A store of equal-depth records without recipes therefore evicts
//! exactly as an entry count would; a recipe record costs about a tenth
//! of a 400-world samples record. Past the budget a publish evicts the
//! oldest unmatchable entry, then the oldest matchable one.
//!
//! # The summary index
//!
//! Every published matchable record stores a [`SummaryTable`] of
//! per-column fingerprint moments (`prophet_fingerprint::index`). A
//! probe's scan runs in two steps over one summary of the probe:
//!
//! 1. **The exact-match window.** An indexed snapshot also sorts, per
//!    scanned column, the candidates' centred keys. The probe
//!    binary-searches each varying column's window (around its key and
//!    its negation), takes the candidates of the window that holds the
//!    fewest, drops those whose other columns' keys fall outside their
//!    own windows, and compares the rest in stamp order: the first with total error 0 is the answer, since nothing
//!    beats 0 and ties go to the earliest stamp, and every zero-error
//!    source lies in the window (`prophet_fingerprint::index` proves
//!    it).
//! 2. **Branch and bound**, only when the window holds no zero-error
//!    source (or the probe has no window: a missing column, a length that
//!    differs from the snapshot's, no varying column narrow enough). It
//!    walks candidates in insertion-stamp order in fixed-size waves,
//!    pruning every candidate whose summary bound proves it cannot beat
//!    the probe's best match of earlier waves (or cannot match at all)
//!    before paying for the entry-by-entry
//!    [`CorrelationDetector::detect_all`] comparison.
//!
//! Column names resolve to table positions once per candidate at
//! snapshot time, so the per-pair bound hashes no string. Because the
//! bound is a true lower bound and ties resolve to the earliest stamp,
//! the chosen source is identical to the exhaustive scan's — and because
//! a probe's window and pruning decisions consult only the snapshot and
//! its own incumbent of completed waves (a constant wave width), the
//! probes of a batch scan independently, on any number of threads, with
//! identical scanned/pruned/window accounting. The index is maintained
//! under publish, replace, eviction and clear (the key windows are part
//! of each snapshot); `use_index: false` keeps the exhaustive scan
//! available for differential testing.
//!
//! # Persistence
//!
//! A store's records — samples, source fingerprints, recipes, stamps,
//! matchability — are a self-contained serializable unit:
//! [`SharedBasisStore::snapshot_bytes`] emits them in global stamp order
//! and [`SharedBasisStore::restore_with`] rebuilds a store that scans,
//! evicts, and stamps exactly like the original, so a service restart
//! warms from disk instead of re-simulating its basis population. The
//! format (`FPBS` v5, spelled out in `docs/CONCURRENCY.md`; the codec is
//! the `snapshot` module) is versioned, names the world its samples were
//! drawn in ([`Provenance`]: script, root seed, probe seeds, models),
//! writes each parameter name once, and ends in a word-wise four-lane
//! checksum. A simulated record travels as its columns — raw
//! little-endian `f64` runs, encoded into one exact-size buffer and
//! decoded one bounds-checked slice per column. A mapped record whose
//! source is still stored travels as its [`Recipe`] (the source's stamp
//! and the per-column [`Mapping`]s) and its moments, each distinct recipe
//! written once and named by index after that. A restore rebuilds
//! nothing: it checks each recipe once against the caller's [`Rebuild`]
//! ([`Rebuild::check_recipe`], and [`Rebuild::check_point`] per set of names)
//! and installs its records as recipe records sharing one body,
//! answering moments reads from the file's moments — the warm
//! store's bits — and rebuilding samples, through the engine's own
//! remap, only when they are read. Corrupt input, or a snapshot of another
//! world, is rejected with a typed [`SnapshotError`] before any store
//! state is touched, and [`SharedBasisStore::save_to`] replaces its file
//! atomically.
//!
//! The store is the paper's Storage Manager: keyed by [`ParamPoint`], it
//! holds the full sample sets the Figure-1 evaluation cycle answers from,
//! plus the per-column fingerprints of the simulated entries that serve as
//! mapping sources.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use prophet_fingerprint::index::{
    bound_all, summarize_probe, ExactKey, ExactWindow, FingerprintSummary, MatchBound, SummaryTable,
};
use prophet_fingerprint::{CorrelationDetector, Fingerprint, Mapping};
use prophet_vg::{FastBuild, ShortList};

use crate::aggregate::ColumnMoments;
use crate::instance::ParamPoint;
use crate::snapshot::{encode_snapshot, parse_snapshot, ParsedBody, RecipeOut};
pub use crate::snapshot::{Provenance, SnapshotError};
use crate::sync::{rank, ClaimLedger, OrderedCondvar, OrderedMutex, OrderedRwLock};
use crate::trace::{TraceEventKind, Tracer, NO_CHUNK, NO_JOB};

/// Per-column Monte Carlo samples for one parameter point.
pub type ColumnSamples = HashMap<String, Vec<f64>>;

/// A successful correlated lookup: where the samples came from and how to
/// map each stochastic column onto the queried parameterization.
pub struct BasisHit {
    /// The basis point whose samples matched.
    pub source: ParamPoint,
    /// The source record's insertion stamp: with `mappings`, the
    /// [`Recipe`] of the entry this hit is published as.
    pub source_stamp: u64,
    /// Per-column mapping from the source samples to the queried point.
    pub mappings: HashMap<String, Mapping>,
    /// The source point's stored samples (all columns).
    pub samples: Arc<ColumnSamples>,
    /// Worlds backing the stored samples.
    pub worlds: usize,
}

/// How a mapped entry was made: the insertion stamp of the matchable
/// record it was re-mapped from, and the per-column mapping applied to
/// that record's samples. Stamps are never reused, so the stamp names
/// those exact samples for as long as it is in the table, and re-running
/// the remap reproduces the entry bit for bit — which is what lets a
/// snapshot carry the recipe instead of the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Insertion stamp of the source record.
    pub source_stamp: u64,
    /// Per-column mapping from the source's samples.
    pub mappings: HashMap<String, Mapping>,
}

/// Re-derives a mapped entry's samples from its recipe: the remap that
/// made them at publish, so the result is those bits. The store calls it
/// to rebuild a recipe record's samples when they are read or saved,
/// always with no store lock held. A restore runs none: it only checks
/// each recipe it installs ([`Rebuild::check_recipe`]) and each point of
/// it ([`Rebuild::check_point`]).
///
/// A handle owns the remap's inputs only (for the engine: its SELECT,
/// VG registry, column lists and tier), never a store, so records holding
/// it form no reference cycle.
pub trait Rebuild: Send + Sync {
    /// The samples `mappings` make at `point` from `source`'s `worlds`
    /// lanes, or why they cannot be made.
    fn rebuild(
        &self,
        point: &ParamPoint,
        source: &ColumnSamples,
        mappings: &HashMap<String, Mapping>,
        worlds: usize,
    ) -> Result<Arc<ColumnSamples>, String>;

    /// Whether [`Rebuild::rebuild`] can run on a recipe's inputs, checked
    /// structurally — which columns are mapped and held, at what depth —
    /// without running it. A restore checks each recipe once, however many
    /// records share it, and installs them only if this and
    /// [`Rebuild::check_point`] pass for each; it rebuilds their samples
    /// later, on a read, so checks that pass must mean the rebuild
    /// succeeds.
    fn check_recipe(
        &self,
        source: &ColumnSamples,
        mappings: &HashMap<String, Mapping>,
        worlds: usize,
    ) -> Result<(), String>;

    /// Whether [`Rebuild::rebuild`] can run at `point` on inputs
    /// [`Rebuild::check_recipe`] passed. It may depend on which parameters
    /// the point binds, never on their values: a restore checks a run of
    /// recipe records whose points carry the same names once.
    fn check_point(&self, point: &ParamPoint) -> Result<(), String>;
}

/// A shared [`Rebuild`]: the engine's, held by each of its mapped records.
pub type RebuildHandle = Arc<dyn Rebuild>;

/// The shared body of every recipe record of one recipe: everything such
/// a record needs to re-derive its samples — its recipe, the very source
/// samples it was mapped from (held, so a source evicted or replaced
/// later cannot change the rebuild), and the remap — and, so a reader of
/// moments only never needs them, every column's `(mean, std_dev)`: the
/// kernel's bits of those samples, taken where the recipe was re-mapped
/// or read from its snapshot.
///
/// A clone is a second handle onto the same allocation. A restore builds
/// one per recipe its file defines, and the engine's recipe memo one per
/// recipe it remaps, which every record it publishes of that recipe
/// files ([`InflightGuard::complete_mapped`]) — so a store holds one body
/// per recipe, counted by [`SharedBasisStore::recipe_bodies`].
#[derive(Clone)]
pub struct RecipeBody(Arc<Mapped>);

struct Mapped {
    recipe: Recipe,
    source: Arc<ColumnSamples>,
    rebuild: RebuildHandle,
    moments: ColumnMoments,
}

impl RecipeBody {
    /// The body of `recipe` applied to `source` — the samples its source
    /// stamp names — through `rebuild`, whose samples' moments are
    /// `moments` ([`ColumnMoments::named`]).
    pub fn new(
        recipe: Recipe,
        source: Arc<ColumnSamples>,
        rebuild: RebuildHandle,
        moments: ColumnMoments,
    ) -> Self {
        RecipeBody(Arc::new(Mapped {
            recipe,
            source,
            rebuild,
            moments,
        }))
    }

    /// Every column's `(mean, std_dev)` of the samples the recipe makes.
    pub fn moments(&self) -> &ColumnMoments {
        &self.0.moments
    }

    fn rebuild(&self, point: &ParamPoint, worlds: usize) -> Result<Arc<ColumnSamples>, String> {
        (self.0.rebuild).rebuild(point, &self.0.source, &self.0.recipe.mappings, worlds)
    }
}

/// What one record costs against the store's byte budget
/// ([`Record::charge`]) beyond its sample lanes, fingerprint values and
/// mappings: its table slot and point key, the key's clone in a stamp
/// queue, the record's shared parts, and the allocator's headers on all
/// of them. Measured as resident-set growth over 40,000 Figure-2-shaped
/// records inserted on one thread (4-parameter points, 3 columns of 400
/// lanes, 2 mappings each): ≈ 1,030 bytes per recipe record, of which
/// the mappings are ≈ 2 × [`MAPPING_BYTES`]. A samples record's column
/// map adds ≈ 450 bytes the charge leaves out (≈ 4 % of its 11 KB).
const RECORD_OVERHEAD: usize = 770;
/// What one column mapping costs: its name, its [`Mapping`] and its
/// hash-map slot.
const MAPPING_BYTES: usize = 128;

#[derive(Clone)]
pub(crate) struct Record {
    /// The probe fingerprints a match scan compares against, and their
    /// per-column summary statistics, precomputed at publish time so the
    /// match scan can bound this record's error against any probe without
    /// touching the fingerprints themselves. `None` for unmatchable
    /// records: they are never candidates, so nothing reads them.
    pub(crate) fingerprints: Option<Arc<HashMap<String, Fingerprint>>>,
    summaries: Option<Arc<SummaryTable>>,
    body: Body,
    pub(crate) worlds: usize,
    pub(crate) stamp: u64,
    /// Whether this entry may serve as a *source* for fingerprint matching.
    /// Only fully simulated entries qualify: a point reachable through an
    /// exact-mapped entry is also reachable through that entry's own
    /// source, so restricting candidates to simulated entries keeps match
    /// scans proportional to the number of genuinely distinct
    /// distributions, not the number of visited points.
    pub(crate) matchable: bool,
}

/// What a record holds: its samples, or what rebuilds them.
#[derive(Clone)]
enum Body {
    /// A simulated or unsourced record's samples, for *all* output
    /// columns (stochastic and derived).
    Samples(Arc<ColumnSamples>),
    /// A recipe record: how a mapped record's samples were made
    /// ([`InflightGuard::complete_mapped`]), and their moments, in the
    /// body every record of its recipe shares. A snapshot writes the
    /// recipe and moments while its source is still stored, and a
    /// samples read rebuilds from it.
    Recipe(RecipeBody),
}

impl Body {
    /// The samples held: `None` for a recipe record.
    fn samples(&self) -> Option<&Arc<ColumnSamples>> {
        match self {
            Body::Samples(samples) => Some(samples),
            Body::Recipe(_) => None,
        }
    }
}

impl Record {
    /// Build a samples record. A matchable one keeps its fingerprints and
    /// summarizes them; an unmatchable one drops them.
    fn new(
        fingerprints: HashMap<String, Fingerprint>,
        samples: Arc<ColumnSamples>,
        worlds: usize,
        stamp: u64,
        matchable: bool,
    ) -> Self {
        let summaries = matchable.then(|| Arc::new(SummaryTable::of(&fingerprints)));
        Record {
            fingerprints: matchable.then(|| Arc::new(fingerprints)),
            summaries,
            body: Body::Samples(samples),
            worlds,
            stamp,
            matchable,
        }
    }

    /// Build a recipe record: unmatchable, made by `body`, which the
    /// other records of its recipe share.
    fn mapped(worlds: usize, stamp: u64, body: RecipeBody) -> Self {
        Record {
            fingerprints: None,
            summaries: None,
            body: Body::Recipe(body),
            worlds,
            stamp,
            matchable: false,
        }
    }

    /// The samples the record holds: `None` for a recipe record.
    pub(crate) fn samples(&self) -> Option<&Arc<ColumnSamples>> {
        self.body.samples()
    }

    /// Bytes this record holds against the store's budget: its sample
    /// lanes, fingerprint values and moments at 8 bytes each, its
    /// mappings, and the fixed [`RECORD_OVERHEAD`]. A recipe record's
    /// source samples are the source record's, so it is charged its
    /// overhead, mappings and moments alone.
    fn charge(&self) -> usize {
        let prints: usize = (self.fingerprints.iter())
            .flat_map(|f| f.values())
            .map(|fp| fp.values().len())
            .sum();
        let body = match &self.body {
            Body::Samples(samples) => samples.values().map(Vec::len).sum::<usize>() * 8,
            Body::Recipe(RecipeBody(m)) => {
                2 * m.moments.columns().len() * 8 + m.recipe.mappings.len() * MAPPING_BYTES
            }
        };
        RECORD_OVERHEAD + prints * 8 + body
    }

    /// At most what the store that wrote this record into a snapshot
    /// charged it. A recipe record whose source was re-published travels
    /// as its samples — an unmatchable samples record — but was charged
    /// as a recipe record: its overhead, a moments pair per column and its
    /// mappings. So an unmatchable samples record is charged no more than
    /// the overhead and moments pairs of its columns.
    fn writer_charge(&self) -> usize {
        match &self.body {
            Body::Samples(samples) if !self.matchable => {
                self.charge().min(RECORD_OVERHEAD + 2 * samples.len() * 8)
            }
            _ => self.charge(),
        }
    }
}

/// A stored entry as a read copies it out of the table, rebuilding
/// nothing: a samples record's samples, or what rebuilds a recipe
/// record's plus the moments it keeps. What
/// [`SharedBasisStore::try_claim_stored`] hands out; a reader that needs
/// the samples calls [`StoredEntry::materialize`] on its own thread, with
/// no store lock held.
#[derive(Clone)]
pub struct StoredEntry {
    body: Body,
    worlds: usize,
    /// The counters that count each rebuild.
    stats: Arc<OrderedMutex<Counters>>,
}

impl StoredEntry {
    /// Copy `record` out — two reference counts: under the table lock a
    /// read holds, or as a publish files it.
    fn of(record: &Record, stats: &Arc<OrderedMutex<Counters>>) -> Self {
        StoredEntry {
            body: record.body.clone(),
            worlds: record.worlds,
            stats: Arc::clone(stats),
        }
    }

    /// Worlds backing the entry's samples.
    pub fn worlds(&self) -> usize {
        self.worlds
    }

    /// Every column's `(mean, std_dev)`, if the record keeps them: every
    /// recipe record does, published or restored.
    pub fn moments(&self) -> Option<&ColumnMoments> {
        match &self.body {
            Body::Samples(_) => None,
            Body::Recipe(body) => Some(body.moments()),
        }
    }

    /// The samples, if the entry holds them: `None` for a recipe record.
    pub fn resident(&self) -> Option<&Arc<ColumnSamples>> {
        self.body.samples()
    }

    /// The entry's samples at `point`, the point it was read at: the
    /// held ones, or a recipe record's rebuilt with the remap that made
    /// them, on the same inputs — its published bits — on the caller's
    /// thread. Each rebuild counts one `rematerializations`.
    ///
    /// # Panics
    /// If the rebuild fails, which it cannot short of a broken remap: it
    /// runs the function that succeeded on the same inputs when the record
    /// was published, or whose [`Rebuild::check_recipe`] and
    /// [`Rebuild::check_point`] passed when it was restored.
    pub fn materialize(&self, point: &ParamPoint) -> Arc<ColumnSamples> {
        let body = match &self.body {
            Body::Samples(samples) => return Arc::clone(samples),
            Body::Recipe(body) => body,
        };
        let samples = (body.rebuild(point, self.worlds))
            .unwrap_or_else(|e| panic!("invariant: a recipe record rebuilds: {e}"));
        self.stats.lock().rematerializations += 1;
        samples
    }
}

/// The entry table, under [`rank::STORE_TABLE`]: every record, the stamp
/// counter, each record's stamp filed in the queue of its matchability,
/// and the byte budget's books. Making room evicts the oldest unmatchable
/// entry, else the oldest matchable one — each an O(log n) `pop_first`.
#[derive(Default)]
struct Table {
    entries: HashMap<ParamPoint, Record, FastBuild>,
    next_stamp: u64,
    /// Unmatchable (mapped) entries by stamp: evicted first, oldest first.
    unmatchable: BTreeMap<u64, ParamPoint>,
    /// Matchable (simulated) entries by stamp — the match scan's candidate
    /// order; evicted only when no unmatchable entry remains.
    matchable: BTreeMap<u64, ParamPoint>,
    /// Sum of every record's [`Record::charge`].
    charged: usize,
    /// How many records hold samples: every one but the recipe records.
    resident: usize,
    /// The largest charge of any samples record filed since the table was
    /// last wiped: what one "full-depth samples record" costs, the unit of
    /// the store's capacity.
    record_bytes: usize,
    /// How many times the matchable set has changed
    /// ([`Table::matchable_changed`]): what a scan snapshot is a snapshot
    /// *of*.
    matchable_epoch: u64,
    /// The last snapshot [`SharedBasisStore::scan_snapshot_shared`] took,
    /// while the matchable set is still the one it was taken of.
    scan_cache: Option<Arc<ScanSnapshot>>,
}

impl Table {
    /// Every entry in stamp order: the two stamp queues, which between
    /// them hold every entry, merged.
    fn by_stamp(&self) -> impl Iterator<Item = (&ParamPoint, &Record)> {
        let mut matchable = self.matchable.iter().peekable();
        let mut unmatchable = self.unmatchable.iter().peekable();
        std::iter::from_fn(move || match (matchable.peek(), unmatchable.peek()) {
            (Some((m, _)), Some((u, _))) if u < m => unmatchable.next(),
            (Some(_), _) => matchable.next(),
            (None, _) => unmatchable.next(),
        })
        .map(|(_, point)| (point, &self.entries[point]))
    }

    fn queue(&mut self, matchable: bool) -> &mut BTreeMap<u64, ParamPoint> {
        if matchable {
            &mut self.matchable
        } else {
            &mut self.unmatchable
        }
    }

    /// File `record` under `point`, replacing (and unqueueing) any entry
    /// already there. Returns whether it replaced one.
    fn put(&mut self, point: ParamPoint, record: Record) -> bool {
        let (stamp, matchable, charge) = (record.stamp, record.matchable, record.charge());
        self.charged += charge;
        if record.samples().is_some() {
            self.resident += 1;
            self.record_bytes = self.record_bytes.max(charge);
        }
        let replaced = self.entries.insert(point.clone(), record);
        if matchable || replaced.as_ref().is_some_and(|old| old.matchable) {
            self.matchable_changed();
        }
        if let Some(old) = &replaced {
            self.unfile(old);
        }
        self.queue(matchable).insert(stamp, point);
        replaced.is_some()
    }

    /// Take a record that left the entry map off the books and out of
    /// its queue.
    fn unfile(&mut self, record: &Record) {
        self.charged -= record.charge();
        self.resident -= record.samples().is_some() as usize;
        self.queue(record.matchable).remove(&record.stamp);
    }

    /// Whether `incoming` more bytes exceed the budget of a store of
    /// `capacity`.
    fn over_budget(&self, incoming: usize, capacity: usize) -> bool {
        self.charged + incoming > capacity.saturating_mul(self.record_bytes.max(incoming))
    }

    /// Evict, oldest first, until `incoming` more bytes fit the budget of
    /// a store of `capacity`: unmatchable entries, then matchable ones.
    /// Returns how many it evicted. A store of equal-depth samples records
    /// evicts exactly one entry per insert once full — the entry-count
    /// policy.
    fn make_room(&mut self, incoming: usize, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.over_budget(incoming, capacity) {
            let victim = match self.unmatchable.pop_first() {
                Some(victim) => victim,
                None => match self.matchable.pop_first() {
                    Some(victim) => {
                        self.matchable_changed();
                        victim
                    }
                    None => break,
                },
            };
            let record = (self.entries.remove(&victim.1))
                .expect("invariant: a queued stamp names a stored record");
            self.unfile(&record);
            evicted += 1;
        }
        evicted
    }

    /// A matchable record was filed, replaced, evicted or wiped: snapshots
    /// of the set as it stood are no longer current. Called under the
    /// write guard by every such change.
    fn matchable_changed(&mut self) {
        self.matchable_epoch += 1;
        self.scan_cache = None;
    }
}

/// State of one in-flight simulation slot.
enum SlotState {
    /// The owning session is still computing.
    Running,
    /// The owner published: waiters reuse the published entry directly
    /// (immune to store eviction — the hand-off does not go through the
    /// entry table). A mapped point's is its recipe record, which holds
    /// moments and rebuilds its samples only if a waiter reads them.
    Done(StoredEntry),
    /// The owner failed or the store was cleared mid-flight: waiters must
    /// re-claim and re-simulate.
    Cancelled,
}

/// One pending parameter point's waiting room: a condvar-notified state
/// cell the owner shares with every waiter. The first waiter makes it; a
/// claim nobody waits on has none.
struct PendingSlot {
    state: OrderedMutex<SlotState>,
    cv: OrderedCondvar,
    /// Waiters asleep on `cv`, changed and read only under `state`'s lock,
    /// so a publish that finds none skips the wake (a system call even
    /// with no one to wake) and none can be lost: a waiter counts itself
    /// before `cv.wait` releases the lock.
    waiters: AtomicUsize,
}

impl Default for PendingSlot {
    fn default() -> Self {
        PendingSlot {
            state: OrderedMutex::new(rank::INFLIGHT_SLOT, SlotState::Running),
            cv: OrderedCondvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }
}

impl PendingSlot {
    /// Hand every waiter `entry`, waking those asleep.
    fn serve(&self, entry: StoredEntry) {
        let asleep = {
            let mut state = self.state.lock();
            *state = SlotState::Done(entry);
            self.waiters.load(Ordering::Relaxed) > 0
        };
        if asleep {
            self.cv.notify_all();
        }
    }

    /// Cancel if still running, waking every waiter.
    fn cancel(&self) {
        let mut state = self.state.lock();
        if matches!(*state, SlotState::Running) {
            *state = SlotState::Cancelled;
        }
        drop(state);
        self.cv.notify_all();
    }
}

/// A claimed point's entry in the in-flight table: the claim that owns it
/// and, once another session waits on it, their shared slot.
struct Claim {
    /// Which claim owns the point: a clear detaches a claim, and the
    /// point's next one has another id, so a detached owner's publish
    /// finds the table no longer names it.
    id: u64,
    slot: Option<Arc<PendingSlot>>,
}

struct Inflight {
    slots: OrderedMutex<HashMap<ParamPoint, Claim, FastBuild>>,
    /// The next claim's id.
    next_claim: AtomicU64,
    /// Claim-protocol checker: every point must walk claimed → simulated →
    /// published (or claimed → cancelled) exactly once per claim. A no-op
    /// unless `cfg(any(test, feature = "check"))`.
    ledger: ClaimLedger<ParamPoint>,
}

impl Inflight {
    /// Remove `point`'s entry if claim `id` still owns it, returning it.
    fn detach(
        slots: &mut HashMap<ParamPoint, Claim, FastBuild>,
        point: &ParamPoint,
        id: u64,
    ) -> Option<Claim> {
        if slots.get(point)?.id != id {
            return None;
        }
        slots.remove(point)
    }
}

impl Default for Inflight {
    fn default() -> Self {
        Inflight {
            slots: OrderedMutex::new(rank::INFLIGHT_TABLE, HashMap::default()),
            next_claim: AtomicU64::new(0),
            ledger: ClaimLedger::new(),
        }
    }
}

/// Outcome of a claim: of [`SharedBasisStore::try_claim`], whose ready
/// entry is its samples, and of [`SharedBasisStore::try_claim_stored`],
/// whose ready entry is a [`StoredEntry`].
pub enum TryClaim<S = Arc<ColumnSamples>> {
    /// The caller owns this point's simulation: it must publish through the
    /// guard ([`InflightGuard::complete`]) or drop it to release waiters.
    Owner(InflightGuard),
    /// The point is already stored with enough worlds.
    Ready {
        /// The stored entry.
        samples: S,
        /// Worlds backing them.
        worlds: usize,
    },
    /// Another session is simulating this point right now: block on the
    /// handle instead of duplicating the work.
    Pending(WaitHandle),
}

/// A claim on one parameter point's simulation. Dropping the guard without
/// completing (error or panic on the owning path) cancels the slot so
/// waiters wake up and re-claim.
pub struct InflightGuard {
    store: SharedBasisStore,
    point: ParamPoint,
    /// This claim's [`Claim::id`].
    claim: u64,
    completed: bool,
}

impl InflightGuard {
    /// The claimed point.
    pub fn point(&self) -> &ParamPoint {
        &self.point
    }

    /// Publish the computed samples: wake every waiter with them and insert
    /// the basis entry. Returns `false` when the store was cleared while
    /// the simulation was in flight — the results are *not* inserted (clear
    /// means "force cold start", so pre-clear work must not resurrect) and
    /// waiters have already been released to re-simulate.
    ///
    /// The whole publish — state flip, entry insert, slot removal — happens
    /// under the in-flight table lock, the same lock [`SharedBasisStore::clear`]
    /// and [`SharedBasisStore::try_claim`] serialize on. That atomicity is
    /// what the two guarantees rest on: a concurrent clear lands either
    /// entirely before this publish (the slot is already cancelled, the
    /// results are discarded) or entirely after (the inserted entry is
    /// wiped); and a concurrent `try_claim` can never observe the gap
    /// between "slot gone" and "entry inserted", so it cannot become a
    /// duplicate owner of work that just finished.
    ///
    /// Only a `matchable` entry keeps `fingerprints`: nothing reads an
    /// unmatchable one's.
    pub fn complete(
        self,
        fingerprints: HashMap<String, Fingerprint>,
        samples: Arc<ColumnSamples>,
        worlds: usize,
        matchable: bool,
    ) -> bool {
        let record = Record::new(fingerprints, samples, worlds, 0, matchable);
        self.publish(record).1
    }

    /// [`InflightGuard::complete`] for a fingerprint hit, which brings no
    /// samples: file a recipe record of `worlds` worlds whose body is
    /// `body` — how the point's samples are made, and their moments —
    /// and wake every waiter with it. The record files `body` itself, not
    /// a copy: the engine passes its recipe memo's entry, so every record
    /// of one recipe shares one body. A samples read of the entry
    /// rebuilds them, and a snapshot writes the recipe in their place.
    ///
    /// Returns the record as a [`StoredEntry`] — what a later claim of
    /// the point reads — and whether it was filed (`false` as for
    /// [`InflightGuard::complete`]; the entry still answers the
    /// publishing caller).
    pub fn complete_mapped(self, worlds: usize, body: RecipeBody) -> (StoredEntry, bool) {
        self.publish(Record::mapped(worlds, 0, body))
    }

    /// The publish behind both completions: `record` is stamped on
    /// insert, and the waiters get it as a [`StoredEntry`], which is
    /// returned with whether the record was filed.
    fn publish(mut self, record: Record) -> (StoredEntry, bool) {
        self.completed = true;
        let entry = StoredEntry::of(&record, &self.store.stats);
        let mut slots = self.store.inflight.slots.lock();
        let Some(claim) = Inflight::detach(&mut slots, &self.point, self.claim) else {
            // A clear detached this claim mid-flight: discard. The clear
            // already released this point's claim in the ledger.
            return (entry, false);
        };
        self.store.inflight.ledger.on_simulated(&self.point);
        if let Some(slot) = claim.slot {
            slot.serve(entry.clone());
        }
        self.store.insert_record(self.point.clone(), record);
        self.store.inflight.ledger.on_published(&self.point);
        self.store.inflight.ledger.on_released(&self.point);
        drop(slots);
        self.store
            .tracer
            .instant(TraceEventKind::StorePublish, NO_JOB, NO_CHUNK);
        (entry, true)
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        if !self.completed {
            // Cancellation: claimed → released, never simulated. If a clear
            // already detached the claim it also released it and cancelled
            // its slot, so only the detaching party does either.
            let mut slots = self.store.inflight.slots.lock();
            let claim = Inflight::detach(&mut slots, &self.point, self.claim);
            drop(slots);
            if let Some(claim) = claim {
                self.store.inflight.ledger.on_released(&self.point);
                if let Some(slot) = claim.slot {
                    slot.cancel();
                }
            }
        }
    }
}

/// A ticket for a simulation owned by another session.
pub struct WaitHandle {
    slot: Arc<PendingSlot>,
    stats: Arc<OrderedMutex<Counters>>,
    tracer: Tracer,
}

impl WaitHandle {
    /// Block until the owning session publishes or cancels. `Some` carries
    /// the published entry (counted as an in-flight wait) — a mapped
    /// point's recipe record rebuilds its samples only if the waiter reads
    /// them; `None` means the simulation was abandoned (owner failure or a
    /// store clear) — the caller should re-claim and, if it becomes the
    /// owner, re-simulate.
    pub fn wait(self) -> Option<StoredEntry> {
        let start = self.tracer.now();
        let result = {
            let mut state = self.slot.state.lock();
            loop {
                match &*state {
                    SlotState::Running => {
                        self.slot.waiters.fetch_add(1, Ordering::Relaxed);
                        state = self.slot.cv.wait(state);
                        self.slot.waiters.fetch_sub(1, Ordering::Relaxed);
                    }
                    SlotState::Done(entry) => {
                        self.stats.lock().inflight_waits += 1;
                        break Some(entry.clone());
                    }
                    SlotState::Cancelled => break None,
                }
            }
        };
        self.tracer
            .span(TraceEventKind::StoreWait, NO_JOB, NO_CHUNK, start);
        self.tracer
            .record_store_wait(self.tracer.now().saturating_sub(start));
        result
    }
}

/// Cross-session counters of one shared store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStatsSnapshot {
    /// Correlated probes that found a source.
    pub hits: u64,
    /// Correlated probes that found none.
    pub misses: u64,
    /// Evaluations served by blocking on another session's in-flight
    /// simulation instead of running their own.
    pub inflight_waits: u64,
    /// Entries removed from the table to make room for newer ones.
    pub evictions: u64,
    /// Samples reads of a recipe record — a cached mapped point's samples
    /// read by a reply, an exact lookup or a save — each of which rebuilt
    /// them from its recipe.
    pub rematerializations: u64,
    /// Entries currently stored, recipe records included.
    pub entries: u64,
    /// Stored entries that hold samples: every entry but the recipe
    /// records.
    pub resident: u64,
}

/// One `name value` row per field, in the layout of the engine's metrics
/// table.
impl std::fmt::Display for StoreStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows = [
            ("entries", self.entries),
            ("evictions", self.evictions),
            ("resident", self.resident),
            ("rematerializations", self.rematerializations),
            ("hits", self.hits),
            ("misses", self.misses),
            ("inflight_waits", self.inflight_waits),
        ];
        for (i, (name, value)) in rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name:<20}{value:>14}")?;
        }
        Ok(())
    }
}

/// The store's counter ledger. One mutex (rank [`rank::STORE_STATS`], a
/// leaf above the table) instead of independent atomics: a snapshot is a
/// single critical section, so its fields can never be mutually torn.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    inflight_waits: u64,
    evictions: u64,
    rematerializations: u64,
}

/// Thread-safe basis store shared between engines/sessions of one scenario.
///
/// Cloning produces another handle onto the same store. Its capacity is a
/// byte budget: `capacity` records of the largest samples record it has
/// held, where a mapped entry is a recipe record of about a tenth of one.
/// Past the budget a publish evicts the oldest *mapped* entry, then the
/// oldest simulated one, because simulated entries are the sources
/// fingerprint matching lives on. In-flight claims live outside the
/// bounded entry table, so eviction can never drop a pending simulation.
#[derive(Clone)]
pub struct SharedBasisStore {
    table: Arc<OrderedRwLock<Table>>,
    inflight: Arc<Inflight>,
    stats: Arc<OrderedMutex<Counters>>,
    capacity: usize,
    /// The world this store's samples are drawn in: written into every
    /// snapshot it saves, and required of every snapshot it restores.
    provenance: Arc<Provenance>,
    /// Flight recorder for claim/wait/publish/evict events; disabled
    /// ([`Tracer::off`]) unless attached via
    /// [`SharedBasisStore::with_tracer`]. Events observe, never decide.
    tracer: Tracer,
}

/// A probe's best match so far: `(candidate index, mappings in the scan's
/// column order, total error)`; only the hit names them.
type Best = (usize, ShortList<Mapping, 4>, f64);

/// Work accounting of a batch of match scans: what the engine's batch
/// pipeline folds into its run's counters once the batch's probes have
/// scanned its [`ScanSnapshot`] ([`SharedBasisStore::record_scans`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchScanStats {
    /// (candidate, probe) pairs that ran the full entry-by-entry
    /// [`CorrelationDetector::detect_all`] comparison: in a probe's
    /// exact-match window, or among the survivors of its branch-and-bound
    /// scan (a pair can count in both).
    pub candidates_scanned: u64,
    /// (candidate, probe) pairs whose summary bound ruled the candidate
    /// out in the branch-and-bound scan: it could not match at all, or
    /// could not beat the probe's best match of completed waves. Pairs
    /// nobody bounded — a probe answered from its window, candidates
    /// after a probe's exact match, candidates lacking a scanned column —
    /// are not counted. Zero for the exhaustive scan.
    pub candidates_pruned: u64,
    /// Probes answered from their exact-match window, without the
    /// branch-and-bound scan. Zero for the exhaustive scan.
    pub window_hits: u64,
}

/// Wave width of the indexed scan: candidates are bounded and compared in
/// stamp-ordered blocks of this many, and pruning decisions for a wave
/// consult only the best match of *completed* waves. The width is a
/// constant — never derived from a thread count — so which pairs get
/// pruned is a pure function of the store contents and the probes.
const MATCH_WAVE: usize = 32;

/// One matchable record as a scan sees it: the record's shared parts,
/// cloned by reference count while the table's read lock was held. An
/// entry evicted, replaced or cleared after the snapshot stays alive —
/// and unchanged — through these handles.
struct Candidate {
    point: ParamPoint,
    stamp: u64,
    fingerprints: Arc<HashMap<String, Fingerprint>>,
    summaries: Arc<SummaryTable>,
    samples: Arc<ColumnSamples>,
    worlds: usize,
}

impl Candidate {
    /// The hit of this candidate with `each` column's mapping, in
    /// `columns` order.
    fn hit(&self, columns: &[String], each: &[Mapping]) -> BasisHit {
        BasisHit {
            source: self.point.clone(),
            source_stamp: self.stamp,
            mappings: columns.iter().cloned().zip(each.iter().copied()).collect(),
            samples: Arc::clone(&self.samples),
            worlds: self.worlds,
        }
    }
}

/// Slot value marking a candidate that lacks one of the scanned columns.
const NO_SLOT: u32 = u32::MAX;

/// A lock-free view of the store's matchable records in global stamp
/// order, bound to one scan's columns, detector and mode
/// ([`SharedBasisStore::scan_snapshot_shared`]). Taking it is the only
/// part of a match scan that touches the store's locks; the scan itself
/// ([`ScanSnapshot::scan_probe`]) is a pure function of the snapshot and
/// one probe, so a batch's probes can be scanned anywhere — inline, on
/// scoped threads, or as scheduler chunks — with identical results.
///
/// An indexed snapshot also carries the exact-match window index
/// (`KeyWindows`): per scanned column, the candidates' centred keys
/// sorted by key. A probe looks there first and runs the
/// branch-and-bound scan only when the window holds no zero-error
/// source.
pub struct ScanSnapshot {
    candidates: Vec<Candidate>,
    /// Per candidate, the summary-table position of each scanned column
    /// (candidate-major, `columns.len()` per candidate; [`NO_SLOT`]s for a
    /// candidate that lacks one): the scan's column names are resolved
    /// here, once, and the per-pair bound walks positions.
    slots: Vec<u32>,
    /// The exact-match window index; `None` for the exhaustive scan, for
    /// a snapshot without candidates, and when the candidates'
    /// fingerprint lengths disagree.
    windows: Option<KeyWindows>,
    columns: Vec<String>,
    detector: CorrelationDetector,
    use_index: bool,
}

/// The exact-match window index of a [`ScanSnapshot`]
/// (`prophet_fingerprint::index` docs carry the proof that a window holds
/// every source [`CorrelationDetector::detect_all`] scores 0).
struct KeyWindows {
    /// The fingerprint length of every scanned column of every candidate
    /// that has them all.
    len: usize,
    /// Candidate-major, `columns.len()` per candidate: each scanned
    /// column's [`ExactKey`], or `None` where the candidate can never be
    /// an exact match (it lacks a column, or the column is non-finite).
    keys: Vec<Option<ExactKey>>,
    /// Per scanned column: `(key, candidate index)` of every candidate
    /// with a key there, sorted by key.
    sorted: Vec<Vec<(f64, u32)>>,
    /// Per scanned column: the widest source part of its candidates
    /// ([`ExactKey::widest`]), which the binary search's window uses.
    reach: Vec<ExactKey>,
}

impl KeyWindows {
    /// The candidates of column `col` in `window`: the keys within the
    /// half-width of the column's widest source part around `−k` and
    /// around `k`, as two sorted runs (one, and an empty one, where they
    /// overlap). `None` when that half-width is 1 or more: keys lie in
    /// `[−1, 1]`, so such a window holds every candidate.
    fn window(&self, col: usize, window: &ExactWindow) -> Option<[&[(f64, u32)]; 2]> {
        let half = window.half_width(&self.reach[col]);
        let sorted = &self.sorted[col];
        let range = |lo: f64, hi: f64| {
            let start = sorted.partition_point(|&(key, _)| key < lo);
            let end = sorted.partition_point(|&(key, _)| key <= hi);
            &sorted[start..end.max(start)]
        };
        let k = window.key().abs();
        (half < 1.0).then(|| {
            if k <= half {
                [range(-k - half, k + half), &[]]
            } else {
                [range(-k - half, -k + half), range(k - half, k + half)]
            }
        })
    }

    /// Index the candidates' keys, or `None` when there is nothing to
    /// index or the lengths disagree (the detector then compares prefixes
    /// the keys do not describe, or there is no column to key on).
    fn build(candidates: &[Candidate], slots: &[u32], width: usize) -> Option<KeyWindows> {
        if width == 0 {
            return None;
        }
        let mut len = None;
        let mut keys = Vec::with_capacity(slots.len());
        for (candidate, row) in candidates.iter().zip(slots.chunks_exact(width)) {
            if row.first() == Some(&NO_SLOT) {
                keys.extend(std::iter::repeat(None).take(width));
                continue;
            }
            for &slot in row {
                let summary = candidate.summaries.summary(slot);
                if *len.get_or_insert(summary.len()) != summary.len() {
                    return None;
                }
                keys.push(summary.exact_key());
            }
        }
        let len = len?;
        let no_reach = ExactKey {
            key: 0.0,
            scale: 0.0,
            rounding: 0.0,
        };
        let mut sorted = vec![Vec::new(); width];
        let mut reach = vec![no_reach; width];
        for (ci, row) in keys.chunks_exact(width).enumerate() {
            for (col, key) in row.iter().enumerate() {
                if let Some(key) = key {
                    sorted[col].push((key.key, ci as u32));
                    reach[col] = reach[col].widest(*key);
                }
            }
        }
        for column in &mut sorted {
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        Some(KeyWindows {
            len,
            keys,
            sorted,
            reach,
        })
    }
}

/// What one probe's scan did, folded into a batch's [`MatchScanStats`]
/// and the store's hit/miss ledger by [`SharedBasisStore::record_scans`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanWork {
    /// Candidates that ran the full `detect_all` comparison, in the
    /// window or among the bound's survivors.
    pub scanned: u64,
    /// Candidates the branch-and-bound scan's bound ruled out.
    pub pruned: u64,
    /// Whether the exact-match window answered the probe.
    pub window_hit: bool,
    /// Whether a source was found.
    pub hit: bool,
}

/// Result of scanning one probe against a [`ScanSnapshot`].
pub struct ProbeScan {
    /// The best source, if any column set matched.
    pub hit: Option<BasisHit>,
    /// The work it took.
    pub work: ScanWork,
}

impl ScanSnapshot {
    /// Find the best source for one probe: lowest total error, ties to
    /// the earliest insertion stamp. Exhaustive snapshots run the
    /// reference scan. Indexed ones key the probe, look in its
    /// exact-match window first and, only when that holds no zero-error
    /// source, summarize it in full — the bucket sketches the bound reads
    /// — and run the branch-and-bound scan — all three choose the same
    /// source.
    pub fn scan_probe(&self, probe: &HashMap<String, Fingerprint>) -> ProbeScan {
        let mut work = ScanWork::default();
        let best = if !self.use_index {
            self.scan_exhaustive(probe, &mut work)
        } else {
            match self.scan_window(probe, &mut work) {
                Some(best) => {
                    work.window_hit = true;
                    Some(best)
                }
                // A probe missing a column has no window and no summary:
                // `detect_all` fails on it, so no source matches.
                None => summarize_probe(probe, &self.columns)
                    .and_then(|summary| self.scan_indexed(probe, &summary, &mut work)),
            }
        };
        work.hit = best.is_some();
        ProbeScan {
            hit: best.map(|(ci, mappings, _)| self.candidates[ci].hit(&self.columns, &mappings)),
            work,
        }
    }

    /// The reference scan (the pre-index behaviour): compare the probe
    /// with every candidate in stamp order, keep a strictly better match
    /// (so ties stay with the earliest stamp), and stop at a zero-error
    /// one — nothing later can beat it.
    fn scan_exhaustive(
        &self,
        probe: &HashMap<String, Fingerprint>,
        work: &mut ScanWork,
    ) -> Option<Best> {
        let mut best: Option<Best> = None;
        for (ci, candidate) in self.candidates.iter().enumerate() {
            if matches!(best, Some((_, _, err)) if err == 0.0) {
                break;
            }
            work.scanned += 1;
            let detected = self
                .detector
                .detect_all(&candidate.fingerprints, probe, &self.columns);
            if let Some((mappings, err)) = detected {
                if best
                    .as_ref()
                    .map_or(true, |(_, _, best_err)| err < *best_err)
                {
                    best = Some((ci, mappings, err));
                }
            }
        }
        best
    }

    /// The exact-match window: the earliest-stamped source that
    /// `detect_all` scores 0, found among the few candidates whose
    /// centred keys lie near the probe's — or `None`, and then the
    /// branch-and-bound scan decides. The answer equals the exhaustive
    /// scan's because error 0 beats every other error, ties go to the
    /// earliest stamp, and every zero-error source lies in the window
    /// (`prophet_fingerprint::index` docs carry the proof).
    ///
    /// Each varying probe column has a window: two binary searches,
    /// around its key `k` and around `−k`, with the half-width of the
    /// column's widest source part. The column whose window holds the
    /// fewest candidates picks them; each must then lie within its own
    /// half-width on every column that can filter, and the rest run
    /// `detect_all` in stamp order. There is no window — `None` at once —
    /// when the probe lacks a column or its lengths differ from the
    /// snapshot's, or no varying
    /// column has a half-width below 1 (a constant probe column never
    /// filters: `fit_affine` fits any varying source to it at error 0).
    fn scan_window(
        &self,
        probe: &HashMap<String, Fingerprint>,
        work: &mut ScanWork,
    ) -> Option<Best> {
        let index = self.windows.as_ref()?;
        let mut windows = ShortList::<Option<ExactWindow>, 4>::new(None);
        for column in &self.columns {
            let key = FingerprintSummary::key_of(probe.get(column)?);
            if key.len() != index.len {
                return None;
            }
            windows.push(ExactWindow::of(&key, &self.detector));
        }
        let ranges = (windows.iter().enumerate())
            .filter_map(|(col, w)| index.window(col, w.as_ref()?))
            .min_by_key(|[below, above]| below.len() + above.len())?;
        let width = self.columns.len();
        let mut admitted = ShortList::<usize, 8>::new(0);
        admitted.extend(
            (ranges.iter().flat_map(|r| r.iter()))
                .map(|&(_, ci)| ci as usize)
                .filter(|&ci| {
                    let keys = &index.keys[ci * width..(ci + 1) * width];
                    keys.iter().zip(&windows).all(|(key, w)| match (key, w) {
                        (None, _) => false,
                        (Some(_), None) => true,
                        (Some(key), Some(w)) => w.admits(key),
                    })
                }),
        );
        admitted.sort_unstable();
        for &ci in &admitted {
            work.scanned += 1;
            let detected =
                (self.detector).detect_all(&self.candidates[ci].fingerprints, probe, &self.columns);
            if let Some((mappings, err)) = detected {
                if err == 0.0 {
                    return Some((ci, mappings, err));
                }
            }
        }
        None
    }

    /// Branch-and-bound scan of one probe over the summary index.
    /// Soundness (the chosen source is bit-identical to
    /// [`Self::scan_exhaustive`]'s) rests on two facts: the summary bound never
    /// exceeds the error `detect_all` would report
    /// (`prophet_fingerprint::index` docs carry the proof), and candidates
    /// are walked in stamp order, so the incumbent predates the candidates
    /// being pruned against it — a candidate whose error cannot go *below*
    /// the incumbent's loses even on an exact tie, because ties resolve to
    /// the earliest stamp.
    ///
    /// A probe's scan depends on the candidate list and its *own*
    /// incumbent only, which is what lets a batch's probes scan
    /// independently.
    fn scan_indexed(
        &self,
        probe: &HashMap<String, Fingerprint>,
        probe_summary: &[FingerprintSummary],
        work: &mut ScanWork,
    ) -> Option<Best> {
        let width = self.columns.len();
        let mut best: Option<Best> = None;
        let mut survivors: Vec<usize> = Vec::with_capacity(MATCH_WAVE);
        for (wave_idx, wave) in self.candidates.chunks(MATCH_WAVE).enumerate() {
            // A zero-error incumbent prunes every later candidate no matter
            // what its bound comes out to (any feasible bound is ≥ 0).
            let incumbent = best.as_ref().map(|(_, _, err)| *err);
            if incumbent == Some(0.0) {
                break;
            }
            let base = wave_idx * MATCH_WAVE;
            survivors.clear();
            for (offset, candidate) in wave.iter().enumerate() {
                let ci = base + offset;
                let slots = &self.slots[ci * width..(ci + 1) * width];
                if slots.first() == Some(&NO_SLOT) {
                    continue;
                }
                match bound_all(&candidate.summaries, slots, probe_summary, &self.detector) {
                    MatchBound::Feasible(bound) if !matches!(incumbent, Some(err) if bound >= err) =>
                    {
                        survivors.push(ci);
                    }
                    MatchBound::Infeasible | MatchBound::Feasible(_) => work.pruned += 1,
                }
            }
            work.scanned += survivors.len() as u64;
            // Bounds consulted the incumbent of completed waves only; the
            // wave's survivors now compare in stamp order (strictly-better
            // replacement keeps the earliest stamp on ties).
            for &ci in &survivors {
                let detected = self.detector.detect_all(
                    &self.candidates[ci].fingerprints,
                    probe,
                    &self.columns,
                );
                if let Some((mappings, err)) = detected {
                    if best
                        .as_ref()
                        .map_or(true, |(_, _, best_err)| err < *best_err)
                    {
                        best = Some((ci, mappings, err));
                    }
                }
            }
        }
        best
    }
}

// ------------------------------------------------------------- persistence

/// Every matchable record of `table` by stamp: its worlds and its column
/// names, sorted — the order a recipe record naming it writes its moments
/// in.
fn source_columns(table: &Table) -> HashMap<u64, (usize, Vec<&str>)> {
    (table.matchable.iter())
        .filter_map(|(&stamp, point)| {
            let record = table.entries.get(point)?;
            let mut columns: Vec<&str> = (record.samples()?.keys()).map(String::as_str).collect();
            columns.sort_unstable();
            Some((stamp, (record.worlds, columns)))
        })
        .collect()
}

/// The recipe a snapshot writes for `record` instead of its samples: its
/// own and its moments, while the matchable record of its source stamp —
/// the very samples it was mapped from, since stamps are never reused —
/// is still in the table ([`source_columns`]) with equal worlds, and its
/// moments cover exactly that source's columns. Otherwise (the source was
/// replaced or evicted, or the record was never mapped) `None`: the
/// record travels as the samples it holds.
fn live_recipe<'r>(
    sources: &'r HashMap<u64, (usize, Vec<&str>)>,
    record: &'r Record,
) -> Option<RecipeOut<'r>> {
    let Body::Recipe(RecipeBody(mapped)) = &record.body else {
        return None;
    };
    let (worlds, columns) = sources.get(&mapped.recipe.source_stamp)?;
    let moments = &mapped.moments;
    let covers = moments.columns().len() == columns.len()
        && columns.iter().all(|c| moments.get(c).is_some());
    (*worlds == record.worlds && covers).then_some(RecipeOut {
        recipe: &mapped.recipe,
        moments,
        columns,
    })
}

impl SharedBasisStore {
    /// Create an empty store whose byte budget is `capacity` full-depth
    /// samples records: `capacity` times the largest charge of any record
    /// it holds samples for (see the type docs for what happens past it).
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a store that cannot hold anything is a
    /// configuration bug).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "basis store capacity must be positive");
        SharedBasisStore {
            table: Arc::new(OrderedRwLock::new(rank::STORE_TABLE, Table::default())),
            inflight: Arc::new(Inflight::default()),
            stats: Arc::new(OrderedMutex::new(rank::STORE_STATS, Counters::default())),
            capacity,
            provenance: Arc::default(),
            tracer: Tracer::off(),
        }
    }

    /// Name the world this store's samples are drawn in (see
    /// [`Provenance`]): its snapshots carry `provenance`, and it restores
    /// only snapshots that carry it. A store built by
    /// [`SharedBasisStore::new`] alone has the zero provenance.
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = Arc::new(provenance);
        self
    }

    /// Attach a flight recorder: claim, in-flight wait, publish, and
    /// eviction events are recorded against it (plus the store-wait
    /// latency histogram). The service facade attaches its scheduler's
    /// tracer so store and scheduler events share one timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached flight recorder (disabled unless
    /// [`SharedBasisStore::with_tracer`] was used).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The byte budget, in full-depth samples records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored entries, recipe records included.
    pub fn len(&self) -> usize {
        self.table.read().entries.len()
    }

    /// Number of stored entries that hold their samples: every entry but
    /// the recipe records.
    pub fn resident_len(&self) -> usize {
        self.table.read().resident
    }

    /// Every stored point, recipe records included, in stamp order.
    pub fn points(&self) -> Vec<ParamPoint> {
        let table = self.table.read();
        table.by_stamp().map(|(point, _)| point.clone()).collect()
    }

    /// How many distinct bodies the store's recipe records hold. The
    /// records of one recipe share one: a publish files the engine's
    /// recipe memo entry, so after a cold sweep this is the sweep's
    /// `remaps` (while the memo has room), and a restore builds one per
    /// recipe, so after a load it is the number of recipes its file
    /// defines.
    pub fn recipe_bodies(&self) -> usize {
        let table = self.table.read();
        // Recipe records are unmatchable: all of them are in that queue.
        let records = (table.unmatchable.values()).filter_map(|point| table.entries.get(point));
        let bodies = records.filter_map(|record| match &record.body {
            Body::Recipe(RecipeBody(mapped)) => Some(Arc::as_ptr(mapped) as usize),
            Body::Samples(_) => None,
        });
        bodies
            .collect::<std::collections::HashSet<usize, FastBuild>>()
            .len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries (forces cold start) and reset hit accounting.
    ///
    /// In-flight simulations are cancelled, not orphaned: every pending
    /// slot is detached and its waiters woken, so they re-claim and
    /// re-simulate against the now-empty store, and the interrupted owners'
    /// results are discarded on [`InflightGuard::complete`] instead of
    /// resurrecting pre-clear state.
    ///
    /// Cancelling and wiping happen under the in-flight table lock that
    /// [`InflightGuard::complete`] publishes under, so a racing completion
    /// is either fully before this clear (its entry is wiped with the rest)
    /// or fully after (its slot is already cancelled and its results are
    /// discarded) — never a stale entry in a "cleared" store.
    ///
    /// The stamp counter restarts too, so a cleared store is the table an
    /// empty snapshot's [`SharedBasisStore::restore_with`] leaves, and a
    /// sweep after either stamps — and saves — alike. No stamp from before
    /// the clear can meet one from after it: records and in-flight slots
    /// are gone, every publish goes through a claim, and a claim taken
    /// before the clear — the only kind that can carry a pre-clear scan's
    /// hit and its source stamp — is cancelled here and discarded on
    /// completion. Scan snapshots taken before are history: the matchable
    /// epoch keeps advancing, so the store never serves one again.
    pub fn clear(&self) {
        self.reset_with(|table| {
            *table = Table {
                matchable_epoch: table.matchable_epoch,
                ..Table::default()
            };
            table.matchable_changed();
        });
    }

    /// The one way the table is rewritten wholesale ([`Self::clear`],
    /// [`Self::restore_with`]): under the in-flight table lock, cancel
    /// every pending slot, rewrite the entry table under its write lock —
    /// so no scan observes a half-rewritten store — and reset the
    /// counters.
    fn reset_with(&self, rewrite: impl FnOnce(&mut Table)) {
        let mut slots = self.inflight.slots.lock();
        // analysis:allow(map-iter): every drained slot gets the same cancel + release — visit order is unobservable
        for (point, claim) in slots.drain() {
            if let Some(slot) = claim.slot {
                slot.cancel();
            }
            // The detached owner's claim ends here: claimed → released
            // (its eventual `complete` observes the cancel and discards).
            self.inflight.ledger.on_released(&point);
        }
        rewrite(&mut self.table.write());
        *self.stats.lock() = Counters::default();
        drop(slots);
    }

    /// Coherent snapshot of all cross-session counters: every field comes
    /// from one critical section over the counter ledger (plus the entry
    /// and resident counts under the table lock held alongside it), so
    /// the fields can never be mutually torn the way independent relaxed
    /// loads were.
    pub fn stats_snapshot(&self) -> StoreStatsSnapshot {
        let table = self.table.read();
        let counters = self.stats.lock();
        StoreStatsSnapshot {
            hits: counters.hits,
            misses: counters.misses,
            inflight_waits: counters.inflight_waits,
            evictions: counters.evictions,
            rematerializations: counters.rematerializations,
            entries: table.entries.len() as u64,
            resident: table.resident as u64,
        }
    }

    /// Number of points currently claimed by in-flight simulations.
    pub fn inflight_len(&self) -> usize {
        self.inflight.slots.lock().len()
    }

    /// True if `other` is a handle onto the same underlying store.
    pub fn shares_storage_with(&self, other: &SharedBasisStore) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Exact lookup: stored samples for `point`, provided they are backed by
    /// at least `min_worlds` worlds. A recipe record's are rebuilt after
    /// the table lock is released.
    pub fn get_exact(&self, point: &ParamPoint, min_worlds: usize) -> Option<Arc<ColumnSamples>> {
        (self.stored(point, min_worlds)).map(|entry| entry.materialize(point))
    }

    /// The entry stored for `point` with at least `min_worlds` worlds,
    /// copied out under the table's read lock.
    fn stored(&self, point: &ParamPoint, min_worlds: usize) -> Option<StoredEntry> {
        let table = self.table.read();
        (table.entries.get(point))
            .filter(|e| e.worlds >= min_worlds)
            .map(|e| StoredEntry::of(e, &self.stats))
    }

    /// [`SharedBasisStore::try_claim_stored`], with a ready entry's
    /// samples materialized: a recipe record's are rebuilt from its
    /// recipe after both store locks are released.
    pub fn try_claim(&self, point: &ParamPoint, min_worlds: usize) -> TryClaim {
        match self.try_claim_stored(point, min_worlds) {
            TryClaim::Ready { samples, worlds } => TryClaim::Ready {
                samples: samples.materialize(point),
                worlds,
            },
            TryClaim::Owner(guard) => TryClaim::Owner(guard),
            TryClaim::Pending(handle) => TryClaim::Pending(handle),
        }
    }

    /// Claim `point` for evaluation, deduplicating concurrent work: at most
    /// one session owns a point's simulation at a time.
    ///
    /// * [`TryClaim::Ready`] — already stored with `min_worlds`+ worlds:
    ///   the entry as a [`StoredEntry`], rebuilding nothing — a recipe
    ///   record's samples are rebuilt only if the reader asks for them
    ///   ([`StoredEntry::materialize`]).
    /// * [`TryClaim::Owner`] — the caller must simulate and publish through
    ///   the returned [`InflightGuard`].
    /// * [`TryClaim::Pending`] — another session owns it; block on the
    ///   [`WaitHandle`] to reuse its result.
    pub fn try_claim_stored(&self, point: &ParamPoint, min_worlds: usize) -> TryClaim<StoredEntry> {
        self.tracer
            .instant(TraceEventKind::StoreClaim, NO_JOB, NO_CHUNK);
        let mut slots = self.inflight.slots.lock();
        // Exact check under the in-flight lock so a concurrent complete()
        // cannot publish between the store check and slot registration.
        if let Some(entry) = self.stored(point, min_worlds) {
            drop(slots);
            let worlds = entry.worlds;
            return TryClaim::Ready {
                samples: entry,
                worlds,
            };
        }
        match slots.entry(point.clone()) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut().slot.get_or_insert_with(Arc::default);
                TryClaim::Pending(WaitHandle {
                    slot: Arc::clone(slot),
                    stats: Arc::clone(&self.stats),
                    tracer: self.tracer.clone(),
                })
            }
            Entry::Vacant(v) => {
                let id = self.inflight.next_claim.fetch_add(1, Ordering::Relaxed);
                v.insert(Claim { id, slot: None });
                self.inflight.ledger.on_claimed(point);
                TryClaim::Owner(InflightGuard {
                    store: self.clone(),
                    point: point.clone(),
                    claim: id,
                    completed: false,
                })
            }
        }
    }

    /// Insert (or replace) the entry for `point`. `matchable` marks fully
    /// simulated entries that may serve as mapping sources; their
    /// fingerprint summaries are computed here.
    ///
    /// Stamp allocation, making room, and the entry insert commit under
    /// one write guard. Making room is O(log n) per eviction: the next
    /// victim is the head of the unmatchable queue (else the matchable
    /// queue) — no entry-table scan. Replacements never evict.
    pub fn insert(
        &self,
        point: ParamPoint,
        fingerprints: HashMap<String, Fingerprint>,
        samples: Arc<ColumnSamples>,
        worlds: usize,
        matchable: bool,
    ) {
        // Summarized outside the lock; the stamp is assigned under it.
        self.insert_record(
            point,
            Record::new(fingerprints, samples, worlds, 0, matchable),
        );
    }

    /// [`SharedBasisStore::insert`] of a built record, stamped here.
    fn insert_record(&self, point: ParamPoint, mut record: Record) {
        let charge = record.charge();
        let evicted = {
            let mut table = self.table.write();
            table.next_stamp += 1;
            // A replacement makes no room; the lookup is needed only when
            // the record does not fit.
            let evicted = if table.over_budget(charge, self.capacity)
                && !table.entries.contains_key(&point)
            {
                table.make_room(charge, self.capacity)
            } else {
                0
            };
            record.stamp = table.next_stamp;
            table.put(point, record);
            evicted
        };
        for _ in 0..evicted {
            self.tracer
                .instant(TraceEventKind::StoreEvict, NO_JOB, NO_CHUNK);
        }
        if evicted > 0 {
            self.stats.lock().evictions += evicted;
        }
    }

    /// Batched correlated lookup: probe many fingerprint sets against the
    /// matchable entries. Result `i` is the best hit for `probes[i]`.
    ///
    /// This is [`SharedBasisStore::scan_snapshot_shared`] + one
    /// [`ScanSnapshot::scan_probe`] per probe (probes partition across up
    /// to `threads` scoped workers, one fan-out per call) +
    /// [`SharedBasisStore::record_scans`] — the same three steps the
    /// engine's batch pipeline runs with its own pool in the middle. With
    /// `use_index` each probe looks in its exact-match window, then runs
    /// the branch-and-bound scan over summary bounds (see the module
    /// docs); without it, the exhaustive reference scan. Both pick the
    /// best candidate by `(total error, insertion order)`, so the chosen
    /// source is identical between them, and a probe's scan reads nothing
    /// but the snapshot, so hits and the returned [`MatchScanStats`] are
    /// independent of the thread count in either mode.
    pub fn find_correlated_batch_scan(
        &self,
        probes: &[HashMap<String, Fingerprint>],
        columns: &[String],
        detector: &CorrelationDetector,
        threads: usize,
        use_index: bool,
    ) -> (Vec<Option<BasisHit>>, MatchScanStats) {
        if probes.is_empty() {
            return (Vec::new(), MatchScanStats::default());
        }
        let snapshot = self.scan_snapshot_shared(columns, detector, use_index);
        let scan = |slice: &[HashMap<String, Fingerprint>]| -> Vec<ProbeScan> {
            slice.iter().map(|p| snapshot.scan_probe(p)).collect()
        };
        let workers = threads.clamp(1, probes.len());
        let scans = if workers == 1 {
            scan(probes)
        } else {
            // lint:allow(thread-spawn): one scoped fan-out per *call* of a
            // batch scan outside the scheduler (tests, the benchmark
            // harness); engine batches scan per probe on the pool they
            // already run on.
            std::thread::scope(|scope| {
                let handles: Vec<_> = probes
                    .chunks(probes.len().div_ceil(workers))
                    .map(|slice| scope.spawn(|| scan(slice)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| {
                        h.join().expect(
                            "invariant: scan workers only read the snapshot and cannot panic",
                        )
                    })
                    .collect()
            })
        };
        let stats = self.record_scans(scans.iter().map(|s| s.work));
        (scans.into_iter().map(|s| s.hit).collect(), stats)
    }

    /// Snapshot the matchable records for one match scan over `columns`,
    /// shared: while no matchable record is published, replaced, evicted
    /// or wiped, every call with the same `columns`, `detector` and
    /// `use_index` returns the same snapshot instead of rebuilding an
    /// equal one. A sweep that has found its sources maps everything after
    /// them, so nearly all of its batches are in that state.
    ///
    /// A rebuild walks the matchable queue in insertion-stamp order under
    /// the table's read lock, clones each record's shared parts by
    /// reference count, and releases the lock — a scan never holds a
    /// store lock while it compares, so a sweep's scans cannot stall a
    /// session's publish. `columns` resolves to summary-table positions
    /// and the exact-match keys are sorted then, once per snapshot.
    ///
    /// The store keeps the latest snapshot only: callers that alternate
    /// between two scan configurations on one store rebuild every time.
    pub fn scan_snapshot_shared(
        &self,
        columns: &[String],
        detector: &CorrelationDetector,
        use_index: bool,
    ) -> Arc<ScanSnapshot> {
        let cached = {
            let table = self.table.read();
            table.scan_cache.clone()
        };
        if let Some(snapshot) = cached
            .filter(|s| s.columns == columns && s.detector == *detector && s.use_index == use_index)
        {
            return snapshot;
        }
        let (snapshot, epoch) = self.snapshot_at_epoch(columns, detector, use_index);
        let snapshot = Arc::new(snapshot);
        let mut table = self.table.write();
        // A matchable change since the walk makes this snapshot history:
        // still the caller's view of that moment, but not worth keeping.
        if table.matchable_epoch == epoch {
            table.scan_cache = Some(Arc::clone(&snapshot));
        }
        snapshot
    }

    /// A from-scratch snapshot and the matchable epoch it was taken at.
    fn snapshot_at_epoch(
        &self,
        columns: &[String],
        detector: &CorrelationDetector,
        use_index: bool,
    ) -> (ScanSnapshot, u64) {
        let (candidates, epoch): (Vec<Candidate>, u64) = {
            let table = self.table.read();
            let candidates = table
                .matchable
                .iter()
                .filter_map(|(&stamp, point)| {
                    let record = table.entries.get(point)?;
                    let fingerprints = record.fingerprints.as_ref().filter(|f| !f.is_empty())?;
                    Some(Candidate {
                        point: point.clone(),
                        stamp,
                        fingerprints: Arc::clone(fingerprints),
                        summaries: Arc::clone(record.summaries.as_ref()?),
                        samples: Arc::clone(record.samples()?),
                        worlds: record.worlds,
                    })
                })
                .collect();
            (candidates, table.matchable_epoch)
        };
        let mut slots = Vec::with_capacity(candidates.len() * columns.len());
        for candidate in &candidates {
            if !candidate.summaries.resolve(columns, &mut slots) {
                slots.extend(std::iter::repeat(NO_SLOT).take(columns.len()));
            }
        }
        let windows = use_index
            .then(|| KeyWindows::build(&candidates, &slots, columns.len()))
            .flatten();
        let snapshot = ScanSnapshot {
            candidates,
            slots,
            windows,
            columns: columns.to_vec(),
            detector: *detector,
            use_index,
        };
        (snapshot, epoch)
    }

    /// Close a batch of [`ScanSnapshot::scan_probe`]s: fold the probes'
    /// work into the batch's [`MatchScanStats`] and bump the hit/miss
    /// ledger once. Every field is a sum of per-probe work, so neither
    /// the order nor the threads the probes scanned on can move it.
    pub fn record_scans(&self, work: impl IntoIterator<Item = ScanWork>) -> MatchScanStats {
        let (mut probes, mut hits) = (0u64, 0u64);
        let mut stats = MatchScanStats::default();
        for w in work {
            probes += 1;
            hits += w.hit as u64;
            stats.candidates_scanned += w.scanned;
            stats.candidates_pruned += w.pruned;
            stats.window_hits += w.window_hit as u64;
        }
        let mut counters = self.stats.lock();
        counters.hits += hits;
        counters.misses += probes - hits;
        stats
    }

    // --------------------------------------------------- snapshot / restore

    /// Serialize every record in stamp order: the byte stream is a pure
    /// function of the store's contents. It is written under the table's
    /// read lock — except that a recipe record whose recipe can no longer
    /// be written (its source was replaced or evicted) travels as samples
    /// that must first be rebuilt: those are copied out, rebuilt with no
    /// lock held, and the table is walked again.
    fn snapshot_with_count(&self) -> (Vec<u8>, usize) {
        let mut rebuilt: HashMap<u64, Arc<ColumnSamples>> = HashMap::new();
        loop {
            let table = self.table.read();
            let records: Vec<(&ParamPoint, &Record)> = table.by_stamp().collect();
            let sources = source_columns(&table);
            let recipes: Vec<Option<RecipeOut<'_>>> = (records.iter())
                .map(|(_, r)| live_recipe(&sources, r))
                .collect();
            let as_samples = |r: &Record, recipe: &Option<RecipeOut<'_>>| {
                recipe.is_none() && r.samples().is_none()
            };
            let missing: Vec<(ParamPoint, u64, StoredEntry)> = (records.iter().zip(&recipes))
                .filter(|((_, r), recipe)| as_samples(r, recipe))
                .filter(|((_, r), _)| !rebuilt.contains_key(&r.stamp))
                .map(|((p, r), _)| ((*p).clone(), r.stamp, StoredEntry::of(r, &self.stats)))
                .collect();
            if missing.is_empty() {
                let records: Vec<(&ParamPoint, Cow<'_, Record>, Option<RecipeOut<'_>>)> =
                    (records.into_iter().zip(recipes))
                        .map(|((point, r), recipe)| {
                            let record = if as_samples(r, &recipe) {
                                let samples = Arc::clone(&rebuilt[&r.stamp]);
                                Cow::Owned(Record {
                                    body: Body::Samples(samples),
                                    ..r.clone()
                                })
                            } else {
                                Cow::Borrowed(r)
                            };
                            (point, record, recipe)
                        })
                        .collect();
                let bytes = encode_snapshot(&self.provenance, table.next_stamp, &records);
                return (bytes, records.len());
            }
            drop(table);
            for (point, stamp, entry) in missing {
                rebuilt.insert(stamp, entry.materialize(&point));
            }
        }
    }

    /// Serialize the store — the stamp counter, a version header, every
    /// record, and a trailing checksum — into a byte vector
    /// [`SharedBasisStore::restore_with`] accepts. A recipe record whose
    /// source is still stored is written as its [`Recipe`]; every other
    /// record as its samples, plus its fingerprints if it
    /// is matchable. Summaries are derived data and are *not* serialized;
    /// a restore recomputes them. See `docs/CONCURRENCY.md` for the format.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_with_count().0
    }

    /// [`SharedBasisStore::restore_with`] for a snapshot without recipe
    /// records — one whose every record is a simulated or unsourced one.
    /// A recipe record fails the restore with
    /// [`SnapshotError::RecipeNeedsEngine`].
    pub fn restore_bytes(&self, bytes: &[u8]) -> Result<usize, SnapshotError> {
        self.restore(bytes, None)
    }

    /// Replace this store's contents with a snapshot's, installing each
    /// recipe record as one: its recipe, its source's samples, its
    /// moments as the file holds them, and `rebuild` — for the engine, its
    /// own remap — which rebuilds its samples, the bits the writing store
    /// held, only when they are read. The records of one recipe share one
    /// body. Returns the number of restored entries.
    ///
    /// A restore runs in two steps, and only the second touches the
    /// store. It validates: the whole byte stream is parsed — header,
    /// checksum, provenance (the store's own, else
    /// [`SnapshotError::WrongWorld`]), record structure, recipe sources,
    /// stamp order, canonical form (else
    /// [`SnapshotError::NotCanonical`]) — every recipe passes
    /// [`Rebuild::check_recipe`] and every recipe record's point
    /// [`Rebuild::check_point`] (else [`SnapshotError::Rebuild`]), the
    /// points are distinct, and the records fit the byte budget as their
    /// writer charged them (else [`SnapshotError::CapacityExceeded`]), so
    /// a store restores its own save. Then it installs the table; nothing
    /// is rebuilt. A recipe record that fell back to samples is filed as a
    /// samples record; if that leaves the books over budget, the next
    /// publish makes room. A failed restore leaves the store untouched. A
    /// successful one behaves like [`SharedBasisStore::clear`] followed by
    /// replaying the snapshot's records with their original stamps:
    /// in-flight claims are cancelled (waiters re-claim), counters reset,
    /// and the stamp counter continues from the snapshot's, so
    /// post-restore inserts, match tie-breaks and re-saves are
    /// bit-identical to the store that wrote it.
    pub fn restore_with(
        &self,
        bytes: &[u8],
        rebuild: &RebuildHandle,
    ) -> Result<usize, SnapshotError> {
        self.restore(bytes, Some(rebuild))
    }

    fn restore(
        &self,
        bytes: &[u8],
        rebuild: Option<&RebuildHandle>,
    ) -> Result<usize, SnapshotError> {
        let parsed = parse_snapshot(bytes, &self.provenance)?;
        let count = parsed.records.len();
        // One body per recipe, checked once, which every record of it
        // shares; only a record's point is checked per record.
        let mut shared = Vec::with_capacity(parsed.recipes.len());
        for r in parsed.recipes {
            let rebuild = rebuild.ok_or(SnapshotError::RecipeNeedsEngine)?;
            (rebuild.check_recipe(&r.source, &r.recipe.mappings, r.worlds))
                .map_err(SnapshotError::Rebuild)?;
            let body = RecipeBody::new(r.recipe, r.source, Arc::clone(rebuild), r.moments);
            shared.push((r.worlds, body));
        }
        let mut restored = Table {
            entries: HashMap::with_capacity_and_hasher(count, FastBuild::default()),
            next_stamp: parsed.next_stamp,
            ..Table::default()
        };
        // The books as the writer kept them, against a unit no smaller than
        // any one record: the writer's `make_room` budgeted each insert by
        // at least the incoming record's charge.
        let (mut charged, mut unit) = (0, 0);
        // The last point that passed `check_point`: a point with its very
        // names binds the same parameters.
        let mut checked: Option<ParamPoint> = None;
        for r in parsed.records {
            // Summaries are derived: recomputed, not read from the bytes.
            let record = match r.body {
                ParsedBody::Samples {
                    worlds,
                    fingerprints,
                    samples,
                    matchable,
                } => Record::new(fingerprints, samples, worlds, r.stamp, matchable),
                ParsedBody::Recipe(index) => {
                    let (worlds, body) = &shared[index];
                    if !checked.as_ref().is_some_and(|p| r.point.shares_names(p)) {
                        (body.0.rebuild.check_point(&r.point)).map_err(SnapshotError::Rebuild)?;
                        checked = Some(r.point.clone());
                    }
                    Record::mapped(*worlds, r.stamp, body.clone())
                }
            };
            charged += record.writer_charge();
            unit = unit.max(record.charge());
            // A writer's points are distinct: a repeated one would replace
            // an entry and leave its stamp an orphan in the queue.
            if restored.put(r.point, record) {
                return Err(SnapshotError::Truncated);
            }
        }
        if charged > self.capacity.saturating_mul(unit) {
            return Err(SnapshotError::CapacityExceeded {
                entries: count,
                capacity: self.capacity,
            });
        }
        self.reset_with(|table| {
            // The epoch counts this table's changes, not the snapshot's.
            restored.matchable_epoch = table.matchable_epoch;
            *table = restored;
            table.matchable_changed();
        });
        Ok(count)
    }

    /// Write a snapshot to `path` (see
    /// [`SharedBasisStore::snapshot_bytes`]). Returns the number of
    /// serialized entries.
    ///
    /// The write is atomic: the bytes go to a temporary sibling of `path`,
    /// which is synced to disk and then renamed over it, so a crash or a
    /// full disk mid-write leaves the previous snapshot as it was.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> Result<usize, SnapshotError> {
        let (bytes, count) = self.snapshot_with_count();
        replace_file(path.as_ref(), |file| file.write_all(&bytes))
            .map_err(|e| SnapshotError::Io(e.to_string()))?;
        Ok(count)
    }
}

/// Replace `path` with what `write` puts into a fresh file: written to a
/// temporary sibling (same directory, so same filesystem), synced, then
/// renamed over `path`. Any failure removes the temporary and leaves
/// `path` untouched.
fn replace_file(
    path: &std::path::Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    static SAVES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "snapshot path names no file",
        )
    })?;
    let nonce = SAVES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.{nonce}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        write(&mut file)?;
        file.sync_all()
    });
    let result = written.and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

impl std::fmt::Debug for SharedBasisStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats_snapshot();
        f.debug_struct("SharedBasisStore")
            .field("len", &stats.entries)
            .field("capacity", &self.capacity)
            .field("inflight", &self.inflight_len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("inflight_waits", &stats.inflight_waits)
            .field("evictions", &stats.evictions)
            .field("resident", &stats.resident)
            .field("rematerializations", &stats.rematerializations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{
        put_header, put_u64, serialize_record, snapshot_checksum, Names, ParsedRecord, Shape,
        KIND_RECIPE, KIND_RECIPE_INDEX, KIND_SAMPLES, KIND_SOURCE, MAP_OFFSET, SNAPSHOT_FOOTER,
        SNAPSHOT_HEADER, SNAPSHOT_VERSION,
    };

    fn point(name: &str, v: i64) -> ParamPoint {
        ParamPoint::from_pairs([(name.to_owned(), v)])
    }

    fn fp(values: &[f64]) -> Fingerprint {
        Fingerprint::from_values(values.to_vec())
    }

    fn samples(v: f64) -> Arc<ColumnSamples> {
        Arc::new(HashMap::from([("y".to_owned(), vec![v, v + 1.0])]))
    }

    /// One probe through the indexed batch scan, on column `y`.
    fn find_one(s: &SharedBasisStore, probe: &HashMap<String, Fingerprint>) -> Option<BasisHit> {
        s.find_correlated_batch_scan(
            std::slice::from_ref(probe),
            &["y".to_owned()],
            &CorrelationDetector::default(),
            1,
            true,
        )
        .0
        .pop()
        .flatten()
    }

    /// `(hits, misses)` of correlated lookups so far.
    fn hit_stats(s: &SharedBasisStore) -> (u64, u64) {
        let stats = s.stats_snapshot();
        (stats.hits, stats.misses)
    }

    /// Capacity-4 store fed 12 mixed-matchability inserts: 8 evictions of
    /// churn.
    fn churn_store() -> SharedBasisStore {
        let s = SharedBasisStore::new(4);
        for i in 0..12i64 {
            let vals: Vec<f64> = (0..4).map(|k| (i * 3 + k) as f64).collect();
            s.insert(
                point("p", i),
                HashMap::from([("y".to_owned(), fp(&vals))]),
                samples(i as f64),
                2,
                i % 3 != 0,
            );
        }
        s
    }

    #[test]
    fn exact_lookup_respects_min_worlds() {
        let s = SharedBasisStore::new(8);
        let p = point("x", 1);
        s.insert(p.clone(), HashMap::new(), samples(1.0), 50, true);
        assert!(s.get_exact(&p, 50).is_some());
        assert!(s.get_exact(&p, 51).is_none(), "too few worlds stored");
        assert!(s.get_exact(&point("x", 2), 1).is_none());
    }

    #[test]
    fn clones_share_storage() {
        let a = SharedBasisStore::new(8);
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        a.insert(point("x", 1), HashMap::new(), samples(0.0), 10, true);
        assert_eq!(
            b.len(),
            1,
            "insert through one handle is visible through the other"
        );
        b.clear();
        assert!(a.is_empty());
        assert!(!a.shares_storage_with(&SharedBasisStore::new(8)));
    }

    #[test]
    fn correlated_lookup_finds_offset_related_entry() {
        let s = SharedBasisStore::new(8);
        let base = [1.0, 2.0, 3.0, 5.0];
        s.insert(
            point("x", 1),
            HashMap::from([("y".to_owned(), fp(&base))]),
            samples(10.0),
            100,
            true,
        );
        let shifted: Vec<f64> = base.iter().map(|v| v + 7.0).collect();
        let probes = HashMap::from([("y".to_owned(), fp(&shifted))]);
        let hit = find_one(&s, &probes).expect("offset relation must match");
        assert_eq!(hit.source, point("x", 1));
        assert_eq!(hit.worlds, 100);
        assert_eq!(hit.mappings["y"], Mapping::Offset(7.0));
        assert_eq!(hit_stats(&s), (1, 0));
    }

    #[test]
    fn unmatchable_entries_are_skipped() {
        let s = SharedBasisStore::new(8);
        let base = [1.0, 2.0, 3.0, 5.0];
        s.insert(
            point("x", 1),
            HashMap::from([("y".to_owned(), fp(&base))]),
            samples(0.0),
            100,
            false, // mapped entry: not a matching source
        );
        let probes = HashMap::from([("y".to_owned(), fp(&base))]);
        assert!(find_one(&s, &probes).is_none());
        assert_eq!(hit_stats(&s), (0, 1));
    }

    #[test]
    fn batch_lookup_matches_per_probe_and_prefers_earliest_exact_source() {
        let s = SharedBasisStore::new(8);
        let base = [1.0, 2.0, 3.0, 5.0];
        // Two identical sources: ties must resolve to the first inserted.
        s.insert(
            point("x", 1),
            HashMap::from([("y".to_owned(), fp(&base))]),
            samples(1.0),
            100,
            true,
        );
        s.insert(
            point("x", 2),
            HashMap::from([("y".to_owned(), fp(&base))]),
            samples(2.0),
            100,
            true,
        );
        let shifted: Vec<f64> = base.iter().map(|v| v + 7.0).collect();
        let unrelated = [0.3, 0.1, 0.4, 0.1];
        let probes = vec![
            HashMap::from([("y".to_owned(), fp(&base))]),
            HashMap::from([("y".to_owned(), fp(&shifted))]),
            HashMap::from([("y".to_owned(), fp(&unrelated))]),
        ];
        for threads in [1, 4] {
            let (hits, _) = s.find_correlated_batch_scan(
                &probes,
                &["y".to_owned()],
                &CorrelationDetector::default(),
                threads,
                true,
            );
            assert_eq!(hits.len(), 3);
            let h0 = hits[0].as_ref().expect("identity probe hits");
            assert_eq!(h0.source, point("x", 1), "earliest exact source wins");
            assert_eq!(h0.mappings["y"], Mapping::Identity);
            let h1 = hits[1].as_ref().expect("offset probe hits");
            assert_eq!(h1.mappings["y"], Mapping::Offset(7.0));
            assert!(hits[2].is_none(), "unrelated probe misses");
        }
    }

    #[test]
    fn try_claim_dedupes_concurrent_simulations() {
        let s = SharedBasisStore::new(8);
        let p = point("x", 1);
        let TryClaim::Owner(guard) = s.try_claim(&p, 10) else {
            panic!("first claim on a cold point must own it");
        };
        assert_eq!(s.inflight_len(), 1);
        let TryClaim::Pending(handle) = s.try_claim(&p, 10) else {
            panic!("second claim must observe the in-flight owner");
        };
        let waiter = std::thread::spawn(move || handle.wait());
        assert!(guard.complete(HashMap::new(), samples(3.0), 10, true));
        let got = waiter.join().unwrap().expect("published, not cancelled");
        assert_eq!(got.resident().unwrap()["y"], vec![3.0, 4.0]);
        assert_eq!(got.worlds(), 10);
        assert_eq!(s.inflight_len(), 0);
        assert_eq!(s.stats_snapshot().inflight_waits, 1);
        // Published entry is now an exact hit for later claims.
        assert!(matches!(s.try_claim(&p, 10), TryClaim::Ready { .. }));
        assert!(
            matches!(s.try_claim(&p, 11), TryClaim::Owner(_)),
            "too few stored worlds re-opens the claim"
        );
    }

    /// A publish wakes a waiter that is already asleep — the wake it
    /// skips when no one waits is never one a waiter needs.
    #[test]
    fn a_publish_wakes_a_waiter_that_sleeps_on_the_slot() {
        let s = SharedBasisStore::new(8);
        let p = point("x", 1);
        let TryClaim::Owner(guard) = s.try_claim(&p, 10) else {
            panic!("first claim on a cold point must own it");
        };
        let TryClaim::Pending(handle) = s.try_claim(&p, 10) else {
            panic!("second claim must observe the in-flight owner");
        };
        let slot = Arc::clone(&handle.slot);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(handle.wait().is_some()).unwrap());
        while slot.waiters.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        assert!(guard.complete(HashMap::new(), samples(3.0), 10, true));
        let served = rx.recv_timeout(std::time::Duration::from_secs(30));
        assert_eq!(served, Ok(true), "the sleeping waiter was woken and served");
        waiter.join().unwrap();
        assert_eq!(slot.waiters.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dropped_guard_cancels_waiters_so_they_reclaim() {
        let s = SharedBasisStore::new(8);
        let p = point("x", 1);
        let TryClaim::Owner(guard) = s.try_claim(&p, 10) else {
            panic!("expected owner");
        };
        let TryClaim::Pending(handle) = s.try_claim(&p, 10) else {
            panic!("expected pending");
        };
        drop(guard); // owner failed before publishing
        assert!(handle.wait().is_none(), "waiters must not block forever");
        assert!(
            matches!(s.try_claim(&p, 10), TryClaim::Owner(_)),
            "slot released: the next claimant owns the retry"
        );
    }

    #[test]
    fn clear_cancels_inflight_and_discards_stale_completion() {
        let s = SharedBasisStore::new(8);
        let p = point("x", 1);
        let TryClaim::Owner(guard) = s.try_claim(&p, 10) else {
            panic!("expected owner");
        };
        let TryClaim::Pending(handle) = s.try_claim(&p, 10) else {
            panic!("expected pending");
        };
        s.clear();
        assert_eq!(s.inflight_len(), 0, "clear detaches pending slots");
        assert!(
            handle.wait().is_none(),
            "clear wakes waiters to re-simulate"
        );
        assert!(
            !guard.complete(HashMap::new(), samples(9.0), 10, true),
            "completion after clear reports the discard"
        );
        assert!(
            s.get_exact(&p, 1).is_none(),
            "pre-clear results must not resurrect"
        );
        // The store is fully usable again.
        let TryClaim::Owner(fresh) = s.try_claim(&p, 10) else {
            panic!("expected fresh owner after clear");
        };
        assert!(fresh.complete(HashMap::new(), samples(1.0), 10, true));
        assert!(s.get_exact(&p, 10).is_some());
    }

    #[test]
    fn eviction_never_drops_a_pending_inflight_entry() {
        // Capacity 1: the pending point is claimed, then unrelated inserts
        // churn the bounded table. The waiter must still receive the
        // published samples — the in-flight hand-off bypasses the entries.
        let s = SharedBasisStore::new(1);
        let p = point("x", 1);
        let TryClaim::Owner(guard) = s.try_claim(&p, 4) else {
            panic!("expected owner");
        };
        let TryClaim::Pending(handle) = s.try_claim(&p, 4) else {
            panic!("expected pending");
        };
        s.insert(point("x", 2), HashMap::new(), samples(2.0), 4, true);
        s.insert(point("x", 3), HashMap::new(), samples(3.0), 4, true);
        assert_eq!(s.len(), 1, "capacity bound holds while a claim is open");
        assert_eq!(s.inflight_len(), 1, "churn cannot evict the claim");
        assert!(guard.complete(HashMap::new(), samples(7.0), 4, true));
        let got = handle.wait().expect("waiter survives eviction churn");
        assert_eq!(got.resident().unwrap()["y"], vec![7.0, 8.0]);
    }

    #[test]
    fn eviction_prefers_unmatchable_entries() {
        let s = SharedBasisStore::new(2);
        s.insert(point("x", 1), HashMap::new(), samples(0.0), 10, true);
        s.insert(point("x", 2), HashMap::new(), samples(0.0), 10, false);
        s.insert(point("x", 3), HashMap::new(), samples(0.0), 10, true);
        assert_eq!(s.len(), 2);
        assert!(
            s.get_exact(&point("x", 1), 1).is_some(),
            "simulated source survives"
        );
        assert!(
            s.get_exact(&point("x", 2), 1).is_none(),
            "mapped entry evicted first"
        );
        assert!(s.get_exact(&point("x", 3), 1).is_some());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SharedBasisStore::new(0);
    }

    /// A scan runs against the snapshot, not the live store: a better
    /// candidate inserted, the chosen source evicted, or the whole store
    /// cleared after the snapshot change neither the chosen source nor the
    /// hit's samples — the evicted record stays alive through its `Arc`s.
    #[test]
    fn scan_snapshot_is_isolated_from_later_store_mutation() {
        let detector = CorrelationDetector::default();
        let columns = ["y".to_owned()];
        let base = [1.0, 2.0, 4.0, 7.0];
        let near: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 * v + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let probe = HashMap::from([("y".to_owned(), fp(&base))]);
        let s = SharedBasisStore::new(2);
        s.insert(
            point("x", 1),
            HashMap::from([("y".to_owned(), fp(&near))]),
            samples(10.0),
            2,
            true,
        );
        let before = s.snapshot_at_epoch(&columns, &detector, true).0;
        let stored = s.get_exact(&point("x", 1), 2).expect("source stored");

        // An exact source arrives, then churn evicts the original one.
        s.insert(
            point("x", 2),
            HashMap::from([("y".to_owned(), fp(&base))]),
            samples(20.0),
            2,
            true,
        );
        s.insert(point("x", 3), HashMap::new(), samples(30.0), 2, true);
        assert!(s.get_exact(&point("x", 1), 1).is_none(), "source evicted");
        let after = s.snapshot_at_epoch(&columns, &detector, true).0;
        s.clear();
        assert!(s.is_empty());

        let old = before.scan_probe(&probe);
        let hit = old.hit.expect("the snapshot still holds its source");
        assert_eq!(hit.source, point("x", 1), "later inserts are invisible");
        assert!(matches!(hit.mappings["y"], Mapping::Affine { .. }));
        assert!(
            Arc::ptr_eq(&hit.samples, &stored),
            "the evicted record's samples live on through the snapshot"
        );
        assert_eq!(hit.samples["y"], vec![10.0, 11.0]);
        assert_eq!(
            old.work,
            ScanWork {
                scanned: 1,
                pruned: 0,
                window_hit: false,
                hit: true
            }
        );
        // A snapshot taken after the insert sees the exact source; the
        // clear that followed it does not reach into it either.
        let new = after.scan_probe(&probe).hit.expect("exact source");
        assert_eq!(new.source, point("x", 2));
        assert_eq!(new.mappings["y"], Mapping::Identity);
        // Scanning a snapshot never touches the live store's ledger.
        assert_eq!(hit_stats(&s), (0, 0));
    }

    /// The shared snapshot is rebuilt exactly when the matchable set
    /// changes, and is then the snapshot a from-scratch walk would take.
    #[test]
    fn shared_scan_snapshot_lives_until_the_matchable_set_changes() {
        let detector = CorrelationDetector::default();
        let columns = ["y".to_owned()];
        let sources = |snapshot: &ScanSnapshot| -> Vec<(ParamPoint, *const ColumnSamples)> {
            let candidates = snapshot.candidates.iter();
            candidates
                .map(|c| (c.point.clone(), Arc::as_ptr(&c.samples)))
                .collect()
        };
        let s = SharedBasisStore::new(3);
        let shared = || s.scan_snapshot_shared(&columns, &detector, true);
        let put = |i: i64, matchable: bool| {
            let prints = HashMap::from([("y".to_owned(), fp(&[i as f64, 2.0, 4.0]))]);
            s.insert(point("x", i), prints, samples(i as f64), 2, matchable);
        };
        put(1, true);
        let mut current = shared();
        assert_eq!(sources(&current).len(), 1);

        // Unmatchable publishes — a first, a replacement, one that evicts
        // an unmatchable entry — leave the candidate set alone.
        for i in [2, 2, 3, 4] {
            put(i, false);
            assert!(Arc::ptr_eq(&current, &shared()), "after unmatchable {i}");
        }
        // Another scan configuration is another snapshot, and takes the
        // one cache entry with it.
        assert!(!s.scan_snapshot_shared(&columns, &detector, false).use_index);
        assert!(!Arc::ptr_eq(&current, &shared()));
        current = shared();

        type Change<'a> = (&'a str, Box<dyn Fn() + 'a>);
        let bytes = s.snapshot_bytes();
        let fill = || (6..=8).for_each(|i| put(i, true));
        let changes: [Change<'_>; 7] = [
            ("matchable publish", Box::new(|| put(5, true))),
            ("matchable replacement", Box::new(|| put(5, true))),
            ("replacement by an unmatchable", Box::new(|| put(5, false))),
            ("matchable publishes evicting", Box::new(fill)),
            // Nothing but sources left to evict: the newcomer itself is
            // no candidate, its victim was.
            ("matchable eviction", Box::new(|| put(9, false))),
            ("clear", Box::new(|| s.clear())),
            (
                "restore",
                Box::new(|| assert_eq!(s.restore_bytes(&bytes), Ok(3))),
            ),
        ];
        for (what, change) in changes {
            // The epoch is what keeps a snapshot walked before the change
            // from being cached after it.
            let epoch = s.table.read().matchable_epoch;
            change();
            assert!(s.table.read().matchable_epoch > epoch, "{what}");
            let fresh = shared();
            assert!(!Arc::ptr_eq(&current, &fresh), "{what}");
            assert_eq!(
                sources(&fresh),
                sources(&s.snapshot_at_epoch(&columns, &detector, true).0),
                "{what}"
            );
            assert!(Arc::ptr_eq(&fresh, &shared()), "{what}: cached again");
            current = fresh;
        }
        assert_eq!(sources(&current).len(), 1, "the restored store's source");
    }

    /// Eviction comes off the global stamp-ordered queues — oldest
    /// unmatchable first, then oldest matchable — and is counted.
    #[test]
    fn eviction_uses_stamp_order_and_counts() {
        let s = SharedBasisStore::new(2);
        s.insert(point("x", 1), HashMap::new(), samples(0.0), 10, true);
        s.insert(point("x", 2), HashMap::new(), samples(0.0), 10, false);
        s.insert(point("x", 3), HashMap::new(), samples(0.0), 10, true); // evicts x2
        s.insert(point("x", 4), HashMap::new(), samples(0.0), 10, true); // evicts x1
        let snap = s.stats_snapshot();
        assert_eq!(snap.evictions, 2);
        assert_eq!(snap.entries, 2);
        assert!(
            s.get_exact(&point("x", 1), 1).is_none(),
            "oldest matchable evicted"
        );
        assert!(
            s.get_exact(&point("x", 2), 1).is_none(),
            "unmatchable evicted first"
        );
        assert!(s.get_exact(&point("x", 3), 1).is_some());
        assert!(s.get_exact(&point("x", 4), 1).is_some());
    }

    /// Re-inserting a stored point is a replacement, never an eviction,
    /// and refreshes the entry's stamp (it becomes the newest).
    #[test]
    fn replacement_does_not_evict_and_refreshes_stamp() {
        let s = SharedBasisStore::new(2);
        s.insert(point("x", 1), HashMap::new(), samples(1.0), 10, true);
        s.insert(point("x", 2), HashMap::new(), samples(2.0), 10, true);
        s.insert(point("x", 1), HashMap::new(), samples(9.0), 20, true);
        assert_eq!(
            s.stats_snapshot().evictions,
            0,
            "replacement is not eviction"
        );
        assert_eq!(s.len(), 2);
        // x1's stamp was refreshed, so the next eviction takes x2.
        s.insert(point("x", 3), HashMap::new(), samples(3.0), 10, true);
        assert!(s.get_exact(&point("x", 2), 1).is_none());
        assert!(
            s.get_exact(&point("x", 1), 20).is_some(),
            "refreshed entry survives"
        );
    }

    #[test]
    fn snapshot_round_trips_under_eviction_churn() {
        let src = churn_store();
        let churned = src.stats_snapshot();
        assert_eq!((churned.entries, churned.evictions), (4, 8));
        let bytes = src.snapshot_bytes();
        let dst = SharedBasisStore::new(4);
        assert_eq!(dst.restore_bytes(&bytes), Ok(4));
        assert_eq!(
            dst.snapshot_bytes(),
            bytes,
            "snapshot of a restore is byte-identical"
        );
        assert_eq!(dst.len(), 4);
        let snap = dst.stats_snapshot();
        assert_eq!(
            (snap.hits, snap.misses, snap.evictions, snap.inflight_waits),
            (0, 0, 0, 0),
            "restore resets counters"
        );
        // The restored store continues the stamp stream: the next insert
        // evicts the same victim the source store evicts.
        src.insert(point("q", 1), HashMap::new(), samples(0.5), 2, false);
        dst.insert(point("q", 1), HashMap::new(), samples(0.5), 2, false);
        assert_eq!(
            dst.snapshot_bytes(),
            src.snapshot_bytes(),
            "post-restore eviction and stamping track the source store"
        );
    }

    /// The snapshot encodes a point's names once, in the header's sorted
    /// name table, and the point as its `(name index, value)` pairs;
    /// reference-counted names must not move a byte. Seeded loop against
    /// an independent `Vec<(String, i64)>` encoding.
    #[test]
    fn snapshot_point_bytes_match_a_string_pair_model() {
        use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
        // Magic, version, stamp counter, count, the zero provenance —
        // three words and an empty registry — and the name table's count.
        const HEADER: usize = 4 + 2 + 8 + 8 + 8 + 8 + 8 + 4 + 4;
        assert_eq!(HEADER, SNAPSHOT_HEADER);
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xF9B5);
        let names = ["current", "feature", "purchase1", "p", "é", ""];
        for _ in 0..200 {
            let mut model: Vec<(String, i64)> = Vec::new();
            let mut p = ParamPoint::new();
            for _ in 0..rng.next_u64() % 5 {
                let name = names[(rng.next_u64() % names.len() as u64) as usize];
                let value = rng.next_u64() as i64;
                p.set(name, value);
                model.retain(|(n, _)| n != name);
                model.push((name.to_owned(), value));
            }
            model.sort();
            // The table's count and names, the record's stamp (1), then
            // the pair count and pairs: one point, so the i-th name of the
            // table is its i-th pair's.
            let mut expected = (model.len() as u32).to_le_bytes().to_vec();
            for (name, _) in &model {
                expected.extend_from_slice(&(name.len() as u32).to_le_bytes());
                expected.extend_from_slice(name.as_bytes());
            }
            expected.extend_from_slice(&1u64.to_le_bytes());
            expected.extend_from_slice(&(model.len() as u32).to_le_bytes());
            for (index, (_, value)) in model.iter().enumerate() {
                expected.extend_from_slice(&(index as u32).to_le_bytes());
                expected.extend_from_slice(&value.to_le_bytes());
            }
            let s = SharedBasisStore::new(1);
            s.insert(p.clone(), HashMap::new(), samples(0.0), 2, false);
            let bytes = s.snapshot_bytes();
            let at = HEADER - 4;
            assert_eq!(bytes[at..at + expected.len()], expected, "{p}");
            let restored = SharedBasisStore::new(1);
            assert_eq!(restored.restore_bytes(&bytes), Ok(1));
            assert!(restored.get_exact(&p, 2).is_some(), "{p} round-trips");
        }
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let src = SharedBasisStore::new(4);
        src.insert(
            point("x", 1),
            HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 3.0]))]),
            samples(1.0),
            2,
            true,
        );
        src.insert(point("x", 2), HashMap::new(), samples(2.0), 2, false);
        let good = src.snapshot_bytes();

        let fresh = SharedBasisStore::new(4);
        assert_eq!(
            fresh.restore_bytes(&good[..10]),
            Err(SnapshotError::Truncated)
        );
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            fresh.restore_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        );
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert_eq!(
            fresh.restore_bytes(&bad_version),
            Err(SnapshotError::UnsupportedVersion(9))
        );
        // Version-1 (FNV-1a trailer), version-2 (samples for every record),
        // version-3 (recipes without moments or provenance) and version-4
        // (every recipe and parameter name written per record) files are
        // not read.
        for version in [1u16, 2, 3, 4] {
            let mut old = good.clone();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                fresh.restore_bytes(&old),
                Err(SnapshotError::UnsupportedVersion(version))
            );
        }
        // Every single-bit flip outside the magic and the version —
        // header, records, trailer — fails the checksum.
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let want = match bit / 8 {
                0..=3 => SnapshotError::BadMagic,
                4..=5 => {
                    SnapshotError::UnsupportedVersion(u16::from_le_bytes([flipped[4], flipped[5]]))
                }
                _ => SnapshotError::ChecksumMismatch,
            };
            assert_eq!(fresh.restore_bytes(&flipped), Err(want), "bit {bit}");
        }
        // A structurally short body behind a *recomputed* (valid) checksum
        // still rejects: structure is validated, not just integrity.
        let short = restamp(good[..good.len() - 8 - 3].to_vec());
        assert_eq!(fresh.restore_bytes(&short), Err(SnapshotError::Truncated));
        // A record whose sample column is shorter than its `worlds` field,
        // behind a valid checksum: consumers index lanes `0..worlds`, so
        // it must not restore. The last (unmatchable) record's `worlds`
        // field sits before its column count (4), name "y" (4 + 1), lane
        // count (8) and two lanes (16), counted back from the checksum.
        let mut long_worlds = good[..good.len() - 8].to_vec();
        let at = long_worlds.len() - (4 + 5 + 8 + 16) - 8;
        assert_eq!(long_worlds[at..at + 8], 2u64.to_le_bytes());
        long_worlds[at..at + 8].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(
            fresh.restore_bytes(&restamp(long_worlds)),
            Err(SnapshotError::Truncated)
        );
        // More entries than the target store can hold.
        let tiny = SharedBasisStore::new(1);
        assert_eq!(
            tiny.restore_bytes(&good),
            Err(SnapshotError::CapacityExceeded {
                entries: 2,
                capacity: 1
            })
        );
        // Every rejection left the store untouched…
        assert!(fresh.is_empty());
        // …and the unmodified bytes still restore.
        assert_eq!(fresh.restore_bytes(&good), Ok(2));
        assert!(fresh.get_exact(&point("x", 1), 2).is_some());
    }

    /// Snapshot bytes holding one matchable record per `(point, stamp)`
    /// under header stamp counter `next_stamp`, behind a valid checksum:
    /// a re-stamped file as the structural parser sees it.
    fn forge(next_stamp: u64, records: &[(ParamPoint, u64)]) -> Vec<u8> {
        let records: Vec<(ParamPoint, Record, Shape<'_, '_>)> = (records.iter())
            .map(|(p, stamp)| {
                let fps = HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 3.0]))]);
                let record = Record::new(fps, samples(*stamp as f64), 2, *stamp, true);
                (p.clone(), record, Shape::Samples)
            })
            .collect();
        stream(next_stamp, &records)
    }

    /// Snapshot bytes of `records` in the order given, each written as its
    /// [`Shape`] says, under the zero provenance, header stamp counter
    /// `next_stamp` and the name table of their points, behind a valid
    /// checksum: a forged file as the structural parser sees it.
    fn stream(next_stamp: u64, records: &[(ParamPoint, Record, Shape<'_, '_>)]) -> Vec<u8> {
        let mut names: Vec<&str> = (records.iter())
            .flat_map(|(p, ..)| p.iter().map(|(name, _)| name))
            .collect();
        names.sort_unstable();
        names.dedup();
        stream_named(next_stamp, &names, records)
    }

    /// [`stream`] under the name table `names`.
    fn stream_named(
        next_stamp: u64,
        names: &[&str],
        records: &[(ParamPoint, Record, Shape<'_, '_>)],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        let count = records.len() as u64;
        let mut names = Names::new(names.to_vec());
        put_header(&mut out, &Provenance::default(), &names, next_stamp, count);
        for (p, record, shape) in records {
            serialize_record(&mut out, &mut names, p, record, *shape);
        }
        restamp(out)
    }

    /// The engine's remap for a scenario with no derived columns: each
    /// recipe mapping applied to its source column.
    struct MapColumns;

    impl Rebuild for MapColumns {
        fn rebuild(
            &self,
            _: &ParamPoint,
            source: &ColumnSamples,
            mappings: &HashMap<String, Mapping>,
            _: usize,
        ) -> Result<Arc<ColumnSamples>, String> {
            let mut out = ColumnSamples::new();
            for (column, mapping) in mappings {
                let values = (source.get(column)).ok_or(format!("no column `{column}`"))?;
                out.insert(column.clone(), mapping.apply_samples(values));
            }
            Ok(Arc::new(out))
        }

        /// Every source column mapped, every mapped column held at
        /// `worlds` lanes.
        fn check_recipe(
            &self,
            source: &ColumnSamples,
            mappings: &HashMap<String, Mapping>,
            worlds: usize,
        ) -> Result<(), String> {
            if mappings.len() != source.len() {
                return Err(format!(
                    "{} mappings of {} columns",
                    mappings.len(),
                    source.len()
                ));
            }
            for column in mappings.keys() {
                let values = (source.get(column)).ok_or(format!("no column `{column}`"))?;
                if values.len() != worlds {
                    return Err(format!("`{column}` holds {} lanes", values.len()));
                }
            }
            Ok(())
        }

        /// Any point: no column is derived.
        fn check_point(&self, _: &ParamPoint) -> Result<(), String> {
            Ok(())
        }
    }

    fn remap() -> RebuildHandle {
        Arc::new(MapColumns)
    }

    /// [`MapColumns`] for a scenario whose one parameter is `x`: a point
    /// that does not bind it fails [`Rebuild::check_point`].
    struct BindsX;

    impl Rebuild for BindsX {
        fn rebuild(
            &self,
            point: &ParamPoint,
            source: &ColumnSamples,
            mappings: &HashMap<String, Mapping>,
            worlds: usize,
        ) -> Result<Arc<ColumnSamples>, String> {
            MapColumns.rebuild(point, source, mappings, worlds)
        }

        fn check_recipe(
            &self,
            source: &ColumnSamples,
            mappings: &HashMap<String, Mapping>,
            worlds: usize,
        ) -> Result<(), String> {
            MapColumns.check_recipe(source, mappings, worlds)
        }

        fn check_point(&self, point: &ParamPoint) -> Result<(), String> {
            match point.get("x") {
                Some(_) => Ok(()),
                None => Err(format!("{point} does not bind `x`")),
            }
        }
    }

    /// A restore checks each recipe record's point, not only the first of
    /// its recipe: a later record of a checked recipe whose point does not
    /// bind the scenario's parameter fails typed, and the store is
    /// untouched.
    #[test]
    fn restore_checks_every_recipe_records_point() {
        let prints = || HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        let recipe = Recipe {
            source_stamp: 1,
            mappings: HashMap::from([("y".to_owned(), Mapping::Offset(0.5))]),
        };
        let moments = ColumnMoments::of(&samples(1.5));
        let out = RecipeOut {
            recipe: &recipe,
            moments: &moments,
            columns: &["y"],
        };
        let image = |stamp: u64| Record::new(HashMap::new(), samples(0.0), 2, stamp, false);
        let records = |last: ParamPoint| {
            stream(
                3,
                &[
                    (
                        point("x", 1),
                        Record::new(prints(), samples(1.0), 2, 1, true),
                        Shape::Samples,
                    ),
                    (point("x", 2), image(2), Shape::Define(&out)),
                    (last, image(3), Shape::Index(0)),
                ],
            )
        };
        let handle: RebuildHandle = Arc::new(BindsX);
        let good = records(point("x", 3));
        assert_eq!(SharedBasisStore::new(4).restore_with(&good, &handle), Ok(3));

        let s = SharedBasisStore::new(4);
        s.insert(point("w", 0), prints(), samples(0.0), 2, true);
        let before = s.snapshot_bytes();
        assert_eq!(
            s.restore_with(&records(point("z", 3)), &handle),
            Err(SnapshotError::Rebuild(
                "{@z=3} does not bind `x`".to_owned()
            ))
        );
        assert_eq!(s.snapshot_bytes(), before, "untouched");
    }

    /// The kind byte of every record of a snapshot, in stamp order: a
    /// recipe record defines its recipe if it is the first to use it.
    fn record_kinds(bytes: &[u8]) -> Vec<u8> {
        let parsed = parse_snapshot(bytes, &Provenance::default()).expect("snapshot parses");
        let mut defined = 0;
        let mut kind = |r: &ParsedRecord| match &r.body {
            ParsedBody::Recipe(index) if *index == defined => {
                defined += 1;
                KIND_RECIPE
            }
            ParsedBody::Recipe(_) => KIND_RECIPE_INDEX,
            ParsedBody::Samples { matchable, .. } => *matchable as u8,
        };
        parsed.records.iter().map(&mut kind).collect()
    }

    /// A source at `x = 1` (stamp 1) and, at `x = 2`, its offset image
    /// published through `complete_mapped` (stamp 2).
    fn mapped_store() -> SharedBasisStore {
        let s = SharedBasisStore::new(4);
        let prints = HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        let source = samples(1.0);
        s.insert(point("x", 1), prints, Arc::clone(&source), 2, true);
        let recipe = Recipe {
            source_stamp: 1,
            mappings: HashMap::from([("y".to_owned(), Mapping::Offset(0.5))]),
        };
        let TryClaim::Owner(guard) = s.try_claim(&point("x", 2), 2) else {
            panic!("expected owner");
        };
        let mapped = samples(1.5);
        let moments = ColumnMoments::of(&mapped);
        let body = RecipeBody::new(recipe, source, remap(), moments);
        assert!(guard.complete_mapped(2, body).1);
        s
    }

    /// A clear restarts the stamp counter, leaving the table an empty
    /// snapshot's load leaves. That is safe because no claim taken before
    /// the clear can publish after it: a mapped hit on the pre-clear
    /// source (stamp 1) is discarded, not filed beside the post-clear
    /// source that now holds stamp 1.
    #[test]
    fn a_clear_restarts_stamps_and_no_pre_clear_publish_lands() {
        let s = mapped_store();
        let TryClaim::Owner(stale) = s.try_claim(&point("x", 3), 2) else {
            panic!("expected owner");
        };
        let source = s.get_exact(&point("x", 1), 2).expect("the source");
        let _ = s.scan_snapshot_shared(&["y".to_owned()], &CorrelationDetector::default(), true);
        let epoch = s.table.read().matchable_epoch;
        s.clear();
        assert!(s.table.read().matchable_epoch > epoch);
        assert!(s.table.read().scan_cache.is_none(), "no stale scan cache");

        let loaded = SharedBasisStore::new(4);
        let empty = SharedBasisStore::new(4).snapshot_bytes();
        assert_eq!(loaded.restore_bytes(&empty).unwrap(), 0);
        assert_eq!(
            s.snapshot_bytes(),
            empty,
            "cleared = an empty snapshot's load"
        );
        assert_eq!(loaded.snapshot_bytes(), empty);

        let prints = || HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        for store in [&s, &loaded] {
            store.insert(point("x", 9), prints(), samples(9.0), 2, true);
        }
        let recipe = Recipe {
            source_stamp: 1,
            mappings: HashMap::from([("y".to_owned(), Mapping::Offset(0.5))]),
        };
        let mapped = samples(1.5);
        let moments = ColumnMoments::of(&mapped);
        let body = RecipeBody::new(recipe, source, remap(), moments);
        assert!(
            !stale.complete_mapped(2, body).1,
            "a pre-clear claim's publish is discarded"
        );
        assert!(s.get_exact(&point("x", 3), 1).is_none());
        assert_eq!(s.table.read().entries[&point("x", 9)].stamp, 1);
        assert_eq!(s.snapshot_bytes(), loaded.snapshot_bytes());
    }

    /// Neither an unmatchable `complete` nor a mapped publish keeps probe
    /// fingerprints: scans never read them.
    #[test]
    fn unmatchable_records_hold_no_fingerprints() {
        let s = mapped_store();
        let TryClaim::Owner(guard) = s.try_claim(&point("x", 3), 2) else {
            panic!("expected owner");
        };
        let prints = HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 3.0]))]);
        assert!(guard.complete(prints, samples(3.0), 2, false));
        let table = s.table.read();
        let fingerprints = |x: i64| {
            let prints = &table.entries[&point("x", x)].fingerprints;
            prints.as_ref().map_or(0, |f| f.len())
        };
        assert_eq!(fingerprints(1), 1, "a source keeps its fingerprints");
        assert_eq!(fingerprints(2), 0, "mapped");
        assert_eq!(fingerprints(3), 0, "unmatchable complete");
        assert!(matches!(
            table.entries[&point("x", 2)].body,
            Body::Recipe(_)
        ));
    }

    /// A mapped publish files a recipe record and hands the point's
    /// waiters that record — what a later claim reads — and the publisher
    /// the same: moments at once, the samples rebuilt (and counted) only
    /// when read.
    #[test]
    fn waiters_on_a_mapped_publish_get_its_samples() {
        let s = mapped_store();
        let p = point("x", 3);
        let TryClaim::Owner(guard) = s.try_claim(&p, 2) else {
            panic!("expected owner");
        };
        let TryClaim::Pending(handle) = s.try_claim(&p, 2) else {
            panic!("expected pending");
        };
        let recipe = Recipe {
            source_stamp: 1,
            mappings: HashMap::from([("y".to_owned(), Mapping::Offset(2.0))]),
        };
        let source = s.get_exact(&point("x", 1), 2).expect("the source");
        let mapped = samples(3.0);
        let moments = ColumnMoments::of(&mapped);
        let body = RecipeBody::new(recipe, source, remap(), moments);
        let (published, filed) = guard.complete_mapped(2, body);
        assert!(filed);
        let got = handle.wait().expect("published");
        assert_eq!(got.worlds(), 2);
        assert!(got.resident().is_none(), "a recipe record");
        assert_eq!(got.moments(), published.moments());
        assert_eq!(got.moments(), Some(&ColumnMoments::of(&mapped)));
        let stats = s.stats_snapshot();
        assert_eq!((stats.entries, stats.resident), (3, 1), "the source alone");
        assert_eq!(stats.rematerializations, 0);
        assert_eq!(got.materialize(&p), mapped, "the remap's bits");
        assert_eq!(s.stats_snapshot().rematerializations, 1);
    }

    /// A mapped record travels as its recipe while its source stamp is
    /// stored, and as its samples once the source is re-published at its
    /// point (a new stamp) — either way save → load → save is
    /// byte-identical and the restored samples are the stored ones.
    #[test]
    fn recipes_round_trip_and_fall_back_to_samples() {
        let s = mapped_store();
        let with_recipe = s.snapshot_bytes();
        assert_eq!(record_kinds(&with_recipe), [KIND_SOURCE, KIND_RECIPE]);

        let prints = HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        s.insert(point("x", 1), prints, samples(9.0), 2, true);
        let fallback = s.snapshot_bytes();
        assert_eq!(record_kinds(&fallback), [KIND_SAMPLES, KIND_SOURCE]);

        for bytes in [with_recipe, fallback] {
            let restored = SharedBasisStore::new(4);
            assert_eq!(restored.restore_with(&bytes, &remap()), Ok(2));
            assert_eq!(restored.snapshot_bytes(), bytes, "save → load → save");
            let mapped = restored.get_exact(&point("x", 2), 2).expect("restored");
            assert_eq!(mapped["y"], vec![1.5, 2.5]);
        }
    }

    /// Recipes that name no earlier matchable record, recipes that fail
    /// the rebuild's structural check, and unknown mapping tags fail typed
    /// and leave the store untouched.
    #[test]
    fn restore_rejects_dangling_recipes_and_bad_tags() {
        let source = |stamp: u64, worlds: usize, matchable: bool| {
            let prints = HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
            let values = vec![1.0; worlds];
            let samples = Arc::new(HashMap::from([("y".to_owned(), values)]));
            Record::new(prints, samples, worlds, stamp, matchable)
        };
        let recipe = |source_stamp: u64, column: &str| Recipe {
            source_stamp,
            mappings: HashMap::from([(column.to_owned(), Mapping::Offset(0.5))]),
        };
        // A recipe record's one moments pair is its source's `y`.
        let moments = ColumnMoments::of(&samples(0.5));
        let (by_y, by_z) = (recipe(1, "y"), recipe(1, "z"));
        let (by_later, by_missing) = (recipe(2, "y"), recipe(7, "y"));
        let out = |recipe| RecipeOut {
            recipe,
            moments: &moments,
            columns: &["y"],
        };
        let (y, z, later, missing) = (out(&by_y), out(&by_z), out(&by_later), out(&by_missing));
        let mapped = |stamp: u64, out| {
            let record = Record::new(HashMap::new(), samples(0.0), 2, stamp, false);
            (point("x", 2), record, Shape::Define(out))
        };
        let src = |stamp, matchable| (point("x", 1), source(stamp, 2, matchable), Shape::Samples);
        let good = stream(9, &[src(1, true), mapped(2, &y)]);
        // Its recipe record's charge (overhead, a mapping, a moments pair)
        // outweighs the two-lane source's, and a store of two takes it, as
        // a writer of two that made room for the recipe record did.
        assert_eq!(
            SharedBasisStore::new(2).restore_with(&good, &remap()),
            Ok(2)
        );

        let dangling = |stamp, source_stamp| SnapshotError::DanglingRecipe {
            stamp,
            source_stamp,
        };
        for (label, bad, want) in [
            (
                "later source",
                stream(9, &[mapped(1, &later), src(2, true)]),
                dangling(1, 2),
            ),
            (
                "missing source",
                stream(9, &[src(1, true), mapped(2, &missing)]),
                dangling(2, 7),
            ),
            (
                "unmatchable source",
                stream(9, &[src(1, false), mapped(2, &y)]),
                dangling(2, 1),
            ),
            (
                "a mapping of a column the source lacks",
                stream(9, &[src(1, true), mapped(2, &z)]),
                SnapshotError::Rebuild("no column `z`".to_owned()),
            ),
            (
                "bad mapping tag",
                {
                    // The tag is the last record's byte before its one
                    // `f64` offset and its moments pair, counted back from
                    // the checksum.
                    let mut body = good[..good.len() - 8].to_vec();
                    let at = body.len() - 16 - 8 - 1;
                    assert_eq!(body[at], MAP_OFFSET);
                    body[at] = 3;
                    restamp(body)
                },
                SnapshotError::Truncated,
            ),
        ] {
            let s = SharedBasisStore::new(2);
            s.insert(point("w", 0), HashMap::new(), samples(0.0), 2, true);
            let before = s.snapshot_bytes();
            assert_eq!(s.restore_with(&bad, &remap()), Err(want), "{label}");
            assert_eq!(
                s.snapshot_bytes(),
                before,
                "{label}: the store is untouched"
            );
        }
    }

    /// The writer's canonical form is the only one a restore accepts:
    /// each stream below is well formed — and would restore if the
    /// parser were lenient — but re-saves to other bytes, so it fails
    /// `NotCanonical`, naming the rule, and leaves the store untouched.
    #[test]
    fn restore_rejects_every_non_canonical_form() {
        let prints = || HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        let source = Record::new(prints(), samples(1.0), 2, 1, true);
        let recipe = Recipe {
            source_stamp: 1,
            mappings: HashMap::from([("y".to_owned(), Mapping::Offset(0.5))]),
        };
        let moments = ColumnMoments::of(&samples(1.5));
        let out = RecipeOut {
            recipe: &recipe,
            moments: &moments,
            columns: &["y"],
        };
        let image = |stamp: u64| Record::new(HashMap::new(), samples(0.0), 2, stamp, false);
        let xy = |x: i64| ParamPoint::from_pairs([("x", x), ("y", 0)]);
        let src = (xy(1), source, Shape::Samples);
        let define = |x: i64| (xy(x), image(x as u64), Shape::Define(&out));
        let index = |x: i64, i: u32| (xy(x), image(x as u64), Shape::Index(i));

        let good = stream(3, &[src.clone(), define(2), index(3, 0)]);
        assert_eq!(
            record_kinds(&good),
            [KIND_SOURCE, KIND_RECIPE, KIND_RECIPE_INDEX]
        );
        let restored = SharedBasisStore::new(4);
        assert_eq!(restored.restore_with(&good, &remap()), Ok(3));
        assert_eq!(restored.snapshot_bytes(), good, "the canonical form");

        // A point's name indices, `x` then `y`, swapped in the last
        // record: its stamp (8), kind (1) and index (4) follow them.
        let mut swapped = good[..good.len() - SNAPSHOT_FOOTER].to_vec();
        let at = swapped.len() - 4 - 1 - 2 * 12;
        assert_eq!(swapped[at..at + 4], 0u32.to_le_bytes(), "`x`");
        assert_eq!(swapped[at + 12..at + 16], 1u32.to_le_bytes(), "`y`");
        swapped[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        swapped[at + 12..at + 16].copy_from_slice(&0u32.to_le_bytes());
        for (label, bad, rule) in [
            (
                "an unused name",
                stream_named(3, &["w", "x", "y"], &[src.clone(), define(2), index(3, 0)]),
                "a table name no point uses",
            ),
            (
                "swapped name indices",
                restamp(swapped),
                "name indices not ascending",
            ),
            (
                "a recipe defined twice",
                stream(3, &[src.clone(), define(2), define(3)]),
                "a recipe defined twice",
            ),
            (
                "an index before its definition",
                stream(3, &[src.clone(), index(2, 0), define(3)]),
                "a recipe index not yet defined",
            ),
            (
                "an index past the definitions",
                stream(3, &[src.clone(), define(2), index(3, 1)]),
                "a recipe index not yet defined",
            ),
        ] {
            let s = SharedBasisStore::new(4);
            s.insert(point("w", 0), prints(), samples(0.0), 2, true);
            let before = s.snapshot_bytes();
            assert_eq!(
                s.restore_with(&bad, &remap()),
                Err(SnapshotError::NotCanonical(rule)),
                "{label}"
            );
            assert_eq!(s.snapshot_bytes(), before, "{label}: untouched");
        }
    }

    /// A publish files the body it is given: the records of one recipe
    /// that share a body — what the engine's recipe memo hands every hit
    /// of a recipe — hold one, and the same recipe value in a second
    /// allocation — what a memo that overflowed and cleared leaves — is a
    /// second. Either way the recipe is written once and later records
    /// name it; a restore gives all of them one shared body, and its
    /// re-save is the same bytes.
    #[test]
    fn one_recipe_in_two_allocations_is_written_once() {
        let s = SharedBasisStore::new(8);
        let prints = HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        let source = samples(1.0);
        s.insert(point("x", 1), prints, Arc::clone(&source), 2, true);
        let body = || {
            let recipe = Recipe {
                source_stamp: 1,
                mappings: HashMap::from([("y".to_owned(), Mapping::Offset(0.5))]),
            };
            let moments = ColumnMoments::of(&samples(1.5));
            RecipeBody::new(recipe, Arc::clone(&source), remap(), moments)
        };
        let shared = body();
        for (x, body, bodies) in [(2, shared.clone(), 1), (3, shared, 1), (4, body(), 2)] {
            let TryClaim::Owner(guard) = s.try_claim(&point("x", x), 2) else {
                panic!("expected owner");
            };
            assert!(guard.complete_mapped(2, body).1);
            assert_eq!(s.recipe_bodies(), bodies, "after x = {x}");
        }
        let bytes = s.snapshot_bytes();
        assert_eq!(
            record_kinds(&bytes),
            [
                KIND_SOURCE,
                KIND_RECIPE,
                KIND_RECIPE_INDEX,
                KIND_RECIPE_INDEX
            ]
        );
        let parsed = parse_snapshot(&bytes, &Provenance::default()).expect("parses");
        assert_eq!(parsed.recipes.len(), 1);

        let restored = SharedBasisStore::new(8);
        assert_eq!(restored.restore_with(&bytes, &remap()), Ok(4));
        assert_eq!(restored.recipe_bodies(), 1, "one body per recipe");
        assert_eq!(restored.snapshot_bytes(), bytes, "save → load → save");
        for x in [2, 3, 4] {
            let lanes = restored.get_exact(&point("x", x), 2).expect("restored");
            assert_eq!(lanes["y"], vec![1.5, 2.5]);
        }
    }

    /// One 64-lane column `y` of `v, v + 1, …`: wide enough that dropping
    /// it is what makes room.
    fn wide(v: f64) -> Arc<ColumnSamples> {
        let lanes = (0..64).map(|i| v + i as f64).collect();
        Arc::new(HashMap::from([("y".to_owned(), lanes)]))
    }

    /// `Offset(offset)` applied to `source`'s `y`: a mapped entry's bits.
    fn offset_of(source: &ColumnSamples, offset: f64) -> Vec<f64> {
        Mapping::Offset(offset).apply_samples(&source["y"])
    }

    /// Two sources (`x = 1, 2`; stamps 1, 2), then four offset images
    /// published through `complete_mapped`: `x = 3, 4` of source 1 and
    /// `x = 5, 6` of source 2 (stamps 3–6), each a recipe record. Six
    /// entries fit a budget of five samples records, because the images
    /// hold none. Returns the store and source 1's samples.
    fn recipe_store() -> (SharedBasisStore, Arc<ColumnSamples>) {
        let s = SharedBasisStore::new(5);
        let prints = || HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        let sources = [wide(10.0), wide(20.0)];
        for (x, source) in [1, 2].into_iter().zip(&sources) {
            s.insert(point("x", x), prints(), Arc::clone(source), 64, true);
        }
        for x in 3..=6 {
            let stamp = if x <= 4 { 1 } else { 2 };
            let source = &sources[stamp as usize - 1];
            let offset = x as f64 / 2.0;
            let recipe = Recipe {
                source_stamp: stamp,
                mappings: HashMap::from([("y".to_owned(), Mapping::Offset(offset))]),
            };
            let mapped = Arc::new(HashMap::from([("y".to_owned(), offset_of(source, offset))]));
            let TryClaim::Owner(guard) = s.try_claim(&point("x", x), 64) else {
                panic!("expected owner");
            };
            let moments = ColumnMoments::of(&mapped);
            let source = Arc::clone(source);
            let body = RecipeBody::new(recipe, source, remap(), moments);
            assert!(guard.complete_mapped(64, body).1);
        }
        let [first, _] = sources;
        (s, first)
    }

    // The tests below that say "demoted" keep their names from when an
    // over-budget mapped record dropped its samples: a recipe record is
    // what a demoted record was, from birth.

    /// A mapped record holds no samples from birth — the store holds more
    /// entries than its budget has samples records — yet stays an exact
    /// hit; reading it — a claim or an exact lookup — rebuilds the bits it
    /// was published with, each read counted, and nothing is evicted.
    #[test]
    fn over_budget_mapped_records_are_demoted_and_rebuilt_on_read() {
        let (s, first) = recipe_store();
        let stats = s.stats_snapshot();
        assert_eq!((stats.entries, stats.resident, stats.evictions), (6, 2, 0));
        assert_eq!(s.resident_len(), 2, "the two sources");
        let TryClaim::Ready { samples, worlds } = s.try_claim(&point("x", 3), 64) else {
            panic!("a recipe record is an exact hit");
        };
        assert_eq!((samples["y"].clone(), worlds), (offset_of(&first, 1.5), 64));
        let lookup = s.get_exact(&point("x", 4), 64).expect("stored");
        assert_eq!(lookup["y"], offset_of(&first, 2.0));
        let newest = s.get_exact(&point("x", 6), 64).expect("stored");
        assert_eq!(newest["y"], offset_of(&wide(20.0), 3.0));
        assert_eq!(s.stats_snapshot().rematerializations, 3);
        assert_eq!(s.resident_len(), 2, "a read does not keep the samples");
    }

    /// Save → load → save of a store holding recipe records is
    /// byte-identical. A recipe record whose source point was
    /// re-published (a new stamp) travels as the samples it rebuilds from
    /// the source samples it holds; one whose source is still stored
    /// travels as its recipe.
    #[test]
    fn demoted_records_round_trip_and_fall_back_to_samples() {
        let (s, first) = recipe_store();
        let prints = HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        s.insert(point("x", 1), prints, wide(90.0), 64, true);
        let bytes = s.snapshot_bytes();
        assert_eq!(
            record_kinds(&bytes),
            [
                KIND_SOURCE,  // x = 2
                KIND_SAMPLES, // x = 3: source re-published
                KIND_SAMPLES, // x = 4: likewise
                KIND_RECIPE,  // x = 5: source stored
                KIND_RECIPE,  // x = 6: likewise
                KIND_SOURCE,  // x = 1, re-published
            ]
        );
        assert_eq!(s.stats_snapshot().rematerializations, 2, "x = 3, 4");

        // x = 3, 4 arrive as samples records, charged by the budget check
        // no more than the recipe records their writer held: the writer's
        // own capacity restores its save.
        let restored = SharedBasisStore::new(5);
        assert_eq!(restored.restore_with(&bytes, &remap()), Ok(6));
        assert_eq!(restored.snapshot_bytes(), bytes, "save → load → save");
        let stats = restored.stats_snapshot();
        assert_eq!(
            (stats.resident, stats.rematerializations),
            (4, 0),
            "the recipe records x = 5, 6 arrive as recipe records"
        );
        let old = restored.get_exact(&point("x", 3), 64).expect("restored");
        assert_eq!(old["y"], offset_of(&first, 1.5), "the held source's bits");
        let recipe = restored.get_exact(&point("x", 6), 64).expect("restored");
        assert_eq!(recipe["y"], offset_of(&wide(20.0), 3.0), "rebuilt on read");
        assert_eq!(restored.stats_snapshot().rematerializations, 1);

        // Filed as samples records, x = 3, 4 leave the books over budget,
        // so the next publish makes room: they go first, oldest first.
        let prints = HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 4.0]))]);
        restored.insert(point("x", 7), prints, wide(70.0), 64, true);
        assert_eq!(restored.stats_snapshot().evictions, 2);
        assert!(restored.get_exact(&point("x", 3), 64).is_none());
        assert!(restored.get_exact(&point("x", 5), 64).is_some());
    }

    /// A restore rebuilds nothing: every recipe record arrives as one,
    /// with the moments its snapshot carries — the kernel's bits of the
    /// samples the writing store published. A moments read of it rebuilds
    /// nothing either, and a samples read rebuilds the published bits. The
    /// moments are written, one `(mean, std_dev)` pair per source column,
    /// so save → load → save stays byte-identical.
    #[test]
    fn restored_demoted_records_answer_moments_without_a_rebuild() {
        let (s, first) = recipe_store();
        let bytes = s.snapshot_bytes();
        assert_eq!(bytes[4..6], SNAPSHOT_VERSION.to_le_bytes(), "FPBS v5");
        let parsed = parse_snapshot(&bytes, &Provenance::default()).expect("parses");
        let mut written = 0;
        for r in &parsed.records {
            let ParsedBody::Recipe(index) = r.body else {
                continue;
            };
            let moments = &parsed.recipes[index].moments;
            let TryClaim::Ready { samples: warm, .. } = s.try_claim_stored(&r.point, 64) else {
                panic!("{} is stored", r.point);
            };
            let want = warm.moments().and_then(|m| m.get("y")).expect("kept");
            let got = moments.get("y").expect("written");
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits())
            );
            written += 1;
        }
        assert_eq!(written, 4, "x = 3 … 6 travel as recipes");

        let restored = SharedBasisStore::new(5);
        assert_eq!(restored.restore_with(&bytes, &remap()), Ok(6));
        assert_eq!(restored.stats_snapshot().rematerializations, 0);
        {
            let table = restored.table.read();
            for record in table.entries.values() {
                let recipe = record.samples().is_none();
                assert_eq!(recipe, !record.matchable, "stamp {}", record.stamp);
            }
        }
        assert_eq!(restored.resident_len(), 2, "the sources alone");

        let TryClaim::Ready { samples: entry, .. } = restored.try_claim_stored(&point("x", 3), 64)
        else {
            panic!("a recipe record is an exact hit");
        };
        assert!(entry.resident().is_none(), "x = 3 is a recipe record");
        let lanes = offset_of(&first, 1.5);
        let (mean, sd) = entry.moments().and_then(|m| m.get("y")).expect("restored");
        let want = crate::aggregate::SampleStats::of(&lanes);
        assert_eq!(
            (mean.to_bits(), sd.to_bits()),
            (want.mean.to_bits(), want.std_dev.to_bits())
        );
        assert_eq!(restored.stats_snapshot().rematerializations, 0);

        assert_eq!(entry.materialize(&point("x", 3))["y"], lanes);
        assert_eq!(
            restored.stats_snapshot().rematerializations,
            1,
            "a samples read"
        );
        assert_eq!(restored.snapshot_bytes(), bytes, "save → load → save");
    }

    /// A store restores only snapshots drawn in its own world: each
    /// provenance field that differs fails the restore, named, before the
    /// store is touched, and a store with no provenance of its own expects
    /// the zero one.
    #[test]
    fn restore_rejects_a_snapshot_of_another_world() {
        let registry = prophet_vg::VgRegistry::new();
        let world = Provenance::new("SELECT 1", 1, &[7, 8], &registry);
        let src = churn_store().with_provenance(world.clone());
        let bytes = src.snapshot_bytes();
        assert_eq!(
            SharedBasisStore::new(4)
                .with_provenance(world.clone())
                .restore_bytes(&bytes),
            Ok(4)
        );
        let tagged = Provenance {
            registry: vec![("DemandModel".to_owned(), 1)],
            ..world.clone()
        };
        for (field, other) in [
            ("script", Provenance::new("SELECT 2", 1, &[7, 8], &registry)),
            (
                "root_seed",
                Provenance::new("SELECT 1", 7, &[7, 8], &registry),
            ),
            (
                "probe_seeds",
                Provenance::new("SELECT 1", 1, &[7], &registry),
            ),
            ("registry", tagged),
            ("script", Provenance::default()),
        ] {
            let s = SharedBasisStore::new(4).with_provenance(other);
            s.insert(point("w", 0), HashMap::new(), samples(0.0), 2, true);
            let before = s.snapshot_bytes();
            assert_eq!(
                s.restore_bytes(&bytes),
                Err(SnapshotError::WrongWorld { field }),
                "{field}"
            );
            assert_eq!(s.snapshot_bytes(), before, "{field}: untouched");
        }
    }

    /// A writer that fails after `left` more bytes: a full disk.
    struct FailAfter<'a> {
        file: &'a mut std::fs::File,
        left: usize,
    }

    impl std::io::Write for FailAfter<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::other("no space left on device"));
            }
            let n = self.file.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    /// A save that fails part-way — for a seeded sample of cut points —
    /// leaves the previous snapshot in place, bit for bit and loadable,
    /// and no temporary file behind; a save that completes replaces it.
    #[test]
    fn a_failed_save_leaves_the_previous_snapshot() {
        use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
        let dir = std::env::temp_dir();
        let name = format!("fpbs_atomic_{}.fpbs", std::process::id());
        let path = dir.join(&name);
        assert_eq!(churn_store().save_to(&path), Ok(4));
        let before = std::fs::read(&path).unwrap();
        let next = mapped_store().snapshot_bytes();
        let strays = || {
            let entries = std::fs::read_dir(&dir).unwrap().flatten();
            (entries.map(|e| e.file_name().to_string_lossy().into_owned()))
                .filter(|n| n.starts_with(&format!(".{name}.")))
                .count()
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5A7E);
        for _ in 0..24 {
            let left = (rng.next_u64() % next.len() as u64) as usize;
            let failed = replace_file(&path, |file| FailAfter { file, left }.write_all(&next));
            assert!(failed.is_err(), "cut at {left}");
            assert_eq!(std::fs::read(&path).unwrap(), before, "cut at {left}");
            assert_eq!(strays(), 0, "cut at {left}");
        }
        let loaded = SharedBasisStore::new(4);
        assert_eq!(loaded.restore_bytes(&std::fs::read(&path).unwrap()), Ok(4));
        assert_eq!(mapped_store().save_to(&path), Ok(2));
        assert_eq!(std::fs::read(&path).unwrap(), next);
        let _ = std::fs::remove_file(&path);
    }

    /// `restore_bytes` has no engine to rebuild a recipe with: it fails
    /// typed, before touching the store.
    #[test]
    fn restore_bytes_refuses_recipe_records() {
        let bytes = mapped_store().snapshot_bytes();
        let s = churn_store();
        let before = s.snapshot_bytes();
        assert_eq!(
            s.restore_bytes(&bytes),
            Err(SnapshotError::RecipeNeedsEngine)
        );
        assert_eq!(s.snapshot_bytes(), before, "the store is untouched");
        assert_eq!(s.len(), 4);
    }

    /// Append a valid checksum to a snapshot body, so damage inside it
    /// reaches the structural parser.
    fn restamp(mut body: Vec<u8>) -> Vec<u8> {
        let sum = snapshot_checksum(&body);
        put_u64(&mut body, sum);
        body
    }

    /// Forged lengths behind a valid checksum: a fingerprint that claims
    /// `u32::MAX` values and a record whose `worlds` and sample length
    /// are 2⁶¹ (so `len × 8` overflows) fail as `Truncated` — each column
    /// is bounds-checked as one slice before anything is allocated, so
    /// neither reserves the claimed size. A reader that reserved `len`
    /// values first would panic on capacity overflow for the second
    /// record and ask the allocator for 32 GiB for the first.
    #[test]
    fn restore_rejects_hostile_column_lengths() {
        let good = forge(1, &[(point("x", 1), 1)]);
        let body = &good[..good.len() - SNAPSHOT_FOOTER];
        // After the header (54, its provenance the zero one) and its name
        // table ("x", 5), the stamp (8), the point (4 + 4 + 8 = 16) and
        // the kind (1) sits `worlds` at 84; it (8), the fingerprint count
        // (4) and name "y" (5) put the fingerprint length at 101; its
        // three values (24), the column count (4) and name "y" (5) put
        // the sample length at 138.
        let (fp_len, worlds, lanes) = (101, 84, 138);
        assert_eq!(body[fp_len..fp_len + 4], 3u32.to_le_bytes());
        assert_eq!(body[worlds..worlds + 8], 2u64.to_le_bytes());
        assert_eq!(body[lanes..lanes + 8], 2u64.to_le_bytes());

        let mut huge_fp = body.to_vec();
        huge_fp[fp_len..fp_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut huge_column = body.to_vec();
        for at in [worlds, lanes] {
            huge_column[at..at + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
        }
        let s = SharedBasisStore::new(1);
        for (label, bad) in [("fingerprint", huge_fp), ("sample column", huge_column)] {
            assert_eq!(
                s.restore_bytes(&restamp(bad)),
                Err(SnapshotError::Truncated),
                "{label}"
            );
        }
        assert!(s.is_empty());
    }

    /// A record above both of the old per-column allocation caps (4,096
    /// fingerprint values, 65,536 lanes) round-trips byte for byte.
    #[test]
    fn wide_record_round_trips() {
        let lanes: Vec<f64> = (0..70_000).map(|i| i as f64 * 0.25 - 1e3).collect();
        let src = SharedBasisStore::new(1);
        src.insert(
            point("x", 1),
            HashMap::from([("y".to_owned(), fp(&lanes[..5_000]))]),
            Arc::new(HashMap::from([("y".to_owned(), lanes.clone())])),
            lanes.len(),
            true,
        );
        let bytes = src.snapshot_bytes();
        let dst = SharedBasisStore::new(1);
        assert_eq!(dst.restore_bytes(&bytes), Ok(1));
        assert_eq!(dst.snapshot_bytes(), bytes);
        let restored = dst
            .get_exact(&point("x", 1), lanes.len())
            .expect("restored");
        assert_eq!(restored["y"], lanes);
    }

    #[test]
    fn restore_rejects_colliding_stamps_points_and_names() {
        // The writer's shape: distinct points, ascending stamps, the last
        // one equal to the stamp counter. It restores, re-saves byte for
        // byte, and ten later inserts evict both records.
        let xs = |records: &[(i64, u64)]| -> Vec<(ParamPoint, u64)> {
            records.iter().map(|&(x, s)| (point("x", x), s)).collect()
        };
        let good = forge(2, &xs(&[(1, 1), (2, 2)]));
        let s = SharedBasisStore::new(2);
        assert_eq!(s.restore_bytes(&good), Ok(2));
        assert_eq!(s.snapshot_bytes(), good);
        for i in 0..10 {
            s.insert(point("z", i), HashMap::new(), samples(0.0), 2, true);
        }
        assert_eq!(s.len(), 2);
        assert!(s.get_exact(&point("x", 1), 2).is_none());
        assert!(s.get_exact(&point("x", 2), 2).is_none());

        for (label, bad) in [
            ("repeated stamp", forge(2, &xs(&[(1, 1), (2, 1)]))),
            ("descending stamps", forge(2, &xs(&[(2, 2), (1, 1)]))),
            (
                "counter below every stamp",
                forge(0, &xs(&[(1, 1), (2, 2)])),
            ),
            (
                "counter below the last stamp",
                forge(1, &xs(&[(1, 1), (2, 2)])),
            ),
            ("repeated point", forge(2, &xs(&[(1, 1), (1, 2)]))),
        ] {
            let fresh = SharedBasisStore::new(3);
            fresh.insert(point("w", 0), HashMap::new(), samples(0.0), 2, true);
            assert_eq!(
                fresh.restore_bytes(&bad),
                Err(SnapshotError::Truncated),
                "{label}"
            );
            assert_eq!(fresh.len(), 1, "{label}: the store is untouched");
        }

        // The name table arrives sorted and unique. Swap or repeat the
        // one-byte names of `{a, b}`: after the header (54) and a length
        // (4) sits `a` at 58; `b`'s length (4) puts `b` at 63.
        let ab = forge(1, &[(ParamPoint::from_pairs([("a", 1i64), ("b", 2)]), 1)]);
        assert_eq!(SharedBasisStore::new(1).restore_bytes(&ab), Ok(1));
        for (label, names) in [
            ("unsorted names", (b'b', b'a')),
            ("repeated name", (b'a', b'a')),
        ] {
            let mut body = ab[..ab.len() - 8].to_vec();
            assert_eq!((body[58], body[63]), (b'a', b'b'));
            (body[58], body[63]) = names;
            assert_eq!(
                SharedBasisStore::new(1).restore_bytes(&restamp(body)),
                Err(SnapshotError::Truncated),
                "{label}"
            );
        }
    }

    #[test]
    fn restore_cancels_inflight_and_resets_counters() {
        let s = SharedBasisStore::new(4);
        s.insert(
            point("x", 1),
            HashMap::from([("y".to_owned(), fp(&[1.0, 2.0, 3.0, 4.0]))]),
            samples(1.0),
            2,
            true,
        );
        let probes = HashMap::from([("y".to_owned(), fp(&[2.0, 3.0, 4.0, 5.0]))]);
        let _ = find_one(&s, &probes);
        assert_eq!(s.stats_snapshot().hits, 1);
        let bytes = s.snapshot_bytes();
        let TryClaim::Owner(guard) = s.try_claim(&point("x", 9), 1) else {
            panic!("expected owner");
        };
        let TryClaim::Pending(handle) = s.try_claim(&point("x", 9), 1) else {
            panic!("expected pending");
        };
        assert_eq!(s.restore_bytes(&bytes), Ok(1));
        assert!(handle.wait().is_none(), "restore wakes waiters to re-claim");
        assert!(
            !guard.complete(HashMap::new(), samples(0.0), 1, true),
            "stale completion after restore is discarded"
        );
        let snap = s.stats_snapshot();
        assert_eq!((snap.hits, snap.misses, snap.evictions), (0, 0, 0));
        assert_eq!(snap.entries, 1);
    }

    #[test]
    fn claims_and_evictions_are_traced() {
        use crate::trace::TraceConfig;
        let tracer = Tracer::new(TraceConfig::Ring { capacity: 64 });
        let s = SharedBasisStore::new(1).with_tracer(tracer.clone());
        let TryClaim::Owner(guard) = s.try_claim(&point("x", 1), 1) else {
            panic!("expected owner");
        };
        assert!(guard.complete(HashMap::new(), samples(1.0), 1, true));
        s.insert(point("x", 2), HashMap::new(), samples(2.0), 1, true); // evicts x1
        let count =
            |kind: TraceEventKind| tracer.events().iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(TraceEventKind::StoreClaim), 1);
        assert_eq!(count(TraceEventKind::StorePublish), 1);
        assert_eq!(
            count(TraceEventKind::StoreEvict),
            1,
            "only the second insert evicts"
        );
    }
}
