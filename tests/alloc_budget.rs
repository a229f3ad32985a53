//! The allocation budget of a sweep point, pinned.
//!
//! A counting `#[global_allocator]` (std only) counts allocations, bytes
//! requested and live bytes, but only while [`count`] runs one job — the
//! service is built and torn down uncounted. Allocation counts are nearly
//! deterministic (the pool's chunking and a few scheduler buffers move
//! them by well under 1 %), so a budget per point is a row a change moves
//! on purpose, like the work counters in `tests/match_index.rs`.
//!
//! * [`coarse_figure2_sweep_stays_in_its_allocation_budget`]: a cold and
//!   then a warm coarse Figure-2 sweep (3,969 points) at 1 and 2 pool
//!   threads, each under an upper bound on allocations and bytes
//!   requested per point.
//! * [`a_record_keeps_what_it_is_charged`]: the live bytes one store
//!   entry keeps, by record kind (a simulated source, a recipe record),
//!   stated beside what the store charges it against its byte budget.
//!
//! The tests of this file share one counter, so they take [`SERIAL`].
//!
//! With `--features check` every claim also walks the claim ledger: a
//! warm sweep there requests ≈ 530 B more per point in as many
//! allocations, so that lane's byte bounds carry [`CHECK_LEDGER_BYTES`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fuzzy_prophet::prelude::*;
use prophet_fingerprint::{Fingerprint, Mapping};
use prophet_mc::{
    ColumnMoments, ColumnSamples, Rebuild, Recipe, RecipeBody, SharedBasisStore, TryClaim,
};
use prophet_models::demo_registry;
use prophet_models::scenarios::figure2_coarse_sql;

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters are
// relaxed atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    /// A growth is one more allocation of the new size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One counter, so one counted test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// What the allocator saw while one closure ran.
#[derive(Debug, Clone, Copy)]
struct Tally {
    allocs: u64,
    requested: u64,
    /// Bytes allocated and not freed (frees of blocks older than the
    /// window count against it, so read it over work that keeps what it
    /// makes).
    live: i64,
}

/// Run `f` with the counter on; every thread's allocations count.
fn count<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    ALLOCS.store(0, Ordering::SeqCst);
    REQUESTED.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    let tally = Tally {
        allocs: ALLOCS.load(Ordering::SeqCst),
        requested: REQUESTED.load(Ordering::SeqCst),
        live: LIVE.load(Ordering::SeqCst),
    };
    (out, tally)
}

/// What the claim ledger of `--features check` adds to a sweep's bytes
/// requested per point, on top of the default bounds.
#[cfg(feature = "check")]
const CHECK_LEDGER_BYTES: f64 = 700.0;
#[cfg(not(feature = "check"))]
const CHECK_LEDGER_BYTES: f64 = 0.0;

/// Upper bounds per point: allocations, bytes requested.
struct Budget {
    allocs: f64,
    bytes: f64,
}

impl Budget {
    fn check(&self, label: &str, tally: Tally, points: u64) {
        let allocs = tally.allocs as f64 / points as f64;
        let bytes = tally.requested as f64 / points as f64;
        println!("{label}: {allocs:.2} allocations, {bytes:.0} B requested per point");
        let bytes_bound = self.bytes + CHECK_LEDGER_BYTES;
        assert!(
            allocs <= self.allocs,
            "{label}: {allocs:.2} allocations per point, budget {}",
            self.allocs
        );
        assert!(
            bytes <= bytes_bound,
            "{label}: {bytes:.0} B requested per point, budget {bytes_bound}"
        );
    }
}

/// A cold coarse Figure-2 sweep, then the same sweep warm on the same
/// service (every point cached), at 1 and 2 pool threads. Measured:
/// 15.3 allocations / 3,860 B requested per point cold, 2.71 / 684 B
/// warm, in debug and release builds alike.
#[test]
fn coarse_figure2_sweep_stays_in_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const WORLDS: usize = 8;
    let cold = Budget {
        allocs: 16.5,
        bytes: 4_200.0,
    };
    let warm = Budget {
        allocs: 3.0,
        bytes: 750.0,
    };
    for threads in [1, 2] {
        let prophet = Prophet::builder()
            .scenario_sql("sweep", &figure2_coarse_sql(0.05))
            .unwrap()
            .registry(demo_registry())
            .config(EngineConfig {
                worlds_per_point: WORLDS,
                threads,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        let sweep = || {
            count(|| {
                prophet
                    .submit(JobSpec::sweep("sweep"))
                    .unwrap()
                    .wait()
                    .unwrap()
                    .into_sweep()
                    .unwrap()
            })
        };
        let (report, tally) = sweep();
        let points = report.metrics.points_total();
        assert_eq!(
            (
                points,
                report.metrics.points_simulated,
                report.metrics.points_mapped
            ),
            (3_969, 57, 3_912),
            "the cold sweep's work"
        );
        cold.check(&format!("cold, {threads} thread(s)"), tally, points);

        let (report, tally) = sweep();
        assert_eq!(report.metrics.points_cached, 3_969, "the warm sweep's work");
        warm.check(&format!("warm, {threads} thread(s)"), tally, points);
    }
}

/// What [`a_record_keeps_what_it_is_charged`] files: a 4-parameter point
/// (the names shared, as a sweep's points share them), 3 columns of
/// `WORLDS` lanes, 2 of them stochastic with 32-value fingerprints.
const WORLDS: usize = 400;
const COLUMNS: [&str; 3] = ["demand", "capacity", "overload"];
const STOCHASTIC: [&str; 2] = ["demand", "capacity"];
/// `RECORD_OVERHEAD` in `crates/mc/src/store.rs`: the fixed part of
/// `Record::charge`, besides 8 B per sample lane, fingerprint value and
/// moment, and 128 B (`MAPPING_BYTES`) per mapping.
const RECORD_OVERHEAD: i64 = 770;
const MAPPING_BYTES: i64 = 128;

struct NoRebuild;

impl Rebuild for NoRebuild {
    fn rebuild(
        &self,
        _: &ParamPoint,
        source: &ColumnSamples,
        _: &HashMap<String, Mapping>,
        _: usize,
    ) -> Result<Arc<ColumnSamples>, String> {
        Ok(Arc::new(source.clone()))
    }

    fn check_recipe(
        &self,
        _: &ColumnSamples,
        _: &HashMap<String, Mapping>,
        _: usize,
    ) -> Result<(), String> {
        Ok(())
    }

    fn check_point(&self, _: &ParamPoint) -> Result<(), String> {
        Ok(())
    }
}

/// The live bytes of one stored entry by record kind, each the average
/// over `N` entries filed into a store one claim at a time: a simulated
/// source (its samples, fingerprints and summaries) and a recipe record
/// (its point and table slot; the body is shared by every record of its
/// recipe, and counted once, outside the window). Each is stated against
/// `Record::charge`, which a tight store evicts by. Measured: a source
/// keeps 11,480 B and is charged 10,882 B; a recipe record keeps 310 B
/// and is charged 1,074 B. The fixed overhead was measured as
/// resident-set growth when each record held its own body, so a tight
/// store evicts mapped entries long before their bytes require it.
#[test]
fn a_record_keeps_what_it_is_charged() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: usize = 2_000;
    let store = SharedBasisStore::new(usize::MAX / 2);
    let base = ParamPoint::from_pairs([("current", 0), ("feature", 12), ("purchase1", 0)])
        .with("purchase2", 0);
    let point = |i: usize| base.with("current", i as i64);
    let samples = || -> ColumnSamples {
        (COLUMNS.iter())
            .map(|c| (c.to_string(), vec![1.5; WORLDS]))
            .collect()
    };
    let claim = |p: &ParamPoint| match store.try_claim(p, WORLDS) {
        TryClaim::Owner(guard) => guard,
        _ => panic!("{p} is not new"),
    };

    let (_, sources) = count(|| {
        for i in 0..N {
            let prints = (STOCHASTIC.iter())
                .map(|c| (c.to_string(), Fingerprint::from_values(vec![i as f64; 32])))
                .collect();
            claim(&point(i)).complete(prints, Arc::new(samples()), WORLDS, true);
        }
    });

    let columns: Arc<[String]> = COLUMNS.iter().map(|c| c.to_string()).collect();
    let source = Arc::new(samples());
    let mappings: HashMap<String, Mapping> = (STOCHASTIC.iter())
        .map(|c| (c.to_string(), Mapping::Identity))
        .collect();
    let body = RecipeBody::new(
        Recipe {
            source_stamp: 1,
            mappings,
        },
        Arc::clone(&source),
        Arc::new(NoRebuild),
        ColumnMoments::named(&columns, &source),
    );
    let (_, recipes) = count(|| {
        for i in N..2 * N {
            claim(&point(i)).complete_mapped(WORLDS, body.clone());
        }
    });
    assert_eq!(store.len(), 2 * N);

    let per = |t: Tally| t.live / N as i64;
    let (source_live, recipe_live) = (per(sources), per(recipes));
    let lanes = (COLUMNS.len() * WORLDS + STOCHASTIC.len() * 32) as i64;
    let source_charge = RECORD_OVERHEAD + 8 * lanes;
    let recipe_charge =
        RECORD_OVERHEAD + 2 * 8 * COLUMNS.len() as i64 + MAPPING_BYTES * STOCHASTIC.len() as i64;
    println!(
        "live bytes per entry: source {source_live} (charged {source_charge}), \
         recipe record {recipe_live} (charged {recipe_charge})"
    );
    // A source keeps its lanes and a few hundred bytes besides; the
    // charge is within 10 % of it.
    assert!(
        (source_live - source_charge).abs() * 10 <= source_charge,
        "a source keeps {source_live} B and is charged {source_charge} B"
    );
    // A recipe record keeps its point, slot and stamp, well under half
    // its charge: the gap that item 19(a) of the roadmap closes.
    assert!(
        (100..=recipe_charge / 2).contains(&recipe_live),
        "a recipe record keeps {recipe_live} B and is charged {recipe_charge} B"
    );
}
