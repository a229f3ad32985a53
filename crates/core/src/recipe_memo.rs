//! The engine's recipe memo.
//!
//! A fingerprint hit is answered by moments: the mapped samples are a
//! recipe — a source record's samples through per-column mappings, with
//! the derived columns recomputed — and a sweep reads only their
//! `(mean, std_dev)`. Across Figure 2's 31,005 hits there are 832
//! distinct recipes, so each [`Engine`](crate::engine::Engine)
//! remembers, per recipe, the [`RecipeBody`] its remap built — the
//! recipe, its source samples, the engine's remap and the moments — and
//! a hit whose recipe it has seen builds no samples at all. The entry
//! *is* what the store files: every mapped record of a recipe the memo
//! holds shares its one body, so a store holds one body per recipe
//! (`SharedBasisStore::recipe_bodies`), as a restored one does.
//!
//! # The key
//!
//! A recipe's samples depend on the hit's source samples, its world
//! count, each stochastic column's [`Mapping`] and — through the derived
//! items — the point's values of the parameters those items mention, and
//! on nothing else (`tests/determinism.rs` states the metamorphic axis: a
//! column moves with a parameter only if it mentions it). The key is
//! exactly that: the address of the source's sample allocation, the
//! worlds, every mapping's bits in the engine's stochastic-column order,
//! and those parameter values. An entry holds the source's `Arc` — also
//! when its remap failed, since that error is memoised under the
//! address — so the address it is keyed by cannot be reused while it
//! lives; a record re-published at the source point is a new allocation
//! and a new key. One allocation is filed under one store stamp, so the
//! body's [`Recipe`] names the source every hit of the key names.
//!
//! # Cleared with the store
//!
//! `Engine::clear_basis` and a successful `Engine::restore_basis` clear
//! the memo, so its entries do not keep the sources of a store that is
//! gone alive. Soundness does not rest on that clear: stamps restart
//! after a clear, but the key is the allocation, which the entry pins,
//! and no post-clear source is that allocation. So an entry a pre-clear
//! hit files after the clear is never served to a post-clear hit, and
//! the pre-clear hit's own publish is discarded (its claim was
//! cancelled).
//!
//! # One remap per recipe
//!
//! Two workers that miss one recipe at once do not both remap: the first
//! computes it and the second waits for its result, so `remaps` counts the
//! distinct recipes a run met (while the memo has room) at every worker
//! count. A remap's error is a function of the same inputs and is
//! memoised with them.
//!
//! # A bounded table
//!
//! Like the probe memo, the table is bounded by `MAX_ENTRIES` recipes,
//! and a new recipe arriving at a full table clears it. A clear is
//! deterministic and can only cost remaps — and bodies: every moment a
//! cleared entry held is computed again, bit for bit, on its next
//! sighting, into a new body that the recipe's later records share.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use prophet_fingerprint::Mapping;
use prophet_mc::{BasisHit, ColumnSamples, ParamPoint, RecipeBody};
use prophet_vg::FastBuild;

use crate::error::ProphetResult;
use crate::sync::{OrderedMutex, RECIPE_MEMO};

/// Most recipes remembered per engine between two clears of its store.
/// Figure 2 has 832. An entry is ≈ 200 bytes besides its body, which is
/// the one the store's records of the recipe share (≈ 375 bytes), so it
/// costs nothing more while one of them is stored. Past what the store
/// holds, an entry keeps its body and its source's samples alive: at
/// most one samples record (≈ 10 KB at 400 worlds) per entry, and in
/// practice a handful of sources serve every recipe.
const MAX_ENTRIES: usize = 4_096;

/// What a hit's moments are a function of (see the [module docs](self)).
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct RecipeKey {
    /// The address of the source's sample allocation.
    source: usize,
    worlds: usize,
    /// Per stochastic column, in the engine's order: the mapping's
    /// variant tag and its `f64` bits (`MISSING` where the hit has none).
    mappings: Vec<u64>,
    /// The point's values of the parameters the derived items mention.
    params: Vec<Option<i64>>,
}

/// Tag of a stochastic column the hit carries no mapping for: its remap
/// fails, and the failure is memoised like any result.
const MISSING: u64 = 3;

impl RecipeKey {
    /// The key of `hit` at `point`, whose stochastic columns are
    /// `stochastic` and whose derived items mention `derived_params`.
    pub(crate) fn new(
        hit: &BasisHit,
        stochastic: &[String],
        derived_params: &[String],
        point: &ParamPoint,
    ) -> Self {
        let mut mappings = Vec::with_capacity(2 * stochastic.len());
        for column in stochastic {
            match hit.mappings.get(column) {
                Some(Mapping::Identity) => mappings.push(0),
                Some(Mapping::Offset(offset)) => mappings.extend([1, offset.to_bits()]),
                Some(Mapping::Affine {
                    scale,
                    offset,
                    residual_std,
                }) => {
                    mappings.extend([2, scale.to_bits(), offset.to_bits(), residual_std.to_bits()])
                }
                None => mappings.push(MISSING),
            }
        }
        RecipeKey {
            source: Arc::as_ptr(&hit.samples) as usize,
            worlds: hit.worlds,
            mappings,
            params: derived_params.iter().map(|p| point.get(p)).collect(),
        }
    }
}

/// One recipe: its source, held so the key's address stays its own even
/// when the remap fails, and its body once the first remap of it
/// finished.
struct Entry {
    _source: Arc<ColumnSamples>,
    body: OnceLock<ProphetResult<RecipeBody>>,
}

/// Bounded `recipe → body` table behind a leaf lock. Overflow clears the
/// table: deterministic, and it can only cost remaps.
pub(crate) struct RecipeMemo {
    table: OrderedMutex<HashMap<RecipeKey, Arc<Entry>, FastBuild>>,
    max_entries: usize,
}

impl RecipeMemo {
    /// An empty memo (allocates nothing until the first insert).
    pub(crate) fn new() -> Self {
        RecipeMemo::with_bound(MAX_ENTRIES)
    }

    /// An empty memo that overflows at `max_entries` — tests overflow it
    /// without a thousand recipes.
    pub(crate) fn with_bound(max_entries: usize) -> Self {
        RecipeMemo {
            table: OrderedMutex::new(RECIPE_MEMO, HashMap::default()),
            max_entries,
        }
    }

    /// The body of `key`'s recipe, whose source is `source`: the memoised
    /// one, or `remap`'s, run on this thread when no other call has run it
    /// for this entry (a concurrent caller waits for that run instead).
    /// The flag says whether this call ran `remap`. The table lock is not
    /// held while `remap` runs.
    pub(crate) fn body(
        &self,
        key: RecipeKey,
        source: &Arc<ColumnSamples>,
        remap: impl FnOnce() -> ProphetResult<RecipeBody>,
    ) -> (ProphetResult<RecipeBody>, bool) {
        let entry = {
            let mut table = self.table.lock();
            if let Some(body) = table.get(&key).and_then(|entry| entry.body.get()) {
                return (body.clone(), false);
            }
            if table.len() >= self.max_entries && !table.contains_key(&key) {
                table.clear();
            }
            let entry = table.entry(key).or_insert_with(|| {
                Arc::new(Entry {
                    _source: Arc::clone(source),
                    body: OnceLock::new(),
                })
            });
            Arc::clone(entry)
        };
        let mut ran = false;
        let body = entry.body.get_or_init(|| {
            ran = true;
            remap()
        });
        (body.clone(), ran)
    }

    /// Forget every recipe: the store they were filed in is gone.
    pub(crate) fn clear(&self) {
        self.table.lock().clear();
    }

    /// Recipes remembered.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.table.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_mc::{ColumnMoments, Rebuild, Recipe};

    fn hit(source: &Arc<ColumnSamples>, offset: f64) -> BasisHit {
        BasisHit {
            source: ParamPoint::from_pairs([("x", 0)]),
            source_stamp: 1,
            mappings: HashMap::from([("y".to_owned(), Mapping::Offset(offset))]),
            samples: Arc::clone(source),
            worlds: 2,
        }
    }

    /// A remap no memo test runs.
    struct Unused;

    impl Rebuild for Unused {
        fn rebuild(
            &self,
            _: &ParamPoint,
            _: &ColumnSamples,
            _: &HashMap<String, Mapping>,
            _: usize,
        ) -> Result<Arc<ColumnSamples>, String> {
            unreachable!()
        }

        fn check_recipe(
            &self,
            _: &ColumnSamples,
            _: &HashMap<String, Mapping>,
            _: usize,
        ) -> Result<(), String> {
            unreachable!()
        }

        fn check_point(&self, _: &ParamPoint) -> Result<(), String> {
            unreachable!()
        }
    }

    /// A body of `source` whose `y` moments are those of `[v, v + 1]`.
    fn body(source: &Arc<ColumnSamples>, v: f64) -> ProphetResult<RecipeBody> {
        let recipe = Recipe {
            source_stamp: 1,
            mappings: HashMap::new(),
        };
        let moments = ColumnMoments::of(&HashMap::from([("y".to_owned(), vec![v, v + 1.0])]));
        Ok(RecipeBody::new(
            recipe,
            Arc::clone(source),
            Arc::new(Unused),
            moments,
        ))
    }

    #[test]
    fn a_recipe_remaps_once_and_overflow_clears() {
        let memo = RecipeMemo::with_bound(2);
        let source = Arc::new(HashMap::from([("y".to_owned(), vec![0.0, 1.0])]));
        let stochastic = ["y".to_owned()];
        let key = |offset, x| {
            let point = ParamPoint::from_pairs([("p", x)]);
            RecipeKey::new(
                &hit(&source, offset),
                &stochastic,
                &["p".to_owned()],
                &point,
            )
        };
        let (first, ran) = memo.body(key(1.0, 0), &source, || body(&source, 1.0));
        assert!(ran);
        let (again, ran) = memo.body(key(1.0, 0), &source, || unreachable!());
        assert!(!ran, "a seen recipe is memoised");
        let moments = |b: ProphetResult<RecipeBody>| b.unwrap().moments() as *const _;
        assert_eq!(moments(first), moments(again), "one body");
        // A derived parameter's value is part of the recipe.
        assert!(memo.body(key(1.0, 1), &source, || body(&source, 2.0)).1);
        assert_eq!(memo.len(), 2);
        // Re-reading a present key at the bound is not an overflow…
        assert!(!memo.body(key(1.0, 1), &source, || unreachable!()).1);
        // …a new one is: the old table goes.
        assert!(memo.body(key(2.0, 0), &source, || body(&source, 2.0)).1);
        assert_eq!(memo.len(), 1);
        assert!(memo.body(key(1.0, 0), &source, || body(&source, 1.0)).1);
        // A clear forgets every recipe.
        memo.clear();
        assert_eq!(memo.len(), 0);
        assert!(memo.body(key(1.0, 0), &source, || body(&source, 1.0)).1);
    }

    #[test]
    fn keys_follow_the_stochastic_column_order_and_the_source_allocation() {
        let source = Arc::new(HashMap::from([
            ("a".to_owned(), vec![0.0]),
            ("b".to_owned(), vec![0.0]),
        ]));
        let copy = Arc::new((*source).clone());
        let (ab, ba) = (
            ["a".to_owned(), "b".to_owned()],
            ["b".to_owned(), "a".to_owned()],
        );
        let key = |samples: &Arc<ColumnSamples>, order: &[String]| {
            let hit = BasisHit {
                mappings: HashMap::from([
                    ("a".to_owned(), Mapping::Identity),
                    ("b".to_owned(), Mapping::Offset(0.0)),
                ]),
                ..hit(samples, 0.0)
            };
            RecipeKey::new(&hit, order, &[], &ParamPoint::new())
        };
        assert_eq!(key(&source, &ab), key(&source, &ab));
        assert_ne!(
            key(&source, &ab),
            key(&source, &ba),
            "stochastic-column order"
        );
        assert_ne!(key(&source, &ab), key(&copy, &ab), "another allocation");
    }
}
