//! Parameter points: concrete valuations of scenario parameters.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use prophet_data::Value;
use prophet_sql::columnar::Params;

/// A concrete valuation of every scenario parameter — one coordinate of the
/// parameter space. Paired with a world id, it identifies an *instance*
/// (a possible world) in the paper's terminology.
///
/// Entries are kept sorted by parameter name so that equal points have equal
/// representations: `ParamPoint` is used as a cache key by the fingerprint
/// basis store and must hash deterministically.
///
/// A point is a value: the evaluation pipeline clones it a dozen-odd
/// times on its way from the sweep plan through claim, scan, store and
/// reply, so its entries live in one shared allocation and a clone is one
/// refcount bump on it. Editing a point its clones share ([`set`],
/// [`with`]) rebuilds the entries in one new allocation and leaves the
/// clones as they were (copy-on-write); an unshared point overwrites a
/// value in place. Every point of a scenario carries the same few names,
/// and a rebuild shares them rather than copying them. `Arc<str>` hashes,
/// compares and orders exactly as the `String` it replaces, and the
/// shared slice exactly as the `Vec` it replaces.
///
/// [`set`]: ParamPoint::set
/// [`with`]: ParamPoint::with
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamPoint {
    entries: Arc<[(Arc<str>, i64)]>,
}

impl Default for ParamPoint {
    fn default() -> Self {
        ParamPoint {
            entries: Arc::from(Vec::new()),
        }
    }
}

impl ParamPoint {
    /// Empty point (scenario with no parameters).
    pub fn new() -> Self {
        ParamPoint::default()
    }

    /// Build from `(name, value)` pairs; later duplicates overwrite earlier.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, i64)>,
        S: Into<String>,
    {
        let mut entries: Vec<(Arc<str>, i64)> = Vec::new();
        for (name, value) in pairs {
            let name: String = name.into();
            match entries.binary_search_by(|(n, _)| (**n).cmp(&name)) {
                Ok(i) => entries[i].1 = value,
                Err(i) => entries.insert(i, (Arc::from(name), value)),
            }
        }
        ParamPoint {
            entries: Arc::from(entries),
        }
    }

    /// The point of `entries`, which are sorted by name and distinct: one
    /// allocation, sharing each name.
    pub(crate) fn from_sorted(entries: &[(Arc<str>, i64)]) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        ParamPoint {
            entries: Arc::from(entries),
        }
    }

    /// Whether `other` carries the very name allocations `self` does: the
    /// points of one scenario mostly share them, which lets a snapshot
    /// writer look up, and a restore check, a run of points' names once.
    pub(crate) fn shares_names(&self, other: &ParamPoint) -> bool {
        let (a, b) = (&self.entries, &other.entries);
        Arc::ptr_eq(a, b)
            || (a.len() == b.len()
                && (a.iter().zip(b.iter())).all(|(x, y)| Arc::ptr_eq(&x.0, &y.0)))
    }

    /// Set (or overwrite) one parameter. Overwriting keeps every name the
    /// point shares with its clones; it edits in place when no clone
    /// shares the entries, and otherwise rebuilds them in one allocation,
    /// leaving the clones unchanged.
    pub fn set(&mut self, name: impl AsRef<str>, value: i64) {
        let name = name.as_ref();
        match self.entries.binary_search_by(|(n, _)| (**n).cmp(name)) {
            Ok(i) if self.entries[i].1 == value => {}
            Ok(i) => match Arc::get_mut(&mut self.entries) {
                Some(unshared) => unshared[i].1 = value,
                None => {
                    self.entries = self
                        .entries
                        .iter()
                        .enumerate()
                        .map(|(j, (n, v))| (Arc::clone(n), if j == i { value } else { *v }))
                        .collect();
                }
            },
            Err(i) => {
                self.entries = self.entries[..i]
                    .iter()
                    .cloned()
                    .chain(std::iter::once((Arc::from(name), value)))
                    .chain(self.entries[i..].iter().cloned())
                    .collect();
            }
        }
    }

    /// A copy with one parameter replaced — the "adjust one slider" op of
    /// online mode. The copy shares every name with `self` and is built in
    /// one allocation; `self` is unchanged.
    pub fn with(&self, name: impl AsRef<str>, value: i64) -> Self {
        let mut copy = self.clone();
        copy.set(name, value);
        copy
    }

    /// A copy with new values for some parameters — `value(name)` for
    /// each name it returns `Some` for, the point's own value for the
    /// rest — built in one allocation that shares every name with `self`.
    /// The names stay `self`'s: a parameter `self` lacks is not added. A
    /// sweep stamps each of its points into one template this way.
    pub fn stamped(&self, value: impl Fn(&str) -> Option<i64>) -> Self {
        ParamPoint {
            entries: (self.entries.iter())
                .map(|(n, v)| (Arc::clone(n), value(n).unwrap_or(*v)))
                .collect(),
        }
    }

    /// Value of a parameter, if set.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.entries
            .binary_search_by(|(n, _)| (**n).cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.entries.iter().map(|(n, v)| (&**n, *v))
    }

    /// Convert to the `@param → Value` map the SQL executor consumes.
    pub fn to_value_map(&self) -> HashMap<String, Value> {
        self.entries
            .iter()
            .map(|(n, v)| (n.to_string(), Value::Int(*v)))
            .collect()
    }

    /// Stable hash of the point. Its one product use is salting world ids
    /// in `simulate_point_columnar(.., false)`, so different points draw
    /// independent randomness under one root seed; only the `perf` harness
    /// asks for that.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over "name=value;" pairs; stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (n, v) in self.entries.iter() {
            eat(n.as_bytes());
            eat(b"=");
            eat(&v.to_le_bytes());
            eat(b";");
        }
        h
    }
}

/// A walk reads `@param` straight from the point — one binary search per
/// parameter reference, no map built.
impl Params for ParamPoint {
    fn param(&self, name: &str) -> Option<Value> {
        self.get(name).map(Value::Int)
    }
}

impl fmt::Display for ParamPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "@{n}={v}")?;
        }
        write!(f, "}}")
    }
}

impl<S: Into<String>> FromIterator<(S, i64)> for ParamPoint {
    fn from_iter<I: IntoIterator<Item = (S, i64)>>(iter: I) -> Self {
        ParamPoint::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_does_not_matter() {
        let a = ParamPoint::from_pairs([("b", 2i64), ("a", 1)]);
        let b = ParamPoint::from_pairs([("a", 1i64), ("b", 2)]);
        assert_eq!(a, b);
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn set_get_overwrite() {
        let mut p = ParamPoint::new();
        assert!(p.is_empty());
        p.set("current", 10);
        p.set("current", 20);
        assert_eq!(p.get("current"), Some(20));
        assert_eq!(p.get("missing"), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn with_clones_without_mutating() {
        let p = ParamPoint::from_pairs([("x", 1i64)]);
        let q = p.with("x", 9);
        assert_eq!(p.get("x"), Some(1));
        assert_eq!(q.get("x"), Some(9));
    }

    #[test]
    fn overwriting_shares_the_name_with_the_original() {
        let p = ParamPoint::from_pairs([("x", 1i64), ("y", 2)]);
        let mut q = p.with(String::from("x"), 9);
        q.set("y", 7);
        assert_eq!(q, ParamPoint::from_pairs([("x", 9i64), ("y", 7)]));
        for ((a, _), (b, _)) in p.iter().zip(q.iter()) {
            assert!(std::ptr::eq(a, b), "`{a}` was allocated again");
        }
    }

    #[test]
    fn stamping_sets_values_and_shares_every_name() {
        let p = ParamPoint::from_pairs([("a", 1i64), ("b", 2), ("c", 3)]);
        let q = p.stamped(|n| (n != "b").then_some(9));
        assert_eq!(q, ParamPoint::from_pairs([("a", 9i64), ("b", 2), ("c", 9)]));
        assert!(q.shares_names(&p) && !Arc::ptr_eq(&p.entries, &q.entries));
        assert_eq!(
            p.stamped(|n| (n == "z").then_some(0)),
            p,
            "no name is added"
        );
    }

    #[test]
    fn a_clone_shares_the_entries_and_edits_copy_on_write() {
        let p = ParamPoint::from_pairs([("x", 1i64), ("y", 2)]);
        let mut q = p.clone();
        let r = p.clone();
        assert!(Arc::ptr_eq(&p.entries, &q.entries), "a clone allocated");
        q.set("x", 9);
        let s = r.with("z", 3);
        let unchanged = ParamPoint::from_pairs([("x", 1i64), ("y", 2)]);
        assert_eq!((&p, &r), (&unchanged, &unchanged));
        assert!(Arc::ptr_eq(&p.entries, &r.entries));
        assert_eq!(q, ParamPoint::from_pairs([("x", 9i64), ("y", 2)]));
        assert_eq!(s, ParamPoint::from_pairs([("x", 1i64), ("y", 2), ("z", 3)]));
        // `q` owns its rebuilt entries alone now: the next edit is in place.
        let rebuilt = Arc::as_ptr(&q.entries);
        q.set("y", 7);
        assert_eq!(Arc::as_ptr(&q.entries), rebuilt);
        assert_eq!(q.get("y"), Some(7));
        // Setting the value a shared point already holds keeps it shared.
        let mut t = p.clone();
        t.set("x", 1);
        assert!(Arc::ptr_eq(&p.entries, &t.entries));
    }

    #[test]
    fn stable_hash_distinguishes_values_and_names() {
        let a = ParamPoint::from_pairs([("x", 1i64)]);
        let b = ParamPoint::from_pairs([("x", 2i64)]);
        let c = ParamPoint::from_pairs([("y", 1i64)]);
        assert_ne!(a.stable_hash(), b.stable_hash());
        assert_ne!(a.stable_hash(), c.stable_hash());
        // Hash must be reproducible across calls.
        assert_eq!(a.stable_hash(), a.stable_hash());
    }

    #[test]
    fn value_map_conversion() {
        let p = ParamPoint::from_pairs([("current", 7i64)]);
        let m = p.to_value_map();
        assert_eq!(m["current"], Value::Int(7));
    }

    /// `ParamPoint` is defined by a plain name-sorted `Vec<(String, i64)>`:
    /// ordering, `Hash`, `stable_hash`, `Display`, `get` and `iter` must be
    /// indistinguishable from that model however the names are stored.
    #[test]
    fn behaves_like_a_sorted_string_pair_vector() {
        use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        fn hash_of(value: &impl Hash) -> u64 {
            let mut hasher = DefaultHasher::new();
            value.hash(&mut hasher);
            hasher.finish()
        }
        fn model_stable_hash(model: &[(String, i64)]) -> u64 {
            let text: Vec<u8> = model
                .iter()
                .flat_map(|(n, v)| [n.as_bytes(), b"=", &v.to_le_bytes(), b";"].concat())
                .collect();
            text.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        }

        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9A2A);
        let names = ["a", "ab", "b", "current", "feature", "purchase1", "é", ""];
        let mut drawn: Vec<(ParamPoint, Vec<(String, i64)>)> = Vec::new();
        for _ in 0..300 {
            let mut model: Vec<(String, i64)> = Vec::new();
            let mut point = ParamPoint::new();
            for step in 0..rng.next_u64() % 6 {
                let name = names[(rng.next_u64() % names.len() as u64) as usize];
                let value = (rng.next_u64() % 7) as i64 - 3;
                // Alternate the two mutation entry points.
                if step % 2 == 0 {
                    point.set(name, value);
                } else {
                    point = point.with(String::from(name), value);
                }
                model.retain(|(n, _)| n != name);
                model.push((name.to_owned(), value));
                model.sort();
            }
            assert_eq!(point, ParamPoint::from_pairs(model.iter().rev().cloned()));
            assert_eq!(point.len(), model.len());
            let pairs: Vec<(String, i64)> = point.iter().map(|(n, v)| (n.to_owned(), v)).collect();
            assert_eq!(pairs, model);
            for name in names {
                let want = model.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                assert_eq!(point.get(name), want, "{point} get({name:?})");
            }
            assert_eq!(hash_of(&point), hash_of(&model), "{point}");
            assert_eq!(point.stable_hash(), model_stable_hash(&model), "{point}");
            let shown: Vec<String> = model.iter().map(|(n, v)| format!("@{n}={v}")).collect();
            assert_eq!(point.to_string(), format!("{{{}}}", shown.join(", ")));
            drawn.push((point, model));
        }
        for (a, model_a) in drawn.iter().step_by(7) {
            for (b, model_b) in &drawn {
                assert_eq!(a.cmp(b), model_a.cmp(model_b), "{a} vs {b}");
                assert_eq!(a == b, model_a == model_b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn display_format() {
        let p = ParamPoint::from_pairs([("b", 2i64), ("a", 1)]);
        assert_eq!(p.to_string(), "{@a=1, @b=2}");
    }
}
