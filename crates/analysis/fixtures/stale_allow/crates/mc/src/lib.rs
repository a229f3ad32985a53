//! Stale-marker fixture: the map `listing` once walked became a
//! `BTreeMap`, and its `analysis:allow(map-iter)` marker stayed behind.
//! The analyzer must report exactly one active finding, a stale-allow on
//! the marker's line. Prose naming the grammar — a doc comment saying
//! `// analysis:allow(map-iter): reason` — is not a marker.

use std::collections::{BTreeMap, HashMap};

/// A live marker: it excuses the walk on its next code line.
pub fn drain_all(m: &mut HashMap<String, u64>) -> u64 {
    let mut total = 0;
    // analysis:allow(map-iter): integer addition commutes — order is unobservable
    for (_, v) in m.drain() {
        total += v;
    }
    total
}

/// The seeded stale marker: a `BTreeMap` walk needs no excuse.
pub fn listing(sorted: &BTreeMap<String, u64>) -> Vec<String> {
    // analysis:allow(map-iter): line 21, the one expected finding
    sorted.keys().cloned().collect()
}
