//! Reaches the fixture's `pub` items, so the `unreached` pass stays
//! silent and the seeded leak is the one finding.

use mc::{apply, Totals};

fn reach(t: &Totals) -> f64 {
    t.total() + Totals::lengths(&[]).len() as f64 + apply(str::len) as f64
}
