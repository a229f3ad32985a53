//! Reaches the fixture's `pub` items, so the `unreached` pass stays
//! silent and the seeded leak is the one finding.

use mc::{listing, sorted_listing};
