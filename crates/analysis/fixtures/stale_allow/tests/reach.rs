//! Reaches the fixture's `pub` items, so the `unreached` pass stays
//! silent and the stale marker is the one finding.

use mc::{drain_all, listing};
