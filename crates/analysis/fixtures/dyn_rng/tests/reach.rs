//! Reaches the fixture's `pub` items, so the `unreached` pass stays
//! silent and the seeded vtable is the one finding.

use models::{draw, jitter, noise};
use sql::executor::Shared;
