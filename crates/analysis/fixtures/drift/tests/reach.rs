//! Reaches the fixture's `pub` item, so the `unreached` pass stays
//! silent and the seeded drift is the one finding.

use mc::ONLY;
