//! The shared-stream executor: the one file the dyn-rng rule exempts.

use prophet_vg::rng::Rng64;

/// A world's shared stream.
pub struct Shared<'a>(pub &'a mut dyn Rng64);
