//! `dyn Rng64` fixture: a model helper that takes its stream through a
//! vtable. The analyzer must report exactly one dyn-rng finding, on the
//! `jitter` line; the generic and concrete helpers are fine.

use prophet_vg::rng::{Rng64, Xoshiro256StarStar};

/// Generic over the stream: monomorphizes at every caller.
pub fn noise<R: Rng64 + ?Sized>(rng: &mut R) -> f64 {
    rng.next_f64() - 0.5
}

/// The call's concrete stream.
pub fn draw(rng: &mut Xoshiro256StarStar) -> f64 {
    noise(rng)
}

/// The seeded vtable: every draw a virtual call.
pub fn jitter(base: f64, rng: &mut dyn Rng64) -> f64 { // line 18: the one expected finding
    base + rng.next_f64()
}
