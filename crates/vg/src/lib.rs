//! # prophet-vg
//!
//! The stochastic substrate of the Fuzzy Prophet reproduction: deterministic
//! pseudo-random number generation, parametric probability distributions, and
//! the **VG-Function** (variable-generation function) framework in the MCDB /
//! PIP tradition the paper builds on.
//!
//! ## Determinism is load-bearing
//!
//! Fuzzy Prophet's fingerprinting technique is defined as
//!
//! > "the fingerprint of a parameterized stochastic function is simply a
//! > sequence of its outputs under a fixed sequence of random inputs (i.e.,
//! > seed of its pseudorandom number generator)" — §2
//!
//! so the *exact* random stream for a given seed must be stable across runs,
//! platforms and library upgrades. For that reason the generators here
//! ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`], [`rng::Pcg32`]) are
//! implemented in-crate from their published reference algorithms rather than
//! delegating to the `rand` crate, whose `StdRng` stream is explicitly *not*
//! stability-guaranteed.
//!
//! ## Layers
//!
//! * [`rng`] — raw generators + the [`rng::SeedSequence`] that defines the
//!   fixed fingerprint seed set,
//! * [`dist`] — parametric distributions with closed-form moments (tested
//!   against their Monte Carlo estimates),
//! * [`function`] — the black-box [`function::VgFunction`] trait, the
//!   [`function::VgRegistry`] catalog, and invocation accounting used to
//!   *measure* the work fingerprints save,
//! * [`seeded`] — the deterministic (world, function, step) → seed mapping,
//! * [`hash`] — the deterministic word hasher ([`hash::FastBuild`]) the
//!   engine's internal tables use instead of SipHash.

pub mod dist;
pub mod function;
pub mod hash;
pub mod rng;
pub mod seeded;

pub use dist::Distribution;
pub use function::{InvocationStats, LedgerCall, LedgerStore, VgCallF64, VgFunction, VgRegistry};
pub use hash::FastBuild;
pub use rng::{Rng64, SeedSequence, SplitMix64, Xoshiro256StarStar};
pub use seeded::SeedManager;
