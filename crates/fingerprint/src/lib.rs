//! # prophet-fingerprint
//!
//! The paper's primary contribution: **fingerprints** that identify
//! correlations between executions of a VG-Function under different
//! parameter values, plus the machinery that exploits them.
//!
//! > "The fingerprint of a VG-Function is a concise and easily-computable
//! > data structure that summarizes its output distribution. Thus, a
//! > fingerprint can be used to efficiently determine a function's
//! > correlation with another function, or its own instantiations under
//! > different parameter values." — §2
//!
//! The concrete technique (borrowed from random testing, per the paper): a
//! fingerprint is the vector of a stochastic function's outputs under a
//! *fixed* sequence of PRNG seeds. Because the randomness is pinned, two
//! parameterizations whose outputs are deterministically related produce
//! fingerprints with a detectable functional relationship — and that same
//! relationship can then re-map full Monte Carlo sample sets computed for
//! one parameterization into estimates for the other, skipping the VG
//! invocations entirely.
//!
//! * [`fingerprint`] — computing fingerprints under the canonical seed
//!   sequence,
//! * [`correlate`] — Pearson correlation, least-squares affine fits, and
//!   the thresholded detector that turns them into mappings,
//! * [`mapping`] — the re-mapping transforms and their application to
//!   sample sets,
//! * [`index`] — fingerprint summary statistics and the sound match-error
//!   lower bounds a branch-and-bound candidate scan prunes with.

pub mod correlate;
pub mod fingerprint;
pub mod index;
pub mod mapping;

pub use correlate::{fit_affine, pearson, AffineFit, CorrelationDetector};
pub use fingerprint::{Fingerprint, FingerprintConfig};
pub use index::{ExactKey, ExactWindow, FingerprintSummary, MatchBound};
pub use mapping::Mapping;
