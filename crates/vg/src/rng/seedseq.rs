//! The fixed seed sequences that define fingerprints.
//!
//! The paper (§2, "Fingerprinting"):
//!
//! > "the fingerprint of a parameterized stochastic function is simply a
//! > sequence of its outputs under a fixed sequence of random inputs (i.e.,
//! > seed of its pseudorandom number generator). The use of a fixed set of
//! > random seeds ensures a deterministic relationship between correlated
//! > outputs of the stochastic functions."
//!
//! [`SeedSequence`] is that fixed set. Two call sites matter:
//!
//! * **fingerprinting** uses [`SeedSequence::fingerprint_default`] — a
//!   process-wide constant sequence, so that fingerprints computed at any
//!   time for any parameter point are comparable;
//! * **estimation** uses per-run sequences ([`SeedSequence::from_root`]) so
//!   production Monte Carlo estimates do not reuse fingerprint worlds.

use super::splitmix::SplitMix64;
use super::Rng64;

/// Root constant for the canonical fingerprint sequence. Changing this value
/// invalidates every stored fingerprint, so it is fixed for the lifetime of
/// the project (digits of pi in hex).
const FINGERPRINT_ROOT: u64 = 0x243F_6A88_85A3_08D3;

/// A reproducible, arbitrarily long sequence of world seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
    seeds: Vec<u64>,
}

impl SeedSequence {
    /// The canonical fixed sequence used for fingerprinting, with `len`
    /// seeds. Prefixes agree: `fingerprint_default(8)` is the first half of
    /// `fingerprint_default(16)`, which lets fingerprints of different
    /// lengths be compared on their common prefix.
    pub fn fingerprint_default(len: usize) -> Self {
        SeedSequence::from_root(FINGERPRINT_ROOT, len)
    }

    /// A sequence derived from an arbitrary root.
    pub fn from_root(root: u64, len: usize) -> Self {
        let mut sm = SplitMix64::new(root);
        let seeds = (0..len).map(|_| sm.next_u64()).collect();
        SeedSequence { root, seeds }
    }

    /// The root this sequence was expanded from.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// The seeds.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Number of seeds.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// True if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sequence_is_stable() {
        let a = SeedSequence::fingerprint_default(16);
        let b = SeedSequence::fingerprint_default(16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn prefix_property() {
        let short = SeedSequence::fingerprint_default(8);
        let long = SeedSequence::fingerprint_default(32);
        assert_eq!(short.seeds(), &long.seeds()[..8]);
    }

    #[test]
    fn distinct_roots_give_distinct_sequences() {
        let a = SeedSequence::from_root(1, 8);
        let b = SeedSequence::from_root(2, 8);
        assert_ne!(a.seeds(), b.seeds());
        assert_eq!(a.root(), 1);
    }

    #[test]
    fn seeds_are_distinct_within_sequence() {
        let s = SeedSequence::fingerprint_default(256);
        let mut v = s.seeds().to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 256);
    }

    #[test]
    fn empty_sequence() {
        let s = SeedSequence::from_root(5, 0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
