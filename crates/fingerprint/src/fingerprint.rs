//! Fingerprint computation.

use prophet_vg::rng::SeedSequence;

/// Configuration for fingerprint computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintConfig {
    /// Number of fixed seeds (= fingerprint length). Longer fingerprints
    /// discriminate better but cost more probe invocations
    /// (`fingerprint.build_ns_per_probe` in the `perf` harness).
    pub length: usize,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        // 32 probes: the length every suite and bench runs.
        FingerprintConfig { length: 32 }
    }
}

/// A fingerprint: outputs of a stochastic function under the canonical
/// fixed seed sequence.
///
/// Fingerprints of the *same* function under different parameters — or of
/// different functions — are comparable entry-by-entry because entry `i`
/// of every fingerprint was produced with the same seed `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    values: Vec<f64>,
}

impl Fingerprint {
    /// Compute a fingerprint by probing `sample` once per canonical seed.
    ///
    /// `sample` receives the raw seed and must return the function's scalar
    /// output for that seed (for table-valued models, a designated summary
    /// cell). The scalar reference the block constructor is tested
    /// against.
    #[cfg(test)]
    fn compute(config: FingerprintConfig, mut sample: impl FnMut(u64) -> f64) -> Self {
        let seeds = SeedSequence::fingerprint_default(config.length);
        Fingerprint {
            values: seeds.seeds().iter().map(|&s| sample(s)).collect(),
        }
    }

    /// Block-probe constructor: `sample` receives the whole seed block at
    /// once and returns one output per seed, in seed order.
    ///
    /// Instead of invoking the stochastic function once per seed, the
    /// caller evaluates all `seeds.len()` probe worlds in a single walk
    /// (e.g. through `prophet-sql`'s block evaluator) and hands back the
    /// output column.
    /// Under the canonical sequence the fingerprint is identical to the
    /// scalar construction: same seeds, same order.
    ///
    /// # Panics
    /// Panics if `sample` returns a column whose length differs from
    /// `seeds.len()` — a truncated or padded probe column would silently
    /// misalign every later entry-by-entry comparison.
    pub fn compute_block_with_seeds(
        seeds: &SeedSequence,
        sample: impl FnOnce(&[u64]) -> Vec<f64>,
    ) -> Self {
        let values = sample(seeds.seeds());
        assert_eq!(
            values.len(),
            seeds.len(),
            "block probe must return one output per seed"
        );
        Fingerprint { values }
    }

    /// Wrap raw values (pre-computed probes).
    pub fn from_values(values: Vec<f64>) -> Self {
        Fingerprint { values }
    }

    /// The probe outputs.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Fingerprint length.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no probes were taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Truncate to the common prefix length with `other` (the canonical
    /// sequence has the prefix property, so prefixes remain comparable).
    pub fn common_prefix<'a>(&'a self, other: &'a Fingerprint) -> (&'a [f64], &'a [f64]) {
        let n = self.len().min(other.len());
        (&self.values[..n], &other.values[..n])
    }

    /// Whether all probe outputs are finite (a NaN-producing model cannot
    /// be fingerprint-matched and must fall back to direct simulation).
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_vg::rng::{Rng64, Xoshiro256StarStar};

    #[test]
    fn same_function_same_fingerprint() {
        let cfg = FingerprintConfig { length: 16 };
        let f = |seed: u64| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            10.0 + rng.next_f64()
        };
        let a = Fingerprint::compute(cfg, f);
        let b = Fingerprint::compute(cfg, f);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.is_finite());
    }

    #[test]
    fn shifted_parameters_shift_the_fingerprint_exactly() {
        // Under fixed seeds, f(x) = base + noise(seed) obeys
        // fp(base2) - fp(base1) == base2 - base1 entry-wise.
        let cfg = FingerprintConfig { length: 8 };
        let make = |base: f64| {
            Fingerprint::compute(cfg, move |seed| {
                let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
                base + rng.next_f64()
            })
        };
        let a = make(10.0);
        let b = make(25.0);
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!((y - x - 15.0).abs() < 1e-12);
        }
    }

    #[test]
    fn prefix_property_of_canonical_sequence() {
        let short = Fingerprint::compute(FingerprintConfig { length: 8 }, |s| s as f64);
        let long = Fingerprint::compute(FingerprintConfig { length: 32 }, |s| s as f64);
        let (a, b) = short.common_prefix(&long);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn block_constructor_matches_scalar_constructor() {
        let cfg = FingerprintConfig { length: 16 };
        let f = |seed: u64| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            10.0 + rng.next_f64()
        };
        let scalar = Fingerprint::compute(cfg, f);
        let canonical = SeedSequence::fingerprint_default(cfg.length);
        let block = Fingerprint::compute_block_with_seeds(&canonical, |seeds| {
            seeds.iter().map(|&s| f(s)).collect()
        });
        assert_eq!(scalar, block);
    }

    #[test]
    #[should_panic(expected = "one output per seed")]
    fn block_constructor_rejects_misaligned_columns() {
        Fingerprint::compute_block_with_seeds(&SeedSequence::fingerprint_default(4), |_| {
            vec![1.0, 2.0]
        });
    }

    #[test]
    fn nan_probes_are_flagged() {
        let fp = Fingerprint::from_values(vec![1.0, f64::NAN]);
        assert!(!fp.is_finite());
        assert!(!fp.is_empty());
    }

    #[test]
    fn empty_fingerprint() {
        let fp = Fingerprint::compute(FingerprintConfig { length: 0 }, |_| unreachable!());
        assert!(fp.is_empty());
        assert!(fp.is_finite(), "vacuously finite");
    }
}
