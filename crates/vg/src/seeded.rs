//! Deterministic seed derivation for possible worlds.
//!
//! Every random draw in a simulation must be attributable to a *world*: the
//! MCDB possible-worlds semantics requires that re-running world `w` of a
//! scenario reproduces exactly the same sample, and the fingerprint engine
//! requires that the same world seed fed to two different parameterizations
//! uses "the same randomness" so differences are attributable to parameters,
//! not noise (this is the paper's common-random-numbers trick).
//!
//! [`SeedManager`] derives a generator per `(world, function, step)` by
//! hash-mixing the components with SplitMix64 finalizers. Streams for
//! distinct coordinates are statistically independent, and no global state
//! is involved, so simulation is embarrassingly parallel.

use crate::rng::{SplitMix64, Xoshiro256StarStar};

/// Derives per-(world, function, step) generators from one root seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedManager {
    root: u64,
}

impl SeedManager {
    /// Create with an explicit root (scenario-level configuration).
    pub fn new(root: u64) -> Self {
        SeedManager { root }
    }

    /// Stable FNV-1a hash of a function name. Not security-relevant; only
    /// needs to be stable across runs and well-spread.
    fn hash_name(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Raw derived seed for `(world, function, step)`.
    pub fn seed_for(&self, world: u64, function: &str, step: u64) -> u64 {
        // Three rounds of strong mixing; each component is pre-whitened so
        // that adjacent worlds / steps land far apart in seed space.
        let a = SplitMix64::mix(self.root ^ world.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let b = SplitMix64::mix(a ^ Self::hash_name(function));
        SplitMix64::mix(b ^ step.wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }

    /// Generator for `(world, function, step)`.
    pub fn rng_for(&self, world: u64, function: &str, step: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(self.seed_for(world, function, step))
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn derivation_is_deterministic() {
        let m = SeedManager::new(7);
        assert_eq!(
            m.seed_for(3, "DemandModel", 1),
            m.seed_for(3, "DemandModel", 1)
        );
        assert_eq!(m.root(), 7);
    }

    #[test]
    fn coordinates_are_separated() {
        let m = SeedManager::new(7);
        let base = m.seed_for(3, "DemandModel", 1);
        assert_ne!(base, m.seed_for(4, "DemandModel", 1), "world must matter");
        assert_ne!(
            base,
            m.seed_for(3, "CapacityModel", 1),
            "function must matter"
        );
        assert_ne!(base, m.seed_for(3, "DemandModel", 2), "step must matter");
        assert_ne!(
            base,
            SeedManager::new(8).seed_for(3, "DemandModel", 1),
            "root must matter"
        );
    }

    #[test]
    fn no_seed_collisions_over_a_grid() {
        let m = SeedManager::new(0xABCD);
        let mut seeds = Vec::new();
        for world in 0..50u64 {
            for step in 0..50u64 {
                seeds.push(m.seed_for(world, "CapacityModel", step));
            }
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "2500 derived seeds must be distinct");
    }

    #[test]
    fn derived_streams_look_independent() {
        let m = SeedManager::new(1);
        let mut a = m.rng_for(0, "f", 0);
        let mut b = m.rng_for(1, "f", 0);
        let xs: Vec<f64> = (0..20_000).map(|_| a.next_f64()).collect();
        let ys: Vec<f64> = (0..20_000).map(|_| b.next_f64()).collect();
        let mx = xs.iter().sum::<f64>() / xs.len() as f64;
        let my = ys.iter().sum::<f64>() / ys.len() as f64;
        let cov: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / xs.len() as f64;
        assert!(cov.abs() < 0.002, "cross-stream covariance {cov}");
    }
}
