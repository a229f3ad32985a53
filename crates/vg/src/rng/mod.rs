//! Deterministic pseudo-random number generation.
//!
//! All generators implement [`Rng64`], a minimal trait with provided
//! combinators for floats, ranges and booleans. Streams are bit-for-bit
//! reproducible: the fingerprint store persists only seeds, never samples.

mod pcg;
mod seedseq;
mod splitmix;
mod xoshiro;

pub use pcg::Pcg32;
pub use seedseq::SeedSequence;
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256StarStar;

/// A deterministic 64-bit random source.
///
/// The provided methods define the *only* sanctioned conversions from raw
/// bits to floats/ranges; every model must go through them so that two
/// invocations with the same seed consume the stream identically.
pub trait Rng64 {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; (1 << 53) as f64 is exact.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`. `lo` must be `<= hi`.
    fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[lo, hi]` (inclusive) via unbiased rejection.
    ///
    /// # Panics
    /// Panics if `lo > hi` — caller bug, not data-dependent.
    fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "gen_range_i64: lo ({lo}) > hi ({hi})");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        if span == 1 {
            return lo;
        }
        // Rejection sampling over the widest multiple of `span` that fits in
        // u64 keeps the draw unbiased for any span.
        let span64 = span as u64; // span <= u64::MAX + 1; span==2^64 handled below
        if span > u64::MAX as u128 {
            return lo.wrapping_add(self.next_u64() as i64);
        }
        let zone = u64::MAX - (u64::MAX % span64 + 1) % span64;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + (v % span64) as i64;
            }
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "{v} out of [0,1)");
        }
    }

    #[test]
    fn gen_range_i64_bounds_and_coverage() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let v = rng.gen_range_i64(10, 14);
            assert!((10..=14).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all values in a small range should appear"
        );
    }

    #[test]
    fn gen_range_i64_degenerate_span() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        assert_eq!(rng.gen_range_i64(42, 42), 42);
    }

    #[test]
    #[should_panic(expected = "lo (3) > hi (2)")]
    fn gen_range_i64_panics_on_inverted_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        rng.gen_range_i64(3, 2);
    }

    #[test]
    fn gen_range_i64_full_domain_does_not_hang() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        // span == 2^64: exercised the special path
        let _ = rng.gen_range_i64(i64::MIN, i64::MAX);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-0.5));
        assert!(rng.gen_bool(1.5));
    }

    #[test]
    fn gen_bool_frequency_tracks_p() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
    }
}
