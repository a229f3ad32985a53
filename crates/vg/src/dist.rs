//! Parametric probability distributions with closed-form moments.
//!
//! Every distribution documents how many draws it consumes from the PRNG
//! stream per sample — the stream-alignment discipline the models build on
//! (see `prophet-models`): samplers with a *fixed* draw count keep common
//! random numbers aligned when parameters change; samplers with a
//! data-dependent draw count (Poisson) say so, and callers isolate them on
//! sub-streams where alignment matters.
//!
//! Moments are closed-form so tests can check Monte Carlo estimates against
//! exact values rather than against other estimates.

use std::f64::consts::TAU;

use crate::rng::Rng64;

/// A univariate distribution that knows its first two moments in closed
/// form.
///
/// Sampling is each concrete distribution's inherent `sample_with`, generic
/// over the rng type: a model's call stream is a concrete
/// `Xoshiro256StarStar`, so the generator's state update inlines into the
/// sampling loop.
pub trait Distribution {
    /// Exact expectation.
    fn mean(&self) -> f64;

    /// Exact variance.
    fn variance(&self) -> f64;

    /// Exact standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Gaussian `N(mean, std²)`.
///
/// Stream discipline: exactly **two** uniform draws per sample (Box–Muller,
/// cosine branch; the sine partner is intentionally discarded so the draw
/// count stays fixed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// A normal with the given mean and standard deviation.
    /// Returns `None` unless `std` is finite and positive.
    pub fn new(mean: f64, std: f64) -> Option<Self> {
        (std.is_finite() && std > 0.0 && mean.is_finite()).then_some(Normal { mean, std })
    }

    /// Draw a standard-normal variate (two uniforms, Box–Muller).
    #[inline]
    fn standard<R: Rng64>(rng: &mut R) -> f64 {
        // next_f64 ∈ [0,1) ⇒ 1-u ∈ (0,1], so the log is finite.
        let u1 = 1.0 - rng.next_f64();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
    }

    /// Draw one sample.
    #[inline]
    pub fn sample_with<R: Rng64>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * Normal::standard(rng)
    }
}

impl Distribution for Normal {
    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.std * self.std
    }
}

/// Log-normal: `exp(N(mu, sigma²))`, parameterized by the *underlying*
/// normal's moments (so `mu` is the log of the median).
///
/// Stream discipline: exactly two uniform draws per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// A log-normal whose logarithm is `N(mu, sigma²)`.
    /// Returns `None` unless `sigma` is finite and positive.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (sigma.is_finite() && sigma > 0.0 && mu.is_finite()).then_some(LogNormal { mu, sigma })
    }

    /// Draw one sample.
    #[inline]
    pub fn sample_with<R: Rng64>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Normal::standard(rng)).exp()
    }
}

impl Distribution for LogNormal {
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

/// Poisson with rate `lambda`; samples are non-negative integer counts
/// returned as `f64`.
///
/// Stream discipline: the draw count is **data-dependent** (expected
/// `lambda + chunks` uniforms, Knuth's product method over chunks of at most
/// `Poisson::CHUNK`); callers that need stream alignment must sample on an
/// isolated sub-stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
    /// Full [`Poisson::CHUNK`]-rate sub-draws per sample.
    chunks: u32,
    /// Knuth limit `exp(-remaining)` for the final sub-draw (`remaining`
    /// is the rate left after the full chunks). Precomputed at
    /// construction so the per-sample hot loop never re-evaluates `exp`.
    tail_limit: f64,
    /// Knuth limit `exp(-CHUNK)` for the full chunks.
    chunk_limit: f64,
}

impl Poisson {
    /// Largest rate handled by a single Knuth product loop: `exp(-CHUNK)`
    /// must stay a normal f64 (`exp(-500) ≈ 7e-218`).
    const CHUNK: f64 = 500.0;

    /// The largest rate [`Poisson::new`] accepts. A sample costs about one
    /// uniform per expected event, so a rate is also a running time: at
    /// this bound one sample is ≈ 10⁶ draws (milliseconds) and construction
    /// is 2,000 chunk subtractions.
    pub const MAX_RATE: f64 = 1.0e6;

    /// A Poisson with the given event rate.
    /// Returns `None` unless `lambda` is in `(0, MAX_RATE]` (NaN is not).
    pub fn new(lambda: f64) -> Option<Self> {
        if !(lambda > 0.0 && lambda <= Poisson::MAX_RATE) {
            return None;
        }
        // Poisson(a + b) = Poisson(a) + Poisson(b): split large rates into
        // chunks each safely representable by the product method. The
        // remaining rate is reduced by *repeated subtraction* (not one
        // multiply) so samples stay bit-identical to the historical
        // per-sample chunking loop.
        let mut remaining = lambda;
        let mut chunks = 0u32;
        while remaining > Poisson::CHUNK {
            chunks += 1;
            remaining -= Poisson::CHUNK;
        }
        Some(Poisson {
            lambda,
            chunks,
            tail_limit: (-remaining).exp(),
            chunk_limit: (-Poisson::CHUNK).exp(),
        })
    }

    /// Knuth's method for one rate chunk: count uniforms whose running
    /// product stays above the chunk's precomputed `exp(-rate)` limit.
    #[inline]
    fn knuth<R: Rng64>(limit: f64, rng: &mut R) -> u64 {
        let mut product = 1.0;
        let mut count = 0u64;
        loop {
            product *= rng.next_f64();
            if product <= limit {
                return count;
            }
            count += 1;
        }
    }

    /// Draw one sample.
    #[inline]
    pub fn sample_with<R: Rng64>(&self, rng: &mut R) -> f64 {
        let mut total = 0u64;
        for _ in 0..self.chunks {
            total += Poisson::knuth(self.chunk_limit, rng);
        }
        total += Poisson::knuth(self.tail_limit, rng);
        total as f64
    }
}

impl Distribution for Poisson {
    fn mean(&self) -> f64 {
        self.lambda
    }

    fn variance(&self) -> f64 {
        self.lambda
    }
}

/// Triangular on `[min, max]` with the given mode.
///
/// Stream discipline: exactly **one** uniform draw per sample (inverse CDF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    min: f64,
    mode: f64,
    max: f64,
}

impl Triangular {
    /// A triangle satisfying `min <= mode <= max` with `min < max`.
    /// Returns `None` otherwise (or on non-finite corners).
    pub fn new(min: f64, mode: f64, max: f64) -> Option<Self> {
        let finite = min.is_finite() && mode.is_finite() && max.is_finite();
        (finite && min <= mode && mode <= max && min < max).then_some(Triangular { min, mode, max })
    }

    /// Draw one sample.
    #[inline]
    pub fn sample_with<R: Rng64>(&self, rng: &mut R) -> f64 {
        let (a, c, b) = (self.min, self.mode, self.max);
        let u = rng.next_f64();
        let pivot = (c - a) / (b - a);
        if u < pivot {
            a + (u * (b - a) * (c - a)).sqrt()
        } else {
            b - ((1.0 - u) * (b - a) * (b - c)).sqrt()
        }
    }
}

impl Distribution for Triangular {
    fn mean(&self) -> f64 {
        (self.min + self.mode + self.max) / 3.0
    }

    fn variance(&self) -> f64 {
        let (a, c, b) = (self.min, self.mode, self.max);
        (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn moments(sample: impl Fn(&mut Xoshiro256StarStar) -> f64, seed: u64, n: usize) -> (f64, f64) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        (mean, var)
    }

    /// Above the bound the constructor's chunk loop would overflow its
    /// counter (3e12) or never end (1e30): refused before it starts.
    #[test]
    fn poisson_rate_is_bounded() {
        assert!(Poisson::new(Poisson::MAX_RATE).is_some());
        assert!(Poisson::new(Poisson::MAX_RATE * 1.001).is_none());
        assert!(Poisson::new(3e12).is_none());
        assert!(Poisson::new(1e30).is_none());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Normal::new(0.0, 0.0).is_none());
        assert!(Normal::new(0.0, -1.0).is_none());
        assert!(Normal::new(f64::NAN, 1.0).is_none());
        assert!(LogNormal::new(0.0, 0.0).is_none());
        assert!(Poisson::new(0.0).is_none());
        assert!(Poisson::new(f64::INFINITY).is_none());
        assert!(Poisson::new(f64::NAN).is_none());
        assert!(
            Triangular::new(0.0, 0.0, 0.0).is_none(),
            "degenerate triangle"
        );
        assert!(Triangular::new(2.0, 1.0, 3.0).is_none(), "mode below min");
        assert!(Triangular::new(0.0, 4.0, 3.0).is_none(), "mode above max");
    }

    #[test]
    fn normal_moments_match_closed_form() {
        let d = Normal::new(12.0, 3.0).unwrap();
        assert_eq!(d.mean(), 12.0);
        assert_eq!(d.variance(), 9.0);
        assert_eq!(d.std_dev(), 3.0);
        let (m, v) = moments(|r| d.sample_with(r), 1, 200_000);
        assert!((m - 12.0).abs() < 0.05, "sample mean {m}");
        assert!((v - 9.0).abs() < 0.15, "sample variance {v}");
    }

    #[test]
    fn normal_consumes_exactly_two_draws() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut a = Xoshiro256StarStar::seed_from_u64(5);
        let mut b = Xoshiro256StarStar::seed_from_u64(5);
        let _ = d.sample_with(&mut a);
        b.next_u64();
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64(), "sampling must consume two u64s");
    }

    #[test]
    fn lognormal_moments_match_closed_form() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        let exact_mean = (1.0f64 + 0.125).exp();
        assert!((d.mean() - exact_mean).abs() < 1e-12);
        let (m, v) = moments(|r| d.sample_with(r), 2, 400_000);
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.01,
            "sample mean {m} vs {}",
            d.mean()
        );
        assert!(
            (v - d.variance()).abs() / d.variance() < 0.08,
            "sample var {v}"
        );
    }

    #[test]
    fn lognormal_is_positive() {
        let d = LogNormal::new(-2.0, 1.5).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(d.sample_with(&mut rng) > 0.0);
        }
    }

    #[test]
    fn poisson_moments_match_closed_form() {
        for lambda in [0.4, 3.0, 25.0] {
            let d = Poisson::new(lambda).unwrap();
            let (m, v) = moments(|r| d.sample_with(r), 7, 100_000);
            assert!(
                (m - lambda).abs() < 0.05 * (1.0 + lambda),
                "λ={lambda}: mean {m}"
            );
            assert!(
                (v - lambda).abs() < 0.08 * (1.0 + lambda),
                "λ={lambda}: var {v}"
            );
        }
    }

    #[test]
    fn poisson_samples_are_integral_counts() {
        let d = Poisson::new(6.5).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        for _ in 0..5_000 {
            let x = d.sample_with(&mut rng);
            assert!(x >= 0.0 && x.fract() == 0.0, "{x} is not a count");
        }
    }

    #[test]
    fn poisson_large_rate_uses_chunking() {
        let d = Poisson::new(1_800.0).unwrap();
        let (m, v) = moments(|r| d.sample_with(r), 13, 20_000);
        assert!((m - 1_800.0).abs() < 2.0, "chunked mean {m}");
        assert!((v - 1_800.0).abs() < 60.0, "chunked var {v}");
    }

    #[test]
    fn triangular_moments_and_support() {
        let d = Triangular::new(1.0, 2.0, 5.0).unwrap();
        assert!((d.mean() - 8.0 / 3.0).abs() < 1e-12);
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        for _ in 0..10_000 {
            let x = d.sample_with(&mut rng);
            assert!((1.0..=5.0).contains(&x), "{x} outside support");
        }
        let (m, v) = moments(|r| d.sample_with(r), 19, 200_000);
        assert!((m - d.mean()).abs() < 0.01, "sample mean {m}");
        assert!((v - d.variance()).abs() < 0.02, "sample var {v}");
    }

    #[test]
    fn triangular_with_mode_at_a_corner() {
        // mode == min and mode == max are valid (right and left triangles)
        let right = Triangular::new(0.0, 0.0, 4.0).unwrap();
        let left = Triangular::new(0.0, 4.0, 4.0).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        for _ in 0..1_000 {
            assert!((0.0..=4.0).contains(&right.sample_with(&mut rng)));
            assert!((0.0..=4.0).contains(&left.sample_with(&mut rng)));
        }
        assert!(right.mean() < left.mean());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(d.sample_with(&mut a), d.sample_with(&mut b));
        }
    }
}
