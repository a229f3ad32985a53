//! The Result Aggregator: streaming statistics over Monte Carlo samples.
//!
//! "The Result Aggregator produces expectations, standard deviations, and
//! other desired metrics" (§2). Everything here is single-pass (Welford) or
//! cheap post-passes, and mergeable so the offline sweep can aggregate
//! across worker threads.

/// Numerically stable streaming mean/variance (Welford's algorithm), plus
/// min/max.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate one observation. Non-finite samples are counted into
    /// min/max but poison the moments — models are expected to produce
    /// finite values and `tests/failure_injection.rs` verifies NaNs surface
    /// rather than disappear.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Accumulate many observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample variance (`None` when fewer than 2 observations).
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.n as f64).sqrt())
    }

    /// Half-width of the normal-approximation confidence interval at the
    /// given z score (1.96 ≈ 95%).
    pub fn ci_half_width(&self, z: f64) -> Option<f64> {
        self.std_error().map(|se| z * se)
    }

    /// Whether the CI half-width is at or below `epsilon` — the engine's
    /// "first accurate guess" criterion for progressive refinement.
    pub fn converged(&self, epsilon: f64, z: f64) -> bool {
        match self.ci_half_width(z) {
            Some(hw) => self.n >= 2 && hw <= epsilon,
            None => false,
        }
    }

    /// Merge another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot as an owned [`SampleStats`].
    pub fn stats(&self) -> SampleStats {
        SampleStats {
            count: self.n,
            mean: self.mean().unwrap_or(f64::NAN),
            std_dev: self.std_dev().unwrap_or(0.0),
            min: self.min().unwrap_or(f64::NAN),
            max: self.max().unwrap_or(f64::NAN),
        }
    }
}

/// An immutable summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Empirical quantile (linear interpolation between order statistics).
/// `q` is clamped to `[0, 1]`. Returns `None` on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_stats(xs: &[f64]) -> (f64, f64) {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        (m, v)
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 1000) as f64 / 10.0)
            .collect();
        let mut w = Welford::new();
        w.extend(&xs);
        let (m, v) = naive_stats(&xs);
        assert!((w.mean().unwrap() - m).abs() < 1e-10);
        assert!((w.variance().unwrap() - v).abs() < 1e-9);
        assert_eq!(w.count(), 1000);
        assert_eq!(w.min().unwrap(), 0.0);
        assert_eq!(w.max().unwrap(), 99.9);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation probe: huge mean, tiny variance.
        let xs: Vec<f64> = (0..100).map(|i| 1e9 + (i % 2) as f64).collect();
        let mut w = Welford::new();
        w.extend(&xs);
        let v = w.variance().unwrap();
        assert!((v - 0.25252525252525254).abs() < 1e-6, "v={v}");
    }

    #[test]
    fn welford_empty_and_singleton() {
        let w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        assert!(!w.converged(1.0, 1.96));

        let mut w = Welford::new();
        w.push(5.0);
        assert_eq!(w.mean(), Some(5.0));
        assert_eq!(w.variance(), None);
        assert_eq!(w.min(), Some(5.0));
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(123);
        let mut wa = Welford::new();
        wa.extend(a);
        let mut wb = Welford::new();
        wb.extend(b);
        wa.merge(&wb);

        let mut wseq = Welford::new();
        wseq.extend(&xs);
        assert_eq!(wa.count(), wseq.count());
        assert!((wa.mean().unwrap() - wseq.mean().unwrap()).abs() < 1e-10);
        assert!((wa.variance().unwrap() - wseq.variance().unwrap()).abs() < 1e-9);
        assert_eq!(wa.min(), wseq.min());
        assert_eq!(wa.max(), wseq.max());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut w = Welford::new();
        w.push(1.0);
        let snapshot = w;
        w.merge(&Welford::new());
        assert_eq!(w, snapshot);

        let mut e = Welford::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn convergence_criterion_tightens_with_n() {
        let mut w = Welford::new();
        for i in 0..10 {
            w.push((i % 2) as f64);
        }
        assert!(
            !w.converged(0.01, 1.96),
            "10 samples of a coin flip are not accurate to 0.01"
        );
        for i in 0..100_000 {
            w.push((i % 2) as f64);
        }
        assert!(w.converged(0.01, 1.96));
    }

    #[test]
    fn quantiles() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, -1.0), Some(1.0), "clamped");
        assert_eq!(quantile(&[], 0.5), None);
        // order independence
        let ys = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&ys, 0.5), Some(2.5));
    }
}
