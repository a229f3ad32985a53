//! The Result Aggregator: statistics over Monte Carlo samples.
//!
//! "The Result Aggregator produces expectations, standard deviations, and
//! other desired metrics" (§2). Every moment comes from one kernel: a
//! two-pass sum in a fixed order — eight independent lanes combined as a
//! balanced tree, then the remainder in sample order — so an answer is a
//! pure function of the sample slice, bit-identical across thread counts,
//! tiers and runners, and an integer-valued column (an indicator such as
//! `overload`) whose sum stays below 2⁵³ gets the correctly rounded `k/n`.

use std::sync::Arc;

use crate::store::ColumnSamples;

/// Lanes of the kernel: sample `i` of every whole chunk of `LANES` lands
/// in lane `i`. The lanes are independent chains, so a pass is bound by
/// neither add nor compare latency, and nothing is reassociated.
const LANES: usize = 8;

/// Fold every whole chunk of `xs` into `LANES` accumulators started at
/// `init`; returns them with the samples left over.
fn lane_fold(xs: &[f64], init: f64, step: impl Fn(f64, f64) -> f64) -> ([f64; LANES], &[f64]) {
    let chunks = xs.chunks_exact(LANES);
    let rest = chunks.remainder();
    let mut lanes = [init; LANES];
    for chunk in chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = step(*lane, x);
        }
    }
    (lanes, rest)
}

/// Σ `term(x)` over `xs` in the kernel's fixed order: the lanes combined
/// as `((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))`, then the remainder added in
/// order.
fn fixed_order_sum(xs: &[f64], term: impl Fn(f64) -> f64) -> f64 {
    let ([s0, s1, s2, s3, s4, s5, s6, s7], rest) = lane_fold(xs, 0.0, |acc, x| acc + term(x));
    let tree = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
    rest.iter().fold(tree, |acc, &x| acc + term(x))
}

/// The smallest or largest sample under `pick` (`f64::min` / `f64::max`,
/// which skip NaNs), `init` when `xs` is empty.
fn extreme(xs: &[f64], init: f64, pick: fn(f64, f64) -> f64) -> f64 {
    let (lanes, rest) = lane_fold(xs, init, pick);
    lanes
        .into_iter()
        .chain(rest.iter().copied())
        .fold(init, pick)
}

/// Pass 1 of the kernel: the sample mean. NaN when `xs` is empty or its
/// sum is not finite (any NaN or ±∞ sample, or an overflowing sum).
pub fn mean(xs: &[f64]) -> f64 {
    let sum = fixed_order_sum(xs, |x| x);
    if sum.is_finite() {
        sum / xs.len() as f64
    } else {
        f64::NAN
    }
}

/// Pass 2 of the kernel: the sample standard deviation (n − 1
/// normalization) around `mean`, which must be [`mean`]`(xs)`. The
/// corrected two-pass variance: `D = Σ(x−m)`, `Q = Σ(x−m)²` in the fixed
/// order and `m2 = max(Q − D²/n, 0)` — `D` cancels the rounding error left
/// in `m`, so a large offset with a tiny spread stays exact. NaN when the
/// mean of a non-empty sample is, else 0 for n < 2.
pub fn std_dev(xs: &[f64], mean: f64) -> f64 {
    let n = xs.len() as f64;
    // A non-empty sample has a NaN mean only when its sum is not finite.
    if mean.is_nan() && !xs.is_empty() {
        f64::NAN
    } else if xs.len() < 2 {
        0.0
    } else {
        let d = fixed_order_sum(xs, |x| x - mean);
        let q = fixed_order_sum(xs, |x| (x - mean) * (x - mean));
        ((q - d * d / n).max(0.0) / (n - 1.0)).sqrt()
    }
}

/// An immutable summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of observations.
    pub count: u64,
    /// Sample mean ([`mean`]).
    pub mean: f64,
    /// Sample standard deviation (n − 1 normalization): NaN when the mean
    /// of a non-empty sample is, else 0 for n < 2.
    pub std_dev: f64,
    /// Minimum (NaN when empty).
    pub min: f64,
    /// Maximum (NaN when empty).
    pub max: f64,
}

impl SampleStats {
    /// Summarize `xs`: pass 1 is [`mean`], pass 2 is [`std_dev`] around
    /// it, plus the extremes.
    pub fn of(xs: &[f64]) -> SampleStats {
        let mean = mean(xs);
        let std_dev = std_dev(xs, mean);
        let (min, max) = if xs.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (
                extreme(xs, f64::INFINITY, f64::min),
                extreme(xs, f64::NEG_INFINITY, f64::max),
            )
        };
        SampleStats {
            count: xs.len() as u64,
            mean,
            std_dev,
            min,
            max,
        }
    }

    /// Whether the normal-approximation CI half-width at `z` (1.96 ≈ 95%),
    /// `z · std_dev / √count`, is at or below `epsilon` on at least two
    /// samples — the engine's "first accurate guess" criterion for
    /// progressive refinement ([`converged`]).
    pub fn converged(&self, epsilon: f64, z: f64) -> bool {
        converged(self.count, self.std_dev, epsilon, z)
    }
}

/// [`SampleStats::converged`] on a sample's count and standard deviation
/// alone — all the criterion reads — so stored moments
/// ([`ColumnMoments`]) decide it without the samples.
pub fn converged(count: u64, std_dev: f64, epsilon: f64, z: f64) -> bool {
    count >= 2 && z * std_dev / (count as f64).sqrt() <= epsilon
}

/// Every column's `(mean, std_dev)` over one set of per-column samples, as
/// the kernel computes them — [`mean`], then [`std_dev`] around it — so
/// they are the bits [`SampleSet::expect`] and
/// [`SampleSet::expect_std_dev`] return for those samples. A mapped basis
/// record keeps them, and a reader that needs only moments never needs
/// the record's samples.
///
/// [`SampleSet::expect`]: crate::SampleSet::expect
/// [`SampleSet::expect_std_dev`]: crate::SampleSet::expect_std_dev
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMoments {
    /// Column names, in the order of `values`.
    columns: Arc<[String]>,
    /// `(mean, std_dev)` per column.
    values: Arc<[(f64, f64)]>,
}

impl ColumnMoments {
    /// The moments of every column of `samples`, in column-name order.
    pub fn of(samples: &ColumnSamples) -> Self {
        let mut names: Vec<String> = samples.keys().cloned().collect();
        names.sort_unstable();
        Self::over(names.into(), samples)
    }

    /// [`ColumnMoments::of`], naming the columns by the shared `columns`
    /// when they are exactly the columns of `samples` — an engine's output
    /// columns, shared by every record it publishes — so the moments
    /// allocate no names of their own.
    pub fn named(columns: &Arc<[String]>, samples: &ColumnSamples) -> Self {
        let exact =
            columns.len() == samples.len() && columns.iter().all(|c| samples.contains_key(c));
        if exact {
            Self::over(Arc::clone(columns), samples)
        } else {
            Self::of(samples)
        }
    }

    /// The moments of `columns`, every one of which `samples` holds.
    fn over(columns: Arc<[String]>, samples: &ColumnSamples) -> Self {
        let values = (columns.iter())
            .map(|c| {
                let xs = &samples[c];
                let m = mean(xs);
                (m, std_dev(xs, m))
            })
            .collect();
        ColumnMoments { columns, values }
    }

    /// Moments read back as stored: `values[i]` is `columns[i]`'s.
    pub(crate) fn from_parts(columns: Arc<[String]>, values: Vec<(f64, f64)>) -> Self {
        debug_assert_eq!(columns.len(), values.len());
        ColumnMoments {
            columns,
            values: values.into(),
        }
    }

    /// The columns these moments cover.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// `(mean, std_dev)` per column, in [`ColumnMoments::columns`] order.
    pub(crate) fn values(&self) -> &[(f64, f64)] {
        &self.values
    }

    /// Whether `self` and `other` hold bit-equal moments of the same
    /// columns, in whatever order each keeps them.
    pub(crate) fn bits_eq(&self, other: &ColumnMoments) -> bool {
        let bits = |(mean, std_dev): (f64, f64)| (mean.to_bits(), std_dev.to_bits());
        if Arc::ptr_eq(&self.columns, &other.columns) {
            return (self.values.iter().zip(other.values.iter()))
                .all(|(a, b)| bits(*a) == bits(*b));
        }
        self.columns.len() == other.columns.len()
            && (self.columns.iter().zip(self.values.iter()))
                .all(|(column, v)| other.get(column).is_some_and(|w| bits(*v) == bits(w)))
    }

    /// `(mean, std_dev)` of `column`, or `None` if it is not covered.
    pub fn get(&self, column: &str) -> Option<(f64, f64)> {
        let i = self.columns.iter().position(|c| c == column)?;
        Some(self.values[i])
    }
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
    fn moments_match_naive_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 1000) as f64 / 10.0)
            .collect();
        let s = SampleStats::of(&xs);
        let (m, v) = naive_stats(&xs);
        assert!((s.mean - m).abs() < 1e-10);
        assert!((s.std_dev * s.std_dev - v).abs() < 1e-9);
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 99.9);
    }

    #[test]
    fn moments_are_stable_for_large_offsets() {
        // Classic catastrophic-cancellation probe: huge mean, tiny variance.
        let xs: Vec<f64> = (0..100).map(|i| 1e9 + (i % 2) as f64).collect();
        let s = SampleStats::of(&xs);
        assert_eq!(s.mean, 1e9 + 0.5);
        let v = s.std_dev * s.std_dev;
        assert!((v - 0.25252525252525254).abs() < 1e-12, "v={v}");
    }

    #[test]
    fn moments_of_empty_and_singleton() {
        let s = SampleStats::of(&[]);
        assert!(s.mean.is_nan() && s.min.is_nan() && s.max.is_nan());
        assert_eq!((s.count, s.std_dev), (0, 0.0));
        assert!(!s.converged(1.0, 1.96));

        let s = SampleStats::of(&[5.0]);
        assert_eq!((s.mean, s.std_dev, s.min, s.max), (5.0, 0.0, 5.0, 5.0));
        assert!(!s.converged(1.0, 1.96), "one sample never converges");
        assert!(SampleStats::of(&[f64::NAN]).std_dev.is_nan());
    }

    #[test]
    fn convergence_criterion_tightens_with_n() {
        let coin = |n: usize| -> Vec<f64> { (0..n).map(|i| (i % 2) as f64).collect() };
        assert!(
            !SampleStats::of(&coin(10)).converged(0.01, 1.96),
            "10 samples of a coin flip are not accurate to 0.01"
        );
        assert!(SampleStats::of(&coin(100_010)).converged(0.01, 1.96));
    }

    #[test]
    fn column_moments_are_the_kernels_bits() {
        let xs: Vec<f64> = (0..403).map(|i| ((i * 7919) % 997) as f64 / 7.0).collect();
        let ys: Vec<f64> = (0..403).map(|i| (i % 2) as f64).collect();
        let samples = ColumnSamples::from([("x".to_owned(), xs.clone()), ("y".to_owned(), ys)]);
        let shared: Arc<[String]> = vec!["y".to_owned(), "x".to_owned()].into();
        let named = ColumnMoments::named(&shared, &samples);
        assert!(std::ptr::eq(named.columns(), &*shared), "shares the names");
        let sorted = ColumnMoments::of(&samples);
        assert_eq!(sorted.columns(), ["x", "y"]);
        let stats = SampleStats::of(&xs);
        for m in [&named, &sorted] {
            let (mean, sd) = m.get("x").unwrap();
            assert_eq!(mean.to_bits(), stats.mean.to_bits());
            assert_eq!(sd.to_bits(), stats.std_dev.to_bits());
            assert_eq!(m.get("y").unwrap().0, 201.0 / 403.0);
            assert_eq!(m.get("z"), None);
        }
        let partial: Arc<[String]> = vec!["x".to_owned()].into();
        assert_eq!(ColumnMoments::named(&partial, &samples), sorted);
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
