//! Correlation detection between fingerprints.
//!
//! Detecting that two parameterizations are correlated — and *how* — is the
//! step that turns fingerprints into savings: a confident affine fit means
//! every stored Monte Carlo sample for the source point can be re-mapped to
//! the target point without invoking the VG-Function again.

use std::collections::HashMap;

use prophet_vg::ShortList;

use crate::fingerprint::Fingerprint;
use crate::mapping::Mapping;

/// Pearson correlation coefficient of two equal-length slices.
/// Returns `None` for slices shorter than 2, mismatched lengths, non-finite
/// input, or zero variance on either side.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// A least-squares affine fit `y ≈ scale · x + offset` with diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineFit {
    /// Slope.
    pub scale: f64,
    /// Intercept.
    pub offset: f64,
    /// Coefficient of determination (1 = perfect linear relationship).
    pub r2: f64,
    /// Standard deviation of the fit residuals, in y units. This is the
    /// error bar the engine attaches to mapped estimates.
    pub residual_std: f64,
}

/// Fit `y = scale·x + offset` by ordinary least squares.
/// Returns `None` under the same degeneracies as [`pearson`], except that a
/// zero-variance `y` against a varying `x` is a valid (constant) fit.
pub fn fit_affine(xs: &[f64], ys: &[f64]) -> Option<AffineFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 {
        return None; // constant x cannot predict anything
    }
    let scale = sxy / sxx;
    let offset = my - scale * mx;
    // Residual sum of squares and R².
    let mut rss = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let e = y - (scale * x + offset);
        rss += e * e;
    }
    let r2 = if syy > 0.0 { 1.0 - rss / syy } else { 1.0 };
    let dof = (xs.len() - 2).max(1) as f64;
    Some(AffineFit {
        scale,
        offset,
        r2,
        residual_std: (rss / dof).sqrt(),
    })
}

/// Thresholded detector turning fingerprint pairs into [`Mapping`]s.
///
/// The detector prefers the *simplest* adequate mapping: identity before
/// constant offset before general affine. Simpler mappings are exact under
/// fixed seeds and cheaper to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationDetector {
    /// Minimum R² for an affine mapping to be accepted.
    pub min_r2: f64,
    /// Absolute tolerance when testing identity / constant-offset
    /// relationships.
    pub tolerance: f64,
}

impl Default for CorrelationDetector {
    fn default() -> Self {
        CorrelationDetector {
            min_r2: 0.98,
            tolerance: 1e-9,
        }
    }
}

impl CorrelationDetector {
    /// Batch detection across a whole column set: detect a mapping for
    /// *every* name in `columns` from the `source` fingerprint map onto the
    /// `probe` map. Returns the mappings in `columns` order plus the summed
    /// [`Mapping::error_std`] (the candidate-ranking score a basis store
    /// uses to pick the best source), or `None` as soon as any column lacks
    /// a fingerprint on either side or fails detection.
    ///
    /// This is the unit of work of the batched, source-parallel store probe:
    /// each worker thread scores candidate sources against probe sets with
    /// one `detect_all` call per (candidate, probe) pair. The mappings are
    /// held inline for up to four columns, so a candidate the scan passes
    /// over allocates nothing; the scan names the mappings of the one it
    /// keeps.
    pub fn detect_all(
        &self,
        source: &HashMap<String, Fingerprint>,
        probe: &HashMap<String, Fingerprint>,
        columns: &[String],
    ) -> Option<(ShortList<Mapping, 4>, f64)> {
        let mut mappings = ShortList::with_capacity(Mapping::Identity, columns.len());
        let mut total_err = 0.0;
        for col in columns {
            let mapping = self.detect(source.get(col)?, probe.get(col)?)?;
            total_err += mapping.error_std();
            mappings.push(mapping);
        }
        Some((mappings, total_err))
    }

    /// Detect a mapping from `source` to `target` fingerprints, or `None`
    /// if they are not confidently related.
    pub fn detect(&self, source: &Fingerprint, target: &Fingerprint) -> Option<Mapping> {
        let (xs, ys) = source.common_prefix(target);
        if xs.len() < 2 {
            return None;
        }
        if xs.iter().chain(ys).any(|v| !v.is_finite()) {
            return None;
        }
        // Identity?
        if xs
            .iter()
            .zip(ys)
            .all(|(x, y)| (x - y).abs() <= self.tolerance)
        {
            return Some(Mapping::Identity);
        }
        // Constant offset?
        let d0 = ys[0] - xs[0];
        if xs
            .iter()
            .zip(ys)
            .all(|(x, y)| ((y - x) - d0).abs() <= self.tolerance)
        {
            return Some(Mapping::Offset(d0));
        }
        // General affine.
        let fit = fit_affine(xs, ys)?;
        if fit.r2 >= self.min_r2 {
            Some(Mapping::Affine {
                scale: fit.scale,
                offset: fit.offset,
                residual_std: fit.residual_std,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_and_anti() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &zs).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[3.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None, "zero variance");
        assert_eq!(pearson(&[1.0, f64::NAN], &[2.0, 3.0]), None);
    }

    #[test]
    fn affine_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        let fit = fit_affine(&xs, &ys).unwrap();
        assert!((fit.scale - 3.0).abs() < 1e-12);
        assert!((fit.offset + 7.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert!(fit.residual_std < 1e-9);
    }

    #[test]
    fn affine_fit_reports_noise_in_residuals() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // deterministic "noise" via a fixed pattern with zero mean
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fit = fit_affine(&xs, &ys).unwrap();
        assert!((fit.scale - 2.0).abs() < 1e-3);
        assert!(fit.r2 > 0.999, "strong but not perfect: r2={}", fit.r2);
        assert!(
            (fit.residual_std - 0.5).abs() < 0.01,
            "residual_std={}",
            fit.residual_std
        );
    }

    #[test]
    fn affine_fit_constant_y_is_valid() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        let fit = fit_affine(&xs, &ys).unwrap();
        assert_eq!(fit.scale, 0.0);
        assert_eq!(fit.offset, 5.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    fn affine_fit_constant_x_is_rejected() {
        assert_eq!(fit_affine(&[2.0, 2.0], &[1.0, 5.0]), None);
    }

    #[test]
    fn detector_prefers_simplest_mapping() {
        let det = CorrelationDetector::default();
        let base = Fingerprint::from_values(vec![1.0, 2.0, 3.0, 5.0, 8.0]);

        // identity
        let same = base.clone();
        assert_eq!(det.detect(&base, &same), Some(Mapping::Identity));

        // pure offset
        let shifted = Fingerprint::from_values(base.values().iter().map(|v| v + 4.0).collect());
        assert_eq!(det.detect(&base, &shifted), Some(Mapping::Offset(4.0)));

        // affine
        let scaled =
            Fingerprint::from_values(base.values().iter().map(|v| 2.0 * v + 1.0).collect());
        match det.detect(&base, &scaled) {
            Some(Mapping::Affine { scale, offset, .. }) => {
                assert!((scale - 2.0).abs() < 1e-9);
                assert!((offset - 1.0).abs() < 1e-9);
            }
            other => panic!("expected affine, got {other:?}"),
        }
    }

    #[test]
    fn detect_all_requires_every_column_to_match() {
        let det = CorrelationDetector::default();
        let base = vec![1.0, 2.0, 3.0, 5.0, 8.0];
        let shifted: Vec<f64> = base.iter().map(|v| v + 4.0).collect();
        let noise = vec![0.3, 0.1, 0.4, 0.1, 0.5];
        let source = HashMap::from([
            ("a".to_owned(), Fingerprint::from_values(base.clone())),
            ("b".to_owned(), Fingerprint::from_values(base.clone())),
        ]);
        let probe = HashMap::from([
            ("a".to_owned(), Fingerprint::from_values(shifted)),
            ("b".to_owned(), Fingerprint::from_values(base.clone())),
        ]);
        let cols = ["a".to_owned(), "b".to_owned()];
        let (mappings, err) = det.detect_all(&source, &probe, &cols).expect("both map");
        assert_eq!(&*mappings, &[Mapping::Offset(4.0), Mapping::Identity]);
        assert_eq!(err, 0.0, "identity/offset mappings are exact");

        // One unrelated column sinks the whole candidate.
        let bad_probe = HashMap::from([
            ("a".to_owned(), Fingerprint::from_values(base.clone())),
            ("b".to_owned(), Fingerprint::from_values(noise)),
        ]);
        assert_eq!(det.detect_all(&source, &bad_probe, &cols), None);
        // A column missing from either side is a miss, not a panic.
        let missing = ["a".to_owned(), "zz".to_owned()];
        assert_eq!(det.detect_all(&source, &probe, &missing), None);
    }

    #[test]
    fn detector_rejects_unrelated_fingerprints() {
        let det = CorrelationDetector::default();
        let a = Fingerprint::from_values(vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0]);
        let b = Fingerprint::from_values(vec![0.3, 0.1, 0.4, 0.1, 0.5, 0.9, 0.2, 0.6]);
        assert_eq!(det.detect(&a, &b), None);
    }

    #[test]
    fn detector_rejects_nan_and_short() {
        let det = CorrelationDetector::default();
        let good = Fingerprint::from_values(vec![1.0, 2.0, 3.0]);
        let nan = Fingerprint::from_values(vec![1.0, f64::NAN, 3.0]);
        let short = Fingerprint::from_values(vec![1.0]);
        assert_eq!(det.detect(&good, &nan), None);
        assert_eq!(det.detect(&nan, &good), None);
        assert_eq!(
            det.detect(&good, &short),
            None,
            "common prefix of 1 is too short"
        );
    }
}
