//! Fingerprint summary index: cheap, *sound* pre-filters for the
//! correlation match scan.
//!
//! The match scan ([`CorrelationDetector::detect_all`] per candidate
//! source) is the probe phase's remaining O(points × candidates ×
//! fingerprint length) cost once probe evaluation itself is vectorized.
//! Most candidates lose: either no mapping exists at all, or a better
//! (lower-error) source was already found. This module precomputes a
//! [`FingerprintSummary`] per stored column — a handful of moments plus a
//! small bucketed sketch — and derives from two summaries a **lower bound**
//! on the error [`CorrelationDetector::detect`] could possibly report, or a
//! proof that detection must fail outright. A branch-and-bound scan can
//! then skip the entry-by-entry comparison for every candidate whose bound
//! cannot beat the best match found so far.
//!
//! # What is summarized
//!
//! For a fingerprint `x` of length `n`: the length, finiteness, `mean`,
//! `min`, `max`, the centered sum of squares `sxx = Σ(xᵢ−mean)²` (so
//! `‖x−mean‖₂ = √sxx`, the L2 norm of the centered fingerprint), and a
//! *moment-bucketed* sketch of the normalized fingerprint
//! `u = (x−mean)/√sxx`: the index positions `0..n` are split into
//! [`SUMMARY_BUCKETS`] contiguous buckets, and per bucket the zeroth,
//! first and second moments of `u` (count, `Σu`, `Σu²`) are stored.
//!
//! # Soundness argument
//!
//! [`CorrelationDetector::detect`] accepts exactly three mapping shapes,
//! and the bound under-estimates each:
//!
//! * **Identity** (`∀i |xᵢ−yᵢ| ≤ tol`, error 0). Necessary consequences:
//!   `|mean_x−mean_y| ≤ tol`, `|min_x−min_y| ≤ tol`, `|max_x−max_y| ≤ tol`
//!   (the extremum of a pointwise-`tol`-close vector moves by at most
//!   `tol`). If all three hold, the bound is 0 — never an over-estimate.
//!   If any fails, identity is *impossible*.
//! * **Offset** (`∀i |(yᵢ−xᵢ)−d₀| ≤ tol` for some `d₀`, error 0). The mean
//!   difference `d = mean_y−mean_x` satisfies `|d−d₀| ≤ tol`, hence
//!   `|(min_y−min_x)−d| ≤ 2·tol` and likewise for max. If those hold the
//!   bound is 0; if not, offset is impossible.
//! * **Affine** (least-squares fit with `r² ≥ min_r2`, error
//!   `residual_std = √(rss/dof)` where `rss = syy·(1−r²)`). The Pearson
//!   `r` is the inner product `u·v` of the two normalized fingerprints.
//!   Splitting each bucket `b`'s values into its bucket mean `s_b/m_b`
//!   plus a residual `ρ` (which sums to zero within the bucket):
//!
//!   ```text
//!   u·v = Σ_b [ s_b·t_b/m_b  +  ρ_u,b · ρ_v,b ]
//!   |ρ_u,b · ρ_v,b| ≤ ‖ρ_u,b‖·‖ρ_v,b‖   (Cauchy–Schwarz)
//!   ‖ρ_u,b‖² = q_u,b − s_u,b²/m_b        (bucket second moment)
//!   ```
//!
//!   which brackets `r` in an interval; `R = min(1, max(|lo|,|hi|))` is an
//!   upper bound on `|r|`. Then `r² ≤ R²`, so if `R² < min_r2` the affine
//!   fit must be rejected, and otherwise the accepted fit's error is at
//!   least `√(syy·(1−R²)/dof)` — the reported bound.
//!
//! If identity and offset are impossible and the affine path is impossible
//! too (constant source, or `R² < min_r2`), the candidate **cannot match
//! at all** ([`MatchBound::Infeasible`]) and may be skipped
//! unconditionally. Two guard rails keep the bound conservative under
//! floating point and mismatched configurations: every comparison carries
//! a small relative slack in the safe direction (tolerances inflated,
//! error bounds deflated, `R` inflated), and fingerprints of *different
//! lengths* (the detector would compare a common prefix the full-vector
//! summaries do not describe) fall back to [`MatchBound::Feasible`] with
//! bound 0 — never pruned, always fully checked.
//!
//! `tests/match_index.rs` enforces all of this differentially: index-on
//! and index-off scans must agree bit-for-bit on every outcome, sample and
//! chosen source, across the bundled scenarios and a seeded
//! random-population property loop.

use std::collections::HashMap;

use crate::correlate::CorrelationDetector;
use crate::fingerprint::Fingerprint;

/// Number of contiguous index buckets in the normalized-fingerprint
/// sketch. More buckets tighten the `|r|` bound (at `n` buckets it is
/// exact) but cost proportionally more per candidate; 8 keeps the bound
/// two passes of 8 multiply-adds for the default 32-entry fingerprint.
pub const SUMMARY_BUCKETS: usize = 8;

/// Relative slack applied to every bound comparison, in the conservative
/// direction: the summaries are computed in floating point, and a bound
/// that is sharp in real arithmetic could otherwise prune a candidate the
/// exact scan would have kept.
const SLACK: f64 = 1e-9;

/// Per-bucket moments of the normalized fingerprint: count, `Σu`, `Σu²`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BucketMoments {
    count: usize,
    sum: f64,
    sum_sq: f64,
}

/// Precomputed summary statistics of one fingerprint column, sufficient to
/// lower-bound its match error against any probe summary (see the module
/// docs for the math).
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintSummary {
    len: usize,
    finite: bool,
    mean: f64,
    min: f64,
    max: f64,
    /// Centered sum of squares `Σ(xᵢ−mean)²` — the squared L2 norm of the
    /// centered fingerprint.
    sxx: f64,
    /// Moment buckets of the normalized fingerprint; empty when the
    /// fingerprint is constant (`sxx == 0`), non-finite, or shorter than 2.
    buckets: Vec<BucketMoments>,
}

/// Outcome of bounding one candidate against one probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchBound {
    /// Detection must fail — the candidate can be skipped unconditionally.
    Infeasible,
    /// Detection may succeed; if it does, its total error is at least this.
    Feasible(f64),
}

impl FingerprintSummary {
    /// Summarize one fingerprint.
    pub fn of(fp: &Fingerprint) -> Self {
        let values = fp.values();
        let len = values.len();
        let finite = fp.is_finite();
        if len == 0 || !finite {
            return FingerprintSummary {
                len,
                finite,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                sxx: 0.0,
                buckets: Vec::new(),
            };
        }
        let mean = values.iter().sum::<f64>() / len as f64;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut sxx = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            let d = v - mean;
            sxx += d * d;
        }
        let buckets = if len >= 2 && sxx > 0.0 {
            let norm = sxx.sqrt();
            let chunk = len.div_ceil(SUMMARY_BUCKETS);
            values
                .chunks(chunk)
                .map(|slice| {
                    let mut sum = 0.0;
                    let mut sum_sq = 0.0;
                    for &v in slice {
                        let u = (v - mean) / norm;
                        sum += u;
                        sum_sq += u * u;
                    }
                    BucketMoments {
                        count: slice.len(),
                        sum,
                        sum_sq,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        FingerprintSummary {
            len,
            finite,
            mean,
            min,
            max,
            sxx,
            buckets,
        }
    }

    /// Fingerprint length this summary describes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the summary of an empty fingerprint.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lower-bound the error of mapping `self` (the stored source column)
    /// onto `probe`, or prove no mapping can be detected. Sound with
    /// respect to [`CorrelationDetector::detect`]: whenever detection
    /// succeeds with error `e`, `bound(...)` is `Feasible(b)` with
    /// `b ≤ e`.
    pub fn bound(&self, probe: &FingerprintSummary, detector: &CorrelationDetector) -> MatchBound {
        let n = self.len.min(probe.len);
        if n < 2 {
            // detect() rejects common prefixes shorter than 2 outright.
            return MatchBound::Infeasible;
        }
        if self.len != probe.len {
            // The detector compares the common *prefix*; full-vector
            // summaries say nothing sound about it. Never prune.
            return MatchBound::Feasible(0.0);
        }
        if !self.finite || !probe.finite {
            // Equal lengths: the compared prefix is the whole vector, and a
            // non-finite entry makes detect() return None.
            return MatchBound::Infeasible;
        }
        let scale = self
            .min
            .abs()
            .max(self.max.abs())
            .max(probe.min.abs())
            .max(probe.max.abs())
            .max(1.0);
        let tol = detector.tolerance + SLACK * scale;
        // Identity: necessary conditions on mean/min/max.
        let d_mean = probe.mean - self.mean;
        if d_mean.abs() <= tol
            && (probe.min - self.min).abs() <= tol
            && (probe.max - self.max).abs() <= tol
        {
            return MatchBound::Feasible(0.0);
        }
        // Constant offset: extrema must track the mean difference.
        if ((probe.min - self.min) - d_mean).abs() <= 2.0 * tol
            && ((probe.max - self.max) - d_mean).abs() <= 2.0 * tol
        {
            return MatchBound::Feasible(0.0);
        }
        // Only the affine path is left.
        if probe.sxx <= 0.0 {
            // Constant probe against a varying source: the least-squares
            // fit is exact (zero slope, r² = 1 by convention, error 0).
            return MatchBound::Feasible(0.0);
        }
        if self.sxx <= 0.0 {
            // Constant source cannot predict a varying probe; fit_affine
            // rejects it, and identity/offset were ruled out above.
            return MatchBound::Infeasible;
        }
        let r_abs = r_upper_bound(&self.buckets, &probe.buckets);
        let r2 = (r_abs * r_abs).min(1.0);
        if r2 < detector.min_r2 - SLACK {
            return MatchBound::Infeasible;
        }
        let dof = (n - 2).max(1) as f64;
        let err = (probe.sxx * (1.0 - r2) / dof).sqrt();
        MatchBound::Feasible(err * (1.0 - SLACK))
    }
}

/// Upper bound on `|r| = |u·v|` from the two bucketed moment sketches (see
/// the module docs); the sketches describe equal-length fingerprints, so
/// their buckets align.
fn r_upper_bound(a: &[BucketMoments], b: &[BucketMoments]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sketches of equal-length fingerprints");
    let mut lo = 0.0;
    let mut hi = 0.0;
    for (ba, bb) in a.iter().zip(b) {
        let m = ba.count as f64;
        let mean_term = ba.sum * bb.sum / m;
        let res_a = (ba.sum_sq - ba.sum * ba.sum / m).max(0.0).sqrt();
        let res_b = (bb.sum_sq - bb.sum * bb.sum / m).max(0.0).sqrt();
        let cross = res_a * res_b;
        lo += mean_term - cross;
        hi += mean_term + cross;
    }
    (lo.abs().max(hi.abs()) * (1.0 + SLACK)).min(1.0)
}

/// Per-column summaries of one stored fingerprint map, name-sorted — the
/// per-record half of index maintenance, built once at publish. A scan
/// resolves its column list against the table once per candidate
/// ([`SummaryTable::resolve`]) and from then on bounds by position
/// ([`bound_all`]): no string is hashed or compared per (candidate, probe)
/// pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummaryTable {
    columns: Vec<(String, FingerprintSummary)>,
}

impl SummaryTable {
    /// Summarize every column of a fingerprint map.
    pub fn of(fingerprints: &HashMap<String, Fingerprint>) -> Self {
        let mut columns: Vec<(String, FingerprintSummary)> = fingerprints
            .iter()
            .map(|(name, fp)| (name.clone(), FingerprintSummary::of(fp)))
            .collect();
        columns.sort_by(|a, b| a.0.cmp(&b.0));
        SummaryTable { columns }
    }

    /// Append the table position of each of `columns` to `slots`. Returns
    /// `false` — appending nothing — when any column is missing:
    /// [`CorrelationDetector::detect_all`] returns `None` for such a
    /// source against every probe, so the record is no candidate at all.
    pub fn resolve(&self, columns: &[String], slots: &mut Vec<u32>) -> bool {
        let start = slots.len();
        for col in columns {
            match self.columns.binary_search_by(|(name, _)| name.cmp(col)) {
                Ok(pos) => slots.push(pos as u32),
                Err(_) => {
                    slots.truncate(start);
                    return false;
                }
            }
        }
        true
    }
}

/// Summarize a probe's fingerprints in the order of `columns` (slot `i`
/// is `columns[i]`); `None` when the probe lacks one — `detect_all` then
/// fails against every source.
pub fn summarize_probe(
    fingerprints: &HashMap<String, Fingerprint>,
    columns: &[String],
) -> Option<Vec<FingerprintSummary>> {
    columns
        .iter()
        .map(|col| fingerprints.get(col).map(FingerprintSummary::of))
        .collect()
}

/// Bound a whole candidate against a whole probe — the index-side
/// counterpart of [`CorrelationDetector::detect_all`]. `slots[i]` is the
/// position of the scan's `i`-th column in `source`
/// ([`SummaryTable::resolve`]) and `probe[i]` its probe-side summary
/// ([`summarize_probe`]). Any individually infeasible column sinks the
/// candidate, otherwise per-column bounds add (as the detector's
/// per-column errors do).
pub fn bound_all(
    source: &SummaryTable,
    slots: &[u32],
    probe: &[FingerprintSummary],
    detector: &CorrelationDetector,
) -> MatchBound {
    let mut total = 0.0;
    for (&slot, p) in slots.iter().zip(probe) {
        match source.columns[slot as usize].1.bound(p, detector) {
            MatchBound::Infeasible => return MatchBound::Infeasible,
            MatchBound::Feasible(err) => total += err,
        }
    }
    MatchBound::Feasible(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(values: &[f64]) -> Fingerprint {
        Fingerprint::from_values(values.to_vec())
    }

    fn det() -> CorrelationDetector {
        CorrelationDetector::default()
    }

    /// The bound is sound iff: detect succeeds ⇒ bound is Feasible(b) with
    /// b ≤ error. Checked directly for a spread of relationships.
    #[test]
    fn bound_never_exceeds_detected_error() {
        let base: Vec<f64> = (0..32).map(|i| ((i * 37 % 97) as f64) - 40.0).collect();
        let related: Vec<Vec<f64>> = vec![
            base.clone(),
            base.iter().map(|v| v + 13.0).collect(),
            base.iter().map(|v| 2.5 * v - 4.0).collect(),
            // near-affine with deterministic perturbation
            base.iter()
                .enumerate()
                .map(|(i, v)| 1.5 * v + if i % 2 == 0 { 0.4 } else { -0.4 })
                .collect(),
        ];
        let source = FingerprintSummary::of(&fp(&base));
        for values in &related {
            let target = fp(values);
            let probe = FingerprintSummary::of(&target);
            let detected = det().detect(&fp(&base), &target);
            match source.bound(&probe, &det()) {
                MatchBound::Infeasible => {
                    assert!(detected.is_none(), "infeasible bound but detect matched");
                }
                MatchBound::Feasible(b) => {
                    if let Some(mapping) = detected {
                        assert!(
                            b <= mapping.error_std() + 1e-12,
                            "bound {b} exceeds error {}",
                            mapping.error_std()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unrelated_noise_is_infeasible() {
        // A sign-alternating source vs pseudo-random noise: the bucketed
        // |r| bound must fall below the detector's min_r2.
        let a: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let b: Vec<f64> = (0..32)
            .map(|i| ((i * i * 31 % 101) as f64) / 10.0)
            .collect();
        let sa = FingerprintSummary::of(&fp(&a));
        let sb = FingerprintSummary::of(&fp(&b));
        assert_eq!(sa.bound(&sb, &det()), MatchBound::Infeasible);
        assert_eq!(det().detect(&fp(&a), &fp(&b)), None, "detect agrees");
    }

    #[test]
    fn identity_and_offset_bound_to_zero() {
        let base: Vec<f64> = (0..16).map(|i| (i * i) as f64).collect();
        let shifted: Vec<f64> = base.iter().map(|v| v + 5.0).collect();
        let s = FingerprintSummary::of(&fp(&base));
        assert_eq!(s.bound(&s, &det()), MatchBound::Feasible(0.0));
        assert_eq!(
            s.bound(&FingerprintSummary::of(&fp(&shifted)), &det()),
            MatchBound::Feasible(0.0)
        );
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        let varying = FingerprintSummary::of(&fp(&[1.0, 2.0, 3.0, 4.0]));
        let constant = FingerprintSummary::of(&fp(&[7.0, 7.0, 7.0, 7.0]));
        let nan = FingerprintSummary::of(&fp(&[1.0, f64::NAN, 3.0, 4.0]));
        let short = FingerprintSummary::of(&fp(&[1.0]));
        let longer = FingerprintSummary::of(&fp(&[1.0, 2.0, 3.0, 4.0, 5.0]));
        // Constant source cannot affine-predict a varying probe.
        assert_eq!(constant.bound(&varying, &det()), MatchBound::Infeasible);
        // Constant probe is a valid (exact) fit from a varying source.
        assert_eq!(varying.bound(&constant, &det()), MatchBound::Feasible(0.0));
        // Non-finite entries make detection fail.
        assert_eq!(varying.bound(&nan, &det()), MatchBound::Infeasible);
        assert_eq!(nan.bound(&varying, &det()), MatchBound::Infeasible);
        // Too-short prefixes cannot match.
        assert_eq!(varying.bound(&short, &det()), MatchBound::Infeasible);
        assert!(!short.is_empty() && short.len() == 1);
        // Length mismatch: never pruned (the detector compares a prefix).
        assert_eq!(varying.bound(&longer, &det()), MatchBound::Feasible(0.0));
        assert_eq!(longer.bound(&varying, &det()), MatchBound::Feasible(0.0));
    }

    #[test]
    fn bound_all_requires_every_column() {
        let base: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let noise: Vec<f64> = (0..16).map(|i| (i * 53 % 17) as f64).collect();
        let source = SummaryTable::of(&HashMap::from([
            ("a".to_owned(), fp(&base)),
            ("b".to_owned(), fp(&base)),
        ]));
        let probe = HashMap::from([("a".to_owned(), fp(&base)), ("b".to_owned(), fp(&noise))]);
        let bound = |cols: &[String]| {
            let mut slots = Vec::new();
            if !source.resolve(cols, &mut slots) {
                assert!(slots.is_empty(), "a failed resolve appends nothing");
                return None;
            }
            Some(bound_all(
                &source,
                &slots,
                &summarize_probe(&probe, cols)?,
                &det(),
            ))
        };
        assert_eq!(bound(&["a".to_owned()]), Some(MatchBound::Feasible(0.0)));
        // Slots follow the scan's column order, not the table's.
        assert_eq!(
            bound(&["b".to_owned(), "a".to_owned()]),
            Some(MatchBound::Infeasible),
            "one unmatchable column sinks the candidate"
        );
        assert_eq!(
            bound(&["a".to_owned(), "zz".to_owned()]),
            None,
            "a missing column leaves nothing to bound"
        );
        assert_eq!(summarize_probe(&probe, &["zz".to_owned()]), None);
    }

    #[test]
    fn exhaustive_bucket_bound_is_exact_for_full_resolution() {
        // With one value per bucket the residuals vanish and the bound
        // equals |r| exactly: a perfectly correlated pair must bound to 1.
        let base: Vec<f64> = (0..SUMMARY_BUCKETS).map(|i| i as f64).collect();
        let scaled: Vec<f64> = base.iter().map(|v| 3.0 * v + 1.0).collect();
        let a = FingerprintSummary::of(&fp(&base));
        let b = FingerprintSummary::of(&fp(&scaled));
        match a.bound(&b, &det()) {
            MatchBound::Feasible(err) => assert!(err <= 1e-9, "exact affine bounds to ~0: {err}"),
            other => panic!("expected feasible, got {other:?}"),
        }
    }
}
