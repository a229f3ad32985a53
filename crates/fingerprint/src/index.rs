//! Fingerprint summary index: cheap, *sound* pre-filters for the
//! correlation match scan — an exact-match key window in front of a
//! branch-and-bound scan over summary bounds.
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
//! # The exact-match window
//!
//! Most probes of a sweep have a source with total error 0 (on Figure 2,
//! 29,103 of 31,005 hits), and such a source wins outright: nothing beats
//! 0, and ties go to the earliest stamp. So a scan first looks for the
//! earliest zero-error source among the few whose *key* lies near the
//! probe's, and runs the branch-and-bound scan only when there is none.
//! The key of a fingerprint is its normalized centred first lane
//! `u₀ = (x₀−mean)/√sxx` ([`ExactKey`]). For one probe column `y` (length
//! `n`, centred norm `√syy`, key `k`) the window is
//! `[k − w, k + w] ∪ [−k − w, −k + w]` ([`ExactWindow`]) with half-width
//!
//! ```text
//! w = 4·tol'·√n/√syy + r_y + r_x
//! tol' = tolerance·(1 + SLACK) + SLACK·max(scale_y, scale_x)
//! r = κ·(1 + ρ),  ρ = max(|min|, |max|)/√sxx,  κ = (n + 4)·2⁻⁴⁹
//! ```
//!
//! where `scale = max(|min|, |max|, 1)`, and `r_x`, `scale_x` belong to
//! the source `x`. The claim: whenever [`CorrelationDetector::detect`]
//! maps `x` onto `y` at error 0, `x`'s key lies in that window. Write
//! `p`, `q` for the centred `y`, `x` in real arithmetic and `u = 2⁻⁵³`
//! for the unit roundoff. Two facts carry every case:
//!
//! * for non-zero vectors, `|p₀/‖p‖ − q₀/‖q‖| ≤ ‖p/‖p‖ − q/‖q‖‖ ≤
//!   ‖p−q‖/‖p‖ + |‖q‖−‖p‖|/‖p‖ ≤ 2‖p−q‖/‖p‖`;
//! * a computed key is within `(n+3)·u·(1+ρ) + n³u²ρ²` of the real one
//!   (the mean is off by at most `n·u·max|xᵢ|`, the centred lane by
//!   `(n+2)·u·max|xᵢ|`, and `√sxx` relatively by `(n+4)·u/2 + n³u²ρ²/2`,
//!   the last term from centring at a rounded mean); under the range
//!   condition below that is at most `(n+4)·u·(1+ρ)`.
//!
//! Error 0 arises three ways:
//!
//! * **Identity / Offset.** The detector accepted `|fl(fl(yᵢ−xᵢ) − d₀)| ≤
//!   tolerance` on every lane (`d₀ = 0` for identity), so in real
//!   arithmetic `|(yᵢ−xᵢ) − d₀| ≤ tolerance·(1+2u) + u·(|xᵢ|+|yᵢ|) ≤
//!   tol'`. Then `|pᵢ−qᵢ| ≤ 2·tol'` and `‖p−q‖ ≤ 2·tol'·√n`, so the real
//!   keys differ by at most `4·tol'·√n/√syy`. (When `q = 0` the same
//!   lanes give `√syy ≤ 2·tol'·√n`, so `w ≥ 2` and the column cannot
//!   filter — below.)
//! * **Zero-residual `Affine`, either sign.** `rss == 0` means every lane
//!   satisfies `yᵢ = fl(fl(s·xᵢ) + o) + eᵢ` with `eᵢ²` underflowing
//!   (`|eᵢ| < 2⁻⁵⁰⁰ ≤ tol'`), so `yᵢ = s·xᵢ + o + δᵢ` with
//!   `|δᵢ| ≤ 2u·(|s|·max|x| + max|y|) + |eᵢ|`. Centring is a projection,
//!   so `‖p − s·q‖ ≤ √n·max|δᵢ|`; with `|s|·‖q‖ ≤ ‖p‖ + ‖p − s·q‖` and
//!   `2u·√n·ρ_x ≤ ½` this gives `‖p − s·q‖ ≤ 4u·√n·(ρ_x·√syy + max|y|) +
//!   2√n·max|eᵢ|`, and by the first fact `|u₀(y) − sign(s)·u₀(x)| ≤
//!   8u·√n·(ρ_x + ρ_y) + 4·tol'·√n/√syy`. The `±k` query covers the sign.
//!   (`s = 0` makes `y` constant; see below.)
//! * Adding both keys' rounding, `(n+4)·u·(2 + ρ_x + ρ_y) +
//!   8u·√n·(ρ_x + ρ_y) ≤ 16·(n+4)·u·(2 + ρ_x + ρ_y) = r_x + r_y`, with
//!   room left for the rounding of `w` and of the comparison itself.
//!
//! **Range.** The bounds above need `n³·ρ ≤ 2⁴⁰` (so `n³u²ρ² ≤ u·ρ·2⁻¹³`
//! and `2u·√n·ρ ≤ 2⁻¹²`). A summary past it — or with a non-finite mean,
//! `sxx` or key — gets `r = ∞`. An exactly constant source (`sxx == 0`)
//! gets `r = 0`: `fit_affine` rejects it, and an identity or offset onto
//! it forces `w ≥ 2`.
//!
//! **The snapshot's part.** `w` grows with the source's `scale` and `r`,
//! so a window computed against the componentwise maximum over a
//! snapshot's sources ([`ExactKey::widest`]) contains each source's own:
//! that maximum sizes the binary search, and each source's own values
//! ([`ExactWindow::admits`]) filter what it returns.
//!
//! **Fallback.** A probe goes straight to the branch-and-bound scan when
//! it lacks a scanned column, when any fingerprint length — the probe's or
//! a candidate's — differs from the snapshot's (the detector compares a
//! prefix the keys do not describe), or when no probe column is varying
//! with `w < 1` (keys lie in `[−1, 1]`, so such a window holds every
//! source). A constant probe column never filters: `fit_affine` fits
//! *any* varying source to it at error 0, wherever that source's key is.
//! A probe column that is non-finite matches nothing; the detector then
//! fails every window candidate, and the scan falls through too.
//!
//! `tests/match_index.rs` enforces all of this differentially: index-on
//! and index-off scans must agree bit-for-bit on every outcome, sample and
//! chosen source, across the bundled scenarios and a seeded
//! random-population property loop; a long run of 2,000 populations of
//! offset, scaled, constant-column and noise sources is `#[ignore]`d in
//! tier-1 and runs nightly.

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
    /// The normalized centred first lane `u₀ = (x₀−mean)/√sxx`: the key of
    /// the exact-match window (see the module docs); 0 when the
    /// fingerprint is constant, non-finite, or shorter than 2.
    u0: f64,
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
    /// Summarize one fingerprint: its [`FingerprintSummary::key_of`]
    /// part and the bucket sketch [`FingerprintSummary::bound`] reads.
    pub fn of(fp: &Fingerprint) -> Self {
        let mut summary = FingerprintSummary::key_of(fp);
        let values = fp.values();
        let (len, mean) = (summary.len, summary.mean);
        if summary.finite && len >= 2 && summary.sxx > 0.0 {
            let norm = summary.sxx.sqrt();
            let chunk = len.div_ceil(SUMMARY_BUCKETS);
            summary.buckets = values
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
                .collect();
        }
        summary
    }

    /// The part of [`FingerprintSummary::of`] the exact-match window
    /// reads — length, mean, extremes, `sxx` and the key `u₀` — without
    /// the bucket sketch: enough for [`FingerprintSummary::exact_key`] and
    /// [`ExactWindow::of`], not for [`FingerprintSummary::bound`]. Most
    /// probes are answered by their window, so a scan builds the sketch
    /// only for those that fall through to the bound.
    pub fn key_of(fp: &Fingerprint) -> Self {
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
                u0: 0.0,
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
        let u0 = if len >= 2 && sxx > 0.0 {
            (values[0] - mean) / sxx.sqrt()
        } else {
            0.0
        };
        FingerprintSummary {
            len,
            finite,
            mean,
            min,
            max,
            sxx,
            u0,
            buckets: Vec::new(),
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

/// Relative rounding unit `u = 2⁻⁵³` of an `f64` operation under
/// round-to-nearest.
const UNIT_ROUNDOFF: f64 = 1.0 / 9_007_199_254_740_992.0;

/// Past this `n³·ρ` (with `ρ = max|xᵢ| / √sxx`) the window's rounding
/// analysis no longer holds, and a summary gets an unbounded rounding
/// part (see the module docs).
const RHO_CAP: f64 = 1_099_511_627_776.0; // 2⁴⁰

/// What the exact-match window reads of one summary
/// ([`FingerprintSummary::exact_key`]): its key and the two parts of a
/// window's half-width that belong to it (see the module docs for the
/// proof they add up to a sound width).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactKey {
    /// `u₀ = (x₀−mean)/√sxx`; 0 for a constant fingerprint.
    pub key: f64,
    /// `max(|min|, |max|, 1)`: the magnitude the detector's tolerance
    /// checks round at.
    pub scale: f64,
    /// `κ·(1 + ρ)` with `κ = (n+4)·2⁻⁴⁹` and `ρ = max(|min|, |max|)/√sxx`:
    /// how far rounding can move this key, and the affine rounding it
    /// brings; 0 for a constant fingerprint, `∞` past the analysis' range.
    pub rounding: f64,
}

impl ExactKey {
    /// The componentwise maximum of two source parts (its `key` is 0): a
    /// window as wide as that of either.
    pub fn widest(self, other: ExactKey) -> ExactKey {
        ExactKey {
            key: 0.0,
            scale: self.scale.max(other.scale),
            rounding: self.rounding.max(other.rounding),
        }
    }
}

impl FingerprintSummary {
    /// The exact-match key of this fingerprint, or `None` when detection
    /// can never succeed on it at its full length (non-finite, or shorter
    /// than 2): such a source is never an exact match.
    pub fn exact_key(&self) -> Option<ExactKey> {
        if !self.finite || self.len < 2 {
            return None;
        }
        let magnitude = self.min.abs().max(self.max.abs());
        let rounding = if self.sxx == 0.0 {
            // Exactly constant: only identity/offset can match it, and
            // every probe those accept has a window of width ≥ 1.
            0.0
        } else {
            let n = self.len as f64;
            let rho = magnitude / self.sxx.sqrt();
            let in_range = self.mean.is_finite()
                && self.sxx.is_finite()
                && self.u0.is_finite()
                && n * n * n * rho <= RHO_CAP;
            if in_range {
                (n + 4.0) * 16.0 * UNIT_ROUNDOFF * (1.0 + rho)
            } else {
                f64::INFINITY
            }
        };
        Some(ExactKey {
            key: self.u0,
            scale: magnitude.max(1.0),
            rounding,
        })
    }
}

/// One varying probe column's exact-match window: around its key `k`,
/// `[k − w, k + w] ∪ [−k − w, −k + w]` holds the key of every source
/// column [`CorrelationDetector::detect`] maps onto it at error 0, where
/// the half-width `w` ([`ExactWindow::half_width`]) depends on the source
/// only through its [`ExactKey`]'s `scale` and `rounding` (see the module
/// docs for the proof).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactWindow {
    probe: ExactKey,
    /// `4·√n/√syy`: how far a lane-wise tolerance of 1 can move the key.
    spread: f64,
    tolerance: f64,
}

impl ExactWindow {
    /// The window of one probe column, or `None` when the column cannot
    /// filter: it is constant (every varying source fits it at error 0),
    /// non-finite, or shorter than 2.
    pub fn of(probe: &FingerprintSummary, detector: &CorrelationDetector) -> Option<Self> {
        let key = probe.exact_key()?;
        if probe.sxx <= 0.0 {
            return None;
        }
        Some(ExactWindow {
            probe: key,
            spread: 4.0 * (probe.len as f64).sqrt() / probe.sxx.sqrt(),
            tolerance: detector.tolerance,
        })
    }

    /// The probe column's key `k`.
    pub fn key(&self) -> f64 {
        self.probe.key
    }

    /// The half-width `w = 4·tol'·√n/√syy + rounding_probe +
    /// rounding_source`, with `tol' = tolerance·(1+SLACK) +
    /// SLACK·max(scale_probe, scale_source)`. Monotone in the source's
    /// `scale` and `rounding`, so the width against
    /// [`ExactKey::widest`] of many sources bounds the width against each.
    pub fn half_width(&self, source: &ExactKey) -> f64 {
        let tol = self.tolerance * (1.0 + SLACK) + SLACK * self.probe.scale.max(source.scale);
        tol * self.spread + self.probe.rounding + source.rounding
    }

    /// Whether `source` could map onto this probe column at error 0: its
    /// key lies within its own half-width of `k` or of `−k`.
    pub fn admits(&self, source: &ExactKey) -> bool {
        let w = self.half_width(source);
        let k = self.probe.key;
        (source.key - k).abs() <= w || (source.key + k).abs() <= w
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

    /// The summary at table position `slot` ([`SummaryTable::resolve`]).
    pub fn summary(&self, slot: u32) -> &FingerprintSummary {
        &self.columns[slot as usize].1
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

/// [`summarize_probe`] without the bucket sketches
/// ([`FingerprintSummary::key_of`]): what a probe's exact-match window
/// reads.
pub fn key_probe(
    fingerprints: &HashMap<String, Fingerprint>,
    columns: &[String],
) -> Option<Vec<FingerprintSummary>> {
    columns
        .iter()
        .map(|col| fingerprints.get(col).map(FingerprintSummary::key_of))
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

    /// The window admits what detection scores 0 — an offset, and an
    /// exact negative slope through `−k` — and only varying, finite probe
    /// columns have one.
    #[test]
    fn exact_windows_admit_zero_error_sources() {
        let base: Vec<f64> = (0..16).map(|i| ((i * 7 % 11) as f64) / 4.0).collect();
        let probe = FingerprintSummary::of(&fp(&base));
        let window = ExactWindow::of(&probe, &det()).expect("a varying probe column");
        let key = |values: Vec<f64>| FingerprintSummary::of(&fp(&values)).exact_key().unwrap();
        let offset = key(base.iter().map(|v| v + 3.0).collect());
        let negated = key(base.iter().map(|v| 1.0 - 2.0 * v).collect());
        let reversed = key(base.iter().rev().copied().collect());
        assert!(window.admits(&offset));
        assert!(window.admits(&negated));
        assert!((negated.key + window.key()).abs() < 1e-12, "keyed at −k");
        assert!(!window.admits(&reversed), "another shape falls outside");
        assert!(window.half_width(&offset.widest(negated)) < 1e-6);

        let constant = FingerprintSummary::of(&fp(&[2.0; 16]));
        assert_eq!(ExactWindow::of(&constant, &det()), None);
        assert_eq!(constant.exact_key().map(|k| k.rounding), Some(0.0));
        let nan = FingerprintSummary::of(&fp(&[1.0, f64::NAN, 3.0]));
        assert_eq!(ExactWindow::of(&nan, &det()), None);
        assert_eq!(nan.exact_key(), None, "a NaN source never matches");
        let short = FingerprintSummary::of(&fp(&[1.0]));
        assert_eq!(short.exact_key(), None);
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
