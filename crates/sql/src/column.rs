//! Typed columnar kernels: straight-line loops over `f64` / `i64` / `bool`
//! slices plus the [`NullMask`] they share.
//!
//! This module is the innermost layer of the typed columnar tier
//! ([`crate::columnar`]): every function here takes plain slices and
//! returns plain buffers, with **no boxed-value enum in sight** — the
//! workspace lint (`typed-kernel` rule in `crates/analysis`) enforces
//! that nothing in this file matches on or constructs boxed value
//! columns, so the loops stay branch-free on data representation and the
//! stable compiler auto-vectorizes them. SQL NULL never appears in the
//! data lanes; it lives exclusively in the [`NullMask`] that rides next
//! to every buffer (see `crate::columnar::to_f64_samples` for the single
//! point where the mask is folded into the sample encoding).

use crate::ast::CmpOp;

/// Validity companion of a typed column: bit `i` set means lane `i` is
/// SQL NULL and its data value is meaningless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
}

impl NullMask {
    /// All-valid mask for `len` lanes.
    pub fn none(len: usize) -> Self {
        NullMask {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of lanes covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is lane `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Mark lane `i` NULL.
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Any NULL lane at all?
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Number of NULL lanes.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Lane-wise OR: NULL if either input lane is NULL.
    pub fn union(&self, other: &NullMask) -> NullMask {
        debug_assert_eq!(self.len, other.len);
        NullMask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Select lanes `idx` into a new mask (`out[k] = self[idx[k]]`).
    pub fn gather(&self, idx: &[usize]) -> NullMask {
        let mut out = NullMask::none(idx.len());
        for (k, &i) in idx.iter().enumerate() {
            if self.is_null(i) {
                out.set_null(k);
            }
        }
        out
    }
}

/// Lane-wise `a + b`.
pub fn add_f64(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Lane-wise `a - b`.
pub fn sub_f64(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Lane-wise `a * b`.
pub fn mul_f64(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Lane-wise `a / b`; a zero divisor marks the lane NULL (SQL division by
/// zero), matching the scalar tier's promotion-free float path.
pub fn div_f64(a: &[f64], b: &[f64], nulls: &mut NullMask) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    let out = a.iter().zip(b).map(|(x, y)| x / y).collect();
    for (i, &y) in b.iter().enumerate() {
        if y == 0.0 {
            nulls.set_null(i);
        }
    }
    out
}

/// Lane-wise `a % b`; a zero divisor marks the lane NULL.
pub fn rem_f64(a: &[f64], b: &[f64], nulls: &mut NullMask) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    let out = a.iter().zip(b).map(|(x, y)| x % y).collect();
    for (i, &y) in b.iter().enumerate() {
        if y == 0.0 {
            nulls.set_null(i);
        }
    }
    out
}

/// Lane-wise `-a`.
pub fn neg_f64(a: &[f64]) -> Vec<f64> {
    a.iter().map(|x| -x).collect()
}

/// Checked lane-wise `a + b` over non-NULL lanes. `None` reports an
/// overflow on some valid lane: the caller must re-run the whole node
/// through per-value promotion, because the scalar tier promotes exactly
/// the overflowing lane to float and the column is no longer uniformly
/// typed.
pub fn add_i64(a: &[i64], b: &[i64], nulls: &NullMask) -> Option<Vec<i64>> {
    checked_i64(a, b, nulls, i64::checked_add)
}

/// Checked lane-wise `a - b` over non-NULL lanes (see [`add_i64`]).
pub fn sub_i64(a: &[i64], b: &[i64], nulls: &NullMask) -> Option<Vec<i64>> {
    checked_i64(a, b, nulls, i64::checked_sub)
}

/// Checked lane-wise `a * b` over non-NULL lanes (see [`add_i64`]).
pub fn mul_i64(a: &[i64], b: &[i64], nulls: &NullMask) -> Option<Vec<i64>> {
    checked_i64(a, b, nulls, i64::checked_mul)
}

fn checked_i64(
    a: &[i64],
    b: &[i64],
    nulls: &NullMask,
    op: impl Fn(i64, i64) -> Option<i64>,
) -> Option<Vec<i64>> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![0i64; a.len()];
    for (i, lane) in out.iter_mut().enumerate() {
        if !nulls.is_null(i) {
            *lane = op(a[i], b[i])?;
        }
    }
    Some(out)
}

/// Lane-wise integer `a / b`; a zero divisor marks the lane NULL. NULL
/// lanes are skipped entirely (their data is never read), mirroring the
/// scalar tier where NULL absorbs before the division happens.
pub fn div_i64(a: &[i64], b: &[i64], nulls: &mut NullMask) -> Vec<i64> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![0i64; a.len()];
    for (i, lane) in out.iter_mut().enumerate() {
        if nulls.is_null(i) {
            continue;
        }
        if b[i] == 0 {
            nulls.set_null(i);
        } else {
            *lane = a[i] / b[i];
        }
    }
    out
}

/// Lane-wise integer `a % b`; a zero divisor marks the lane NULL.
pub fn rem_i64(a: &[i64], b: &[i64], nulls: &mut NullMask) -> Vec<i64> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![0i64; a.len()];
    for (i, lane) in out.iter_mut().enumerate() {
        if nulls.is_null(i) {
            continue;
        }
        if b[i] == 0 {
            nulls.set_null(i);
        } else {
            *lane = a[i] % b[i];
        }
    }
    out
}

/// Lane-wise `-a` over non-NULL lanes (NULL lanes yield 0, masked).
pub fn neg_i64(a: &[i64], nulls: &NullMask) -> Vec<i64> {
    let mut out = vec![0i64; a.len()];
    for (i, lane) in out.iter_mut().enumerate() {
        if !nulls.is_null(i) {
            *lane = -a[i];
        }
    }
    out
}

/// Widen an integer column to the float lanes the scalar tier's numeric
/// promotion (`as f64`) produces — including its precision loss above
/// 2^53, which comparisons must reproduce bit-exactly.
pub fn widen_i64(a: &[i64]) -> Vec<f64> {
    a.iter().map(|&x| x as f64).collect()
}

/// Widen a boolean column to `1.0` / `0.0` (the scalar tier's numeric
/// coercion of booleans).
pub fn widen_bool(a: &[bool]) -> Vec<f64> {
    a.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect()
}

/// Lane-wise comparison with `partial_cmp`'s outcomes, so a NaN data lane
/// compares false under every operator — `<>` included — exactly as the
/// scalar tier's `sql_cmp`. The operator is matched once, outside the
/// lanes, so each loop is one branch-free float compare.
pub fn cmp_f64(op: CmpOp, a: &[f64], b: &[f64]) -> Vec<bool> {
    debug_assert_eq!(a.len(), b.len());
    fn lanes(a: &[f64], b: &[f64], test: impl Fn(f64, f64) -> bool) -> Vec<bool> {
        a.iter().zip(b).map(|(&x, &y)| test(x, y)).collect()
    }
    match op {
        CmpOp::Eq => lanes(a, b, |x, y| x == y),
        // Not `x != y`: that is true of a NaN operand, `sql_cmp`'s `<>` is not.
        #[allow(clippy::double_comparisons)]
        CmpOp::Neq => lanes(a, b, |x, y| x < y || x > y),
        CmpOp::Lt => lanes(a, b, |x, y| x < y),
        CmpOp::Le => lanes(a, b, |x, y| x <= y),
        CmpOp::Gt => lanes(a, b, |x, y| x > y),
        CmpOp::Ge => lanes(a, b, |x, y| x >= y),
    }
}

/// Lane-wise boolean comparison (`false < true`, as in the scalar tier).
pub fn cmp_bool(op: CmpOp, a: &[bool], b: &[bool]) -> Vec<bool> {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| op.test(Some(x.cmp(y))))
        .collect()
}

/// SQL truth lanes of a float column (`x <> 0.0`; NaN is truthy).
pub fn truth_f64(a: &[f64]) -> Vec<bool> {
    a.iter().map(|&x| x != 0.0).collect()
}

/// SQL truth lanes of an integer column (`x <> 0`).
pub fn truth_i64(a: &[i64]) -> Vec<bool> {
    a.iter().map(|&x| x != 0).collect()
}

/// Lane-wise logical NOT.
pub fn not_bool(a: &[bool]) -> Vec<bool> {
    a.iter().map(|&b| !b).collect()
}

/// One `CASE` arm as [`blend`] reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arm<'a, T> {
    /// Every lane NULL: a NULL literal, an all-NULL alias, an absent ELSE.
    Null,
    /// One value for every lane (a literal or a parameter).
    Const(T),
    /// An alias's lanes with their validity mask.
    Lanes(&'a [T], &'a NullMask),
}

/// Lane-wise `if pick[i] { then[i] } else { otherwise[i] }` over a whole
/// block: the dense form of a `CASE` whose arms need no evaluation. A NULL
/// lane of the picked arm is NULL in the output (data zeroed or copied
/// as-is, masked either way).
pub(crate) fn blend<T: Copy + Default>(
    pick: &[bool],
    then: Arm<'_, T>,
    otherwise: Arm<'_, T>,
) -> (Vec<T>, NullMask) {
    let mut nulls = NullMask::none(pick.len());
    if let (Arm::Const(a), Arm::Const(b)) = (then, otherwise) {
        let data = pick.iter().map(|&p| if p { a } else { b }).collect();
        return (data, nulls);
    }
    let mut data = vec![T::default(); pick.len()];
    for (i, &p) in pick.iter().enumerate() {
        match if p { then } else { otherwise } {
            Arm::Null => nulls.set_null(i),
            Arm::Const(x) => data[i] = x,
            Arm::Lanes(lanes, mask) => {
                data[i] = lanes[i];
                if mask.is_null(i) {
                    nulls.set_null(i);
                }
            }
        }
    }
    (data, nulls)
}

/// Fold the null mask into the sample encoding: NULL lanes become NaN.
/// Only `crate::columnar::to_f64_samples` may call this — it is the one
/// place the mask and the data lanes merge.
pub fn mask_to_nan(data: &mut [f64], nulls: &NullMask) {
    if !nulls.any() {
        return;
    }
    for (i, lane) in data.iter_mut().enumerate() {
        if nulls.is_null(i) {
            *lane = f64::NAN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_bits_round_trip_across_word_boundaries() {
        let mut m = NullMask::none(130);
        assert_eq!(m.len(), 130);
        assert!(!m.any());
        assert_eq!(m.count(), 0);
        for i in [0, 63, 64, 65, 129] {
            m.set_null(i);
        }
        for i in 0..130 {
            assert_eq!(m.is_null(i), [0, 63, 64, 65, 129].contains(&i), "lane {i}");
        }
        assert!(m.any());
        assert_eq!(m.count(), 5);
    }

    #[test]
    fn mask_union_and_gather() {
        let mut a = NullMask::none(5);
        a.set_null(1);
        let mut b = NullMask::none(5);
        b.set_null(3);
        let u = a.union(&b);
        assert!(u.is_null(1) && u.is_null(3) && !u.is_null(0));
        let g = u.gather(&[3, 0, 1]);
        assert!(g.is_null(0) && !g.is_null(1) && g.is_null(2));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn f64_arithmetic_kernels() {
        let a = [1.5, -2.0, 0.25];
        let b = [0.5, 4.0, -1.0];
        assert_eq!(add_f64(&a, &b), vec![2.0, 2.0, -0.75]);
        assert_eq!(sub_f64(&a, &b), vec![1.0, -6.0, 1.25]);
        assert_eq!(mul_f64(&a, &b), vec![0.75, -8.0, -0.25]);
        assert_eq!(neg_f64(&a), vec![-1.5, 2.0, -0.25]);
    }

    #[test]
    fn division_by_zero_marks_null() {
        let mut nulls = NullMask::none(3);
        let out = div_f64(&[1.0, 2.0, 3.0], &[2.0, 0.0, -1.0], &mut nulls);
        assert_eq!(out[0], 0.5);
        assert_eq!(out[2], -3.0);
        assert!(nulls.is_null(1) && !nulls.is_null(0) && !nulls.is_null(2));

        let mut nulls = NullMask::none(2);
        let out = rem_f64(&[7.0, 7.0], &[4.0, 0.0], &mut nulls);
        assert_eq!(out[0], 3.0);
        assert!(nulls.is_null(1));

        let mut nulls = NullMask::none(3);
        nulls.set_null(2); // data in NULL lanes must never be divided
        let out = div_i64(&[9, 9, i64::MIN], &[4, 0, -1], &mut nulls);
        assert_eq!(out[0], 2);
        assert!(nulls.is_null(1) && nulls.is_null(2));

        let mut nulls = NullMask::none(2);
        assert_eq!(rem_i64(&[9, 9], &[4, 0], &mut nulls), vec![1, 0]);
        assert!(nulls.is_null(1));
    }

    #[test]
    fn i64_kernels_report_overflow_and_skip_null_lanes() {
        let nulls = NullMask::none(2);
        assert_eq!(add_i64(&[1, 2], &[3, 4], &nulls), Some(vec![4, 6]));
        assert_eq!(add_i64(&[i64::MAX, 0], &[1, 0], &nulls), None);
        assert_eq!(sub_i64(&[i64::MIN, 0], &[1, 0], &nulls), None);
        assert_eq!(mul_i64(&[i64::MAX, 0], &[2, 0], &nulls), None);

        // The same overflow in a NULL lane is invisible: the lane's data
        // is meaningless and the scalar tier would have absorbed NULL
        // before the arithmetic.
        let mut masked = NullMask::none(2);
        masked.set_null(0);
        assert_eq!(add_i64(&[i64::MAX, 2], &[1, 2], &masked), Some(vec![0, 4]));
        assert_eq!(neg_i64(&[i64::MIN, 5], &masked), vec![0, -5]);
    }

    #[test]
    fn widening_matches_scalar_promotion() {
        // 2^53 + 1 is not representable: `as f64` rounds, and comparisons
        // must see the rounded value like the scalar tier does.
        let big = (1i64 << 53) + 1;
        assert_eq!(widen_i64(&[3, big]), vec![3.0, big as f64]);
        assert_eq!(widen_bool(&[true, false]), vec![1.0, 0.0]);
    }

    #[test]
    fn comparison_kernels_and_nan() {
        let a = [1.0, 2.0, f64::NAN];
        let b = [2.0, 2.0, 1.0];
        assert_eq!(cmp_f64(CmpOp::Lt, &a, &b), vec![true, false, false]);
        assert_eq!(cmp_f64(CmpOp::Eq, &a, &b), vec![false, true, false]);
        // NaN compares false under every operator, including `<>`.
        assert_eq!(cmp_f64(CmpOp::Neq, &a, &b), vec![true, false, false]);
        assert_eq!(
            cmp_bool(CmpOp::Lt, &[false, true], &[true, true]),
            vec![true, false]
        );
        assert_eq!(
            cmp_bool(CmpOp::Eq, &[false, true], &[true, true]),
            vec![false, true]
        );
    }

    #[test]
    fn truth_lanes_and_not() {
        assert_eq!(
            truth_f64(&[0.0, 1.0, -0.5, f64::NAN]),
            vec![false, true, true, true]
        );
        assert_eq!(truth_i64(&[0, 7, -1]), vec![false, true, true]);
        assert_eq!(not_bool(&[true, false]), vec![false, true]);
    }

    #[test]
    fn blend_picks_lanes_and_carries_nulls_across_the_word_boundary() {
        let pick: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let (data, nulls) = blend(&pick, Arm::Const(1i64), Arm::Const(0));
        assert!(!nulls.any());
        assert!(data.iter().zip(&pick).all(|(&x, &p)| x == p as i64));

        let lanes: Vec<i64> = (0..70).collect();
        let mut mask = NullMask::none(70);
        for i in [0, 63, 66] {
            mask.set_null(i);
        }
        let (data, nulls) = blend(&pick, Arm::Lanes(&lanes, &mask), Arm::Null);
        for i in 0..70 {
            // Picked lanes copy the alias (its NULLs included); the rest
            // take the absent ELSE.
            assert_eq!(nulls.is_null(i), !pick[i] || mask.is_null(i), "lane {i}");
            assert_eq!(data[i], if pick[i] { lanes[i] } else { 0 }, "lane {i}");
        }
        let (data, nulls) = blend(&pick, Arm::Const(2.5), Arm::Lanes(&[0.5; 70], &mask));
        assert_eq!((data[0], data[1], nulls.count()), (2.5, 0.5, 0));
    }

    #[test]
    fn mask_to_nan_respects_only_the_mask() {
        let mut data = vec![1.0, 2.0, f64::NAN];
        let mut nulls = NullMask::none(3);
        nulls.set_null(1);
        mask_to_nan(&mut data, &nulls);
        assert_eq!(data[0], 1.0);
        assert!(data[1].is_nan(), "NULL lane folded to NaN");
        assert!(data[2].is_nan(), "genuine NaN data lane untouched");
        assert!(!nulls.is_null(2), "a data NaN is not NULL");
    }
}
