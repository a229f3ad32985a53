//! Property-style tests over the core data structures and invariants: the
//! parser's totality, statistical kernels, mapping detection, parameter-point
//! semantics and PRNG range contracts.
//!
//! The build environment vendors no external crates, so instead of
//! `proptest` these run each property over many *deterministically
//! generated* cases: inputs are drawn from the workspace's own seeded
//! PRNGs, so failures reproduce exactly and the suite stays dependency-free.

use fuzzy_prophet::prelude::*;
use prophet_data::Value;
use prophet_fingerprint::{fit_affine, pearson, CorrelationDetector, Fingerprint};
use prophet_mc::aggregate::quantile;
use prophet_mc::{SampleSet, SampleStats};
use prophet_sql::parse_script;
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};

const CASES: usize = 200;

// A fixed base seed; cases derive from it so every run sees the same inputs.
const BASE_SEED: u64 = 0x5EED_CAFE_F00D_0001;

fn case_rng(salt: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(BASE_SEED ^ salt)
}

fn random_vec(rng: &mut Xoshiro256StarStar, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range_f64(lo, hi)).collect()
}

// --------------------------------------------------------------- parser

#[test]
fn parser_never_panics_on_arbitrary_input() {
    let mut rng = case_rng(1);
    for _ in 0..CASES {
        let len = rng.gen_range_i64(0, 300) as usize;
        let src: String = (0..len)
            .map(|_| {
                // Printable ASCII plus a sprinkling of newlines and tabs.
                match rng.gen_range_i64(0, 97) {
                    95 => '\n',
                    96 => '\t',
                    c => (32 + c as u8) as char,
                }
            })
            .collect();
        let _ = parse_script(&src);
    }
}

#[test]
fn parser_never_panics_on_fragment_soup() {
    const FRAGMENTS: &[&str] = &[
        "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1;",
        "DECLARE PARAMETER @q AS SET (1,2);",
        "SELECT 1 AS x INTO r;",
        "SELECT CASE WHEN x < 1 THEN 1 ELSE 0 END AS y INTO r;",
        "GRAPH OVER @p EXPECT x;",
        "OPTIMIZE SELECT @p FROM r WHERE MAX(EXPECT x) < 1 FOR MAX @p",
        "WHERE MAX(",
        "@@@",
        "'open string",
    ];
    let mut rng = case_rng(2);
    for _ in 0..CASES {
        let parts = rng.gen_range_i64(0, 5) as usize;
        let src: String = (0..parts)
            .map(|_| FRAGMENTS[rng.gen_range_i64(0, FRAGMENTS.len() as i64 - 1) as usize])
            .collect();
        let _ = parse_script(&src);
    }
}

#[test]
fn range_domains_are_well_formed() {
    let mut rng = case_rng(3);
    for _ in 0..CASES {
        let lo = rng.gen_range_i64(-100, 99);
        let span = rng.gen_range_i64(0, 199);
        let step = rng.gen_range_i64(1, 19);
        let hi = lo + span;
        let src = format!(
            "DECLARE PARAMETER @p AS RANGE {lo} TO {hi} STEP BY {step};\nSELECT @p AS x INTO r;"
        );
        let script = parse_script(&src).unwrap();
        let values = script.params[0].domain.values();
        assert!(!values.is_empty());
        assert!(
            values.windows(2).all(|w| w[1] - w[0] == step),
            "step-aligned: {values:?}"
        );
        assert!(values.iter().all(|&v| v >= lo && v <= hi));
        assert!(values.iter().all(|&v| (v - lo) % step == 0));
    }
}

// ----------------------------------------------------------- statistics

#[test]
fn moments_kernel_matches_two_pass() {
    let mut rng = case_rng(4);
    for _ in 0..CASES {
        let n = rng.gen_range_i64(2, 200) as usize;
        let xs = random_vec(&mut rng, n, -1e6, 1e6);
        let s = SampleStats::of(&xs);
        let nf = n as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (nf - 1.0);
        assert!((s.mean - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((s.std_dev * s.std_dev - var).abs() <= 1e-5 * (1.0 + var.abs()));
        assert_eq!(s.count, n as u64);
        assert_eq!(s.min, xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(s.max, xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
}

/// A sample set of one column `c`, as the engine hands them out.
fn column_set(xs: Vec<f64>) -> SampleSet {
    let samples = std::collections::HashMap::from([("c".to_owned(), xs)]);
    SampleSet::from_samples(ParamPoint::new(), vec!["c".to_owned()], samples)
}

#[test]
fn integer_columns_get_the_correctly_rounded_mean() {
    // Indicator columns (`overload`, `stockout`) and small counts: while
    // the sum stays integral and below 2^53 every partial sum is exact,
    // so the mean is the one division `k / n`.
    let mut rng = case_rng(17);
    for case in 0..CASES {
        let n = rng.gen_range_i64(1, 1000) as usize;
        let hi = if case % 2 == 0 { 1 } else { 1_000 };
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range_i64(-hi, hi) as f64).collect();
        let k: f64 = xs.iter().sum();
        let set = column_set(xs);
        assert_eq!(
            set.expect("c").unwrap().to_bits(),
            (k / n as f64).to_bits(),
            "{k}/{n}"
        );
    }
}

#[test]
fn constant_integer_columns_have_zero_spread() {
    for (value, n) in [(0.0, 400), (1.0, 400), (-7.0, 13), (123_456.0, 1000)] {
        let s = SampleStats::of(&vec![value; n]);
        assert_eq!((s.mean, s.std_dev), (value, 0.0), "{value} × {n}");
    }
}

#[test]
fn moments_survive_a_large_offset() {
    let mut rng = case_rng(18);
    for _ in 0..CASES {
        let n = rng.gen_range_i64(2, 500) as usize;
        let bits: Vec<f64> = (0..n).map(|_| rng.gen_range_i64(0, 1) as f64).collect();
        let xs: Vec<f64> = bits.iter().map(|b| 1e9 + b).collect();
        let (s, unit) = (SampleStats::of(&xs), SampleStats::of(&bits));
        // The offset mean is the correctly rounded (1e9·n + k)/n: within
        // one ulp of 1e9 (2^-23) of the unit column's.
        assert!((s.mean - 1e9 - unit.mean).abs() <= 0.5f64.powi(23));
        assert!(
            (s.std_dev - unit.std_dev).abs() <= 1e-12,
            "{} vs {}",
            s.std_dev,
            unit.std_dev
        );
    }
}

#[test]
fn any_non_finite_sample_poisons_mean_and_std_dev() {
    let mut rng = case_rng(19);
    for case in 0..CASES {
        let n = rng.gen_range_i64(2, 100) as usize;
        let mut xs = random_vec(&mut rng, n, -1e3, 1e3);
        let at = rng.gen_range_i64(0, n as i64 - 1) as usize;
        xs[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][case % 3];
        let s = SampleStats::of(&xs);
        assert!(
            s.mean.is_nan() && s.std_dev.is_nan(),
            "{:?} at {at}",
            xs[at]
        );
        assert!(!s.converged(f64::INFINITY, 1.96));
    }
}

#[test]
fn expect_is_the_first_pass_of_stats() {
    let mut rng = case_rng(20);
    for _ in 0..CASES {
        let n = rng.gen_range_i64(0, 300) as usize;
        let set = column_set(random_vec(&mut rng, n, -1e6, 1e6));
        assert_eq!(
            set.expect("c").unwrap().to_bits(),
            set.stats("c").unwrap().mean.to_bits()
        );
    }
}

#[test]
fn moments_of_a_seeded_column_are_pinned() {
    // The kernel's lane order is part of every answer's last bits: a
    // change to it must re-pin these deliberately.
    let mut rng = case_rng(21);
    let xs = random_vec(&mut rng, 400, 0.0, 1000.0);
    let s = SampleStats::of(&xs);
    assert_eq!(
        (s.mean.to_bits(), s.std_dev.to_bits()),
        (4647619122412582268, 4643743440890746615),
        "mean {} std_dev {}",
        s.mean,
        s.std_dev
    );
}

#[test]
fn quantiles_bounded_and_monotone() {
    let mut rng = case_rng(6);
    for _ in 0..CASES {
        let n = rng.gen_range_i64(1, 100) as usize;
        let xs = random_vec(&mut rng, n, -1e6, 1e6);
        let q1 = rng.next_f64();
        let q2 = rng.next_f64();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let a = quantile(&xs, q1).unwrap();
        let b = quantile(&xs, q2).unwrap();
        assert!(a >= lo && a <= hi);
        if q1 <= q2 {
            assert!(a <= b + 1e-9);
        } else {
            assert!(b <= a + 1e-9);
        }
    }
}

#[test]
fn pearson_properties() {
    let mut rng = case_rng(7);
    for _ in 0..CASES {
        let n = rng.gen_range_i64(3, 50) as usize;
        let xs = random_vec(&mut rng, n, -1e3, 1e3);
        let scale = rng.gen_range_f64(0.1, 10.0);
        let shift = rng.gen_range_f64(-100.0, 100.0);
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 + 1.0).collect();
        if let Some(r) = pearson(&xs, &ys) {
            assert!(
                (r - 1.0).abs() < 1e-6,
                "exact linear relation ⇒ r = 1, got {r}"
            );
        }
        let zs: Vec<f64> = xs.iter().map(|x| scale * x + shift).collect();
        if let (Some(a), Some(b)) = (pearson(&xs, &zs), pearson(&zs, &xs)) {
            assert!((a - b).abs() < 1e-9, "symmetry");
            assert!(a.abs() <= 1.0 + 1e-9, "bounded");
        }
    }
}

#[test]
fn affine_fit_recovers_planted_line() {
    let mut rng = case_rng(8);
    for _ in 0..CASES {
        let n = rng.gen_range_i64(3, 50) as usize;
        let xs = random_vec(&mut rng, n, -1e3, 1e3);
        let scale = rng.gen_range_f64(-5.0, 5.0);
        let offset = rng.gen_range_f64(-100.0, 100.0);
        // need variance in x
        if !xs.iter().any(|&x| (x - xs[0]).abs() > 1e-6) {
            continue;
        }
        let ys: Vec<f64> = xs.iter().map(|x| scale * x + offset).collect();
        let fit = fit_affine(&xs, &ys).unwrap();
        assert!(
            (fit.scale - scale).abs() < 1e-6 * (1.0 + scale.abs()),
            "{fit:?}"
        );
        assert!(
            (fit.offset - offset).abs() < 1e-4 * (1.0 + offset.abs()),
            "{fit:?}"
        );
        assert!(fit.r2 > 1.0 - 1e-9);
    }
}

// ----------------------------------------------------- mapping detection

#[test]
fn detect_then_apply_closes_the_loop() {
    let mut rng = case_rng(10);
    let detector = CorrelationDetector::default();
    for _ in 0..CASES {
        let n = rng.gen_range_i64(4, 64) as usize;
        let base = random_vec(&mut rng, n, -1e3, 1e3);
        let delta = rng.gen_range_f64(-1e3, 1e3);
        // need variation so the fingerprints aren't degenerate
        if !base.iter().any(|&x| (x - base[0]).abs() > 1e-3) {
            continue;
        }
        let source = Fingerprint::from_values(base.clone());
        let target = Fingerprint::from_values(base.iter().map(|v| v + delta).collect());
        let mapping = detector
            .detect(&source, &target)
            .expect("planted offset must be detected");
        let reproduced = mapping.apply_samples(source.values());
        for (r, t) in reproduced.iter().zip(target.values()) {
            assert!((r - t).abs() < 1e-6, "mapped {r} vs target {t}");
        }
    }
}

// ------------------------------------------------------- parameter points

fn random_pairs(rng: &mut Xoshiro256StarStar, max_len: usize) -> Vec<(String, i64)> {
    let len = rng.gen_range_i64(0, max_len as i64) as usize;
    (0..len)
        .map(|_| {
            let name = (b'a' + rng.gen_range_i64(0, 4) as u8) as char;
            (name.to_string(), rng.gen_range_i64(-100, 100))
        })
        .collect()
}

#[test]
fn param_point_insertion_order_irrelevant() {
    let mut rng = case_rng(11);
    for _ in 0..CASES {
        let pairs = random_pairs(&mut rng, 8);
        let forward = ParamPoint::from_pairs(pairs.clone());
        // later duplicates overwrite earlier ones, so dedup keeping last
        let mut last: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
        for (k, v) in &pairs {
            last.insert(k.clone(), *v);
        }
        let canonical = ParamPoint::from_pairs(last.clone());
        assert_eq!(forward, canonical);
        assert_eq!(forward.stable_hash(), canonical.stable_hash());
        for (k, v) in last {
            assert_eq!(forward.get(&k), Some(v));
        }
    }
}

#[test]
fn param_point_with_is_persistent() {
    let mut rng = case_rng(12);
    for _ in 0..CASES {
        let mut pairs = random_pairs(&mut rng, 6);
        if pairs.is_empty() {
            pairs.push(("a".to_owned(), 0));
        }
        let value = rng.gen_range_i64(-100, 100);
        let point = ParamPoint::from_pairs(pairs);
        let name = point.iter().next().unwrap().0.to_owned();
        let old = point.get(&name);
        let updated = point.with(name.clone(), value);
        assert_eq!(updated.get(&name), Some(value));
        assert_eq!(point.get(&name), old);
    }
}

// --------------------------------------------------------------- values

#[test]
fn value_total_cmp_antisymmetric() {
    let mut rng = case_rng(13);
    for _ in 0..CASES {
        let a = rng.gen_range_i64(-1000, 1000);
        let b = rng.gen_range_i64(-1000, 1000);
        let va = Value::Int(a);
        let vb = Value::Int(b);
        assert_eq!(va.total_cmp(&vb), vb.total_cmp(&va).reverse());
        assert_eq!(va.total_cmp(&vb) == std::cmp::Ordering::Equal, a == b);
    }
}

#[test]
fn numeric_arithmetic_matches_f64() {
    let mut rng = case_rng(14);
    for _ in 0..CASES {
        let a = rng.gen_range_f64(-1e6, 1e6);
        let b = rng.gen_range_f64(-1e6, 1e6);
        let va = Value::Float(a);
        let vb = Value::Float(b);
        assert_eq!(va.add(&vb).unwrap(), Value::Float(a + b));
        assert_eq!(va.mul(&vb).unwrap(), Value::Float(a * b));
        assert_eq!(va.sub(&vb).unwrap(), Value::Float(a - b));
    }
}

// ------------------------------------------------------------------ rng

#[test]
fn rng_range_bounds() {
    let mut seeder = case_rng(15);
    for _ in 0..CASES {
        let seed = seeder.next_u64();
        let lo = seeder.gen_range_i64(-1000, 1000);
        let hi = lo + seeder.gen_range_i64(0, 2000);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..50 {
            let v = rng.gen_range_i64(lo, hi);
            assert!(v >= lo && v <= hi);
        }
    }
}

#[test]
fn rng_unit_floats() {
    let mut seeder = case_rng(16);
    for _ in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seeder.next_u64());
        for _ in 0..100 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
