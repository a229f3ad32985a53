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
use prophet_mc::aggregate::{quantile, Welford};
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
fn welford_matches_two_pass() {
    let mut rng = case_rng(4);
    for _ in 0..CASES {
        let n = rng.gen_range_i64(2, 200) as usize;
        let xs = random_vec(&mut rng, n, -1e6, 1e6);
        let mut w = Welford::new();
        w.extend(&xs);
        let nf = n as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (nf - 1.0);
        assert!((w.mean().unwrap() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((w.variance().unwrap() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        assert_eq!(w.count(), n as u64);
    }
}

#[test]
fn welford_merge_is_concatenation() {
    let mut rng = case_rng(5);
    for _ in 0..CASES {
        let nx = rng.gen_range_i64(1, 100) as usize;
        let xs = random_vec(&mut rng, nx, -1e5, 1e5);
        let ny = rng.gen_range_i64(1, 100) as usize;
        let ys = random_vec(&mut rng, ny, -1e5, 1e5);
        let mut a = Welford::new();
        a.extend(&xs);
        let mut b = Welford::new();
        b.extend(&ys);
        a.merge(&b);
        let mut whole = Welford::new();
        whole.extend(&xs);
        whole.extend(&ys);
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-6);
        let (va, vw) = (a.variance().unwrap(), whole.variance().unwrap());
        assert!((va - vw).abs() <= 1e-6 * (1.0 + vw.abs()));
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }
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
