//! Shared test VG functions for the executor test suites.
//!
//! The scalar ([`crate::executor`]) and columnar ([`crate::columnar`])
//! tiers are differential-tested against each other, so both suites must
//! exercise the *same* stochastic functions — one definition here keeps a
//! change to the draw discipline from silently diverging the two suites.

use std::sync::Arc;

use prophet_data::{DataError, DataResult, Value};
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::{VgFunction, VgRegistry};

/// A deterministic VG function: returns `base + U[0,1)`.
#[derive(Debug)]
pub struct Jitter;

impl VgFunction for Jitter {
    fn name(&self) -> &str {
        "Jitter"
    }
    fn arity(&self) -> usize {
        1
    }
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        Ok(params[0].as_f64()? + rng.next_f64())
    }
}

/// A VG function with a draw ledger: `Walk(n, bias)` is `bias` plus the
/// sum of the stream's first `n + 1` uniforms (`n` clamped to `0..`, and
/// refused past 1,000). The draws never depend on the arguments, so the
/// ledger is the uniforms themselves, and the catalog answers a columnar
/// block from the ledger pair rather than from `invoke`.
#[derive(Debug)]
pub struct Walk;

impl Walk {
    fn steps(params: &[Value]) -> DataResult<usize> {
        match params[0].as_i64()? {
            n if n > 1_000 => Err(DataError::InvalidOperation(format!(
                "Walk({n}) is past 1000 steps"
            ))),
            n => Ok(n.max(0) as usize + 1),
        }
    }
}

impl VgFunction for Walk {
    fn name(&self) -> &str {
        "Walk"
    }
    fn arity(&self) -> usize {
        2
    }
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        let mut at = params[1].as_f64()?;
        for _ in 0..Walk::steps(params)? {
            at += rng.next_f64();
        }
        Ok(at)
    }
    fn ledger_len(&self, params: &[Value]) -> DataResult<Option<usize>> {
        params[1].as_f64()?;
        Walk::steps(params).map(Some)
    }
    fn draw_ledger(&self, rng: &mut Xoshiro256StarStar, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.next_f64()).collect()
    }
    fn replay(&self, params: &[Value], ledger: &[f64]) -> DataResult<f64> {
        let bias = params[1].as_f64()?;
        Ok(ledger[..Walk::steps(params)?]
            .iter()
            .fold(bias, |at, u| at + u))
    }
}

/// A registry with the test functions installed.
pub(crate) fn test_registry() -> VgRegistry {
    let mut r = VgRegistry::new();
    r.register(Arc::new(Jitter));
    r.register(Arc::new(Walk));
    r
}
