//! Shared test VG functions for the executor test suites.
//!
//! The scalar ([`crate::executor`]) and columnar ([`crate::columnar`])
//! tiers are differential-tested against each other, so both suites must
//! exercise the *same* stochastic functions — one definition here keeps a
//! change to the draw discipline from silently diverging the two suites.

use std::sync::Arc;

use prophet_data::{DataResult, DataType, Schema, Table, TableBuilder, Value};
use prophet_vg::rng::Rng64;
use prophet_vg::{VgCallF64, VgFunction, VgRegistry};

/// A deterministic VG function: returns `base + U[0,1)` as a 1x1 table.
#[derive(Debug)]
pub struct Jitter;

impl VgFunction for Jitter {
    fn name(&self) -> &str {
        "Jitter"
    }
    fn arity(&self) -> usize {
        1
    }
    fn output_schema(&self) -> Schema {
        Schema::of(&[("v", DataType::Float)])
    }
    fn invoke(&self, params: &[Value], rng: &mut dyn Rng64) -> DataResult<Table> {
        let base = params[0].as_f64()?;
        let mut b = TableBuilder::with_capacity(self.output_schema(), 1);
        b.push_row(vec![Value::Float(base + rng.next_f64())])?;
        Ok(b.finish())
    }
    fn invoke_batch_f64(&self, calls: &mut [VgCallF64<'_>]) -> DataResult<Option<Vec<f64>>> {
        calls
            .iter_mut()
            .map(|c| Ok(c.params[0].as_f64()? + c.rng.next_f64()))
            .collect::<DataResult<Vec<f64>>>()
            .map(Some)
    }
}

/// A malformed VG function that returns two rows (for error-path tests).
#[derive(Debug)]
pub struct TwoRows;

impl VgFunction for TwoRows {
    fn name(&self) -> &str {
        "TwoRows"
    }
    fn arity(&self) -> usize {
        0
    }
    fn output_schema(&self) -> Schema {
        Schema::of(&[("v", DataType::Float)])
    }
    fn invoke(&self, _: &[Value], _: &mut dyn Rng64) -> DataResult<Table> {
        let mut b = TableBuilder::new(self.output_schema());
        b.push_row(vec![Value::Float(1.0)])?;
        b.push_row(vec![Value::Float(2.0)])?;
        Ok(b.finish())
    }
}

/// A registry with both test functions installed.
pub fn test_registry() -> VgRegistry {
    let mut r = VgRegistry::new();
    r.register(Arc::new(Jitter));
    r.register(Arc::new(TwoRows));
    r
}
