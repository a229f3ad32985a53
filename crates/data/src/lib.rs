//! # prophet-data
//!
//! Scalar values for the Fuzzy Prophet reproduction.
//!
//! The original Fuzzy Prophet system ran on top of Microsoft SQL Server.
//! This reproduction evaluates scenarios itself, so what is left of the
//! relational vocabulary is one dynamically typed scalar and its error:
//!
//! * [`Value`] — SQL-style `NULL` semantics, int → float promotion and a
//!   total order: the currency of the SQL executor and of every VG
//!   function's parameter list;
//! * [`DataError`] — what a VG function or a scalar operation reports
//!   when its inputs do not fit.
//!
//! The paper's `INTO results` relation is virtual in this engine: sessions
//! and optimizers read sample sets directly, so there is no table type.

pub mod error;
pub mod value;

pub use error::{DataError, DataResult};
pub use value::Value;
