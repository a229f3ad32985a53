//! # prophet-data
//!
//! Scalar values and result tables for the Fuzzy Prophet reproduction.
//!
//! The original Fuzzy Prophet system ran on top of Microsoft SQL Server.
//! This reproduction evaluates scenarios itself, so what is left of the
//! relational vocabulary is two things:
//!
//! * [`Value`] — a dynamically typed scalar with SQL-style `NULL`
//!   semantics, plus [`DataError`]: the currency of the SQL executor and
//!   of every VG function's parameter list;
//! * the **export surface** — [`Table`], built row by row through
//!   [`TableBuilder`] over a [`Schema`] of [`Field`]s/[`DataType`]s, stored
//!   in typed nullable [`Column`]s and read back through [`Row`] views —
//!   which `prophet_mc::materialize` fills from cached samples and
//!   [`csv`] / `Display` print. There is no relational algebra here
//!   (projection, filter, sort, aggregates): nothing in the workspace
//!   queries a table.

pub mod column;
pub mod csv;
pub mod error;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use column::Column;
pub use error::{DataError, DataResult};
pub use row::Row;
pub use schema::{DataType, Field, Schema};
pub use table::{Table, TableBuilder};
pub use value::Value;
