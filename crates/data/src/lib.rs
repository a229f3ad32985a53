//! # prophet-data
//!
//! Columnar relational substrate for the Fuzzy Prophet reproduction.
//!
//! The original Fuzzy Prophet system ran on top of Microsoft SQL Server; every
//! component above the storage layer only ever manipulated *relations*. This
//! crate provides the minimal relational vocabulary the rest of the workspace
//! builds on:
//!
//! * [`Value`] — a dynamically typed scalar with SQL-style `NULL` semantics,
//! * [`Schema`]/[`Field`]/[`DataType`] — column metadata,
//! * [`Column`] — a typed, nullable, growable column,
//! * [`Table`] — a schema plus columns, with projection / filter / sort
//!   helpers and builders,
//! * [`csv`] — dependency-free CSV emission for materialized result tables.
//!
//! Everything here is deterministic and allocation-conscious: the Monte Carlo
//! engine creates and destroys many small tables per simulated world, so
//! builders accept capacity hints and the row accessors avoid cloning where
//! possible.

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
