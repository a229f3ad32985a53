//! # prophet-sql
//!
//! A from-scratch TSQL-subset engine with Fuzzy Prophet's probabilistic-
//! database extensions. This crate is the reproduction's substitute for the
//! Microsoft SQL Server instance the paper runs on: the Query Generator
//! compiles scenario instances against this executor instead of emitting
//! TSQL text to an external server.
//!
//! The dialect is exactly the paper's Figure 2 language:
//!
//! ```sql
//! -- DEFINITION --
//! DECLARE PARAMETER @current   AS RANGE 0 TO 52 STEP BY 1;
//! DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
//! DECLARE PARAMETER @feature   AS SET (12, 36, 44);
//!
//! SELECT DemandModel(@current, @feature)                 AS demand,
//!        CapacityModel(@current, @purchase1, @purchase2) AS capacity,
//!        CASE WHEN capacity < demand THEN 1 ELSE 0 END   AS overload
//! INTO results;
//!
//! -- ONLINE MODE --
//! GRAPH OVER @current
//!     EXPECT overload WITH bold red,
//!     EXPECT capacity WITH blue y2,
//!     EXPECT_STDDEV demand WITH orange y2;
//!
//! -- OFFLINE MODE --
//! OPTIMIZE SELECT @feature, @purchase1, @purchase2
//! FROM results
//! WHERE MAX(EXPECT overload) < 0.01
//! GROUP BY feature, purchase1, purchase2
//! FOR MAX @purchase1, MAX @purchase2
//! ```
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast`] → evaluation (VG table
//! functions resolve through a [`prophet_vg::VgRegistry`]). Aggregation
//! across worlds (`EXPECT`, `EXPECT_STDDEV`, the outer `MAX(...)` of
//! OPTIMIZE constraints) happens a layer up, in `prophet-mc` — the
//! evaluator treats those as metadata, exactly as the paper's SQL Server
//! saw only "pure TSQL".
//!
//! ## Two execution tiers
//!
//! Evaluation of the scenario SELECT comes in two semantically identical
//! tiers (full story in `docs/VECTORIZATION.md`):
//!
//! * [`executor`] — the **scalar** tier: one AST walk per possible world.
//!   This is the reference implementation of the dialect's semantics
//!   (left-to-right alias scoping, SQL three-valued logic, per-call VG
//!   substreams) and the tier of choice for evaluating a single instance.
//! * [`columnar`] — the **typed columnar** tier: one AST walk per
//!   *world-block*, each node lowered to a straight-line kernel
//!   ([`mod@column`]) over `f64`/`i64`/`bool` buffers with a null bitmask,
//!   falling back to boxed values only for mixed/string data. A VG call
//!   site fills an `f64` column straight from each world's
//!   [`prophet_vg::VgFunction::invoke`] (or the model's draw ledger)
//!   without boxing a single value, and a length-`L` fingerprint probe
//!   costs one walk instead of `L`. Fingerprint probes and Monte Carlo estimation
//!   default to this tier.
//!
//! The columnar tier is *defined* by bit-identity with the scalar tier —
//! per world, same outputs, same VG seed derivation, same error classes —
//! and the differential suites (`tests/vector_equivalence.rs`, the
//! `columnar` unit tests) hold it to that contract against the scalar
//! executor directly.

pub mod ast;
pub mod column;
pub mod columnar;
pub mod error;
pub mod executor;
pub mod lexer;
pub mod parser;
#[cfg(test)]
pub(crate) mod test_vg;
pub mod token;

pub use ast::{
    AggMetric, CmpOp, Constraint, Expr, GraphDirective, Objective, ObjectiveDirection,
    OptimizeSpec, OuterAgg, ParameterDecl, ParameterDomain, Script, SelectInto, SelectItem,
    SeriesSpec,
};
pub use column::NullMask;
pub use columnar::{evaluate_select_columns, to_f64_samples, Column, ColumnarStats};
pub use error::{SqlError, SqlResult};
pub use executor::EvalContext;
pub use parser::parse_script;
