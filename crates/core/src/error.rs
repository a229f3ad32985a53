//! The workspace-wide typed error hierarchy.
//!
//! Every public API in this crate returns [`ProphetError`] rather than the
//! lower layers' `SqlError`/`DataError`: callers of a long-lived service
//! need to distinguish "unknown scenario name" from "parse error on line 7"
//! programmatically, and structured variants carry the context (valid
//! names, offending values) a service front-end needs to produce actionable
//! responses without string-matching messages.

use std::fmt;

use prophet_data::DataError;
use prophet_mc::SnapshotError;
use prophet_sql::error::SqlError;

/// Result alias for the `fuzzy-prophet` crate.
pub type ProphetResult<T> = Result<T, ProphetError>;

/// Everything that can go wrong when configuring or querying the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ProphetError {
    /// A syntax or semantic error from the SQL front-end.
    Sql(SqlError),
    /// An error from the relational layer.
    Data(DataError),
    /// A scenario name not registered with the service.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// Names that *are* registered, sorted.
        available: Vec<String>,
    },
    /// A parameter name the scenario does not declare (or declares but
    /// cannot be set, listing the ones that can).
    UnknownParam {
        /// The requested parameter.
        name: String,
        /// Adjustable parameter names, sorted.
        available: Vec<String>,
    },
    /// An output column the scenario's SELECT does not produce.
    UnknownColumn {
        /// The requested column.
        name: String,
        /// Columns the SELECT produces, in declaration order.
        available: Vec<String>,
    },
    /// Attempted to set the graph's swept axis as if it were a slider.
    AxisParam {
        /// The axis parameter's name.
        name: String,
    },
    /// A value outside a parameter's declared domain.
    OutOfDomain {
        /// The parameter.
        name: String,
        /// The rejected value.
        value: i64,
    },
    /// Online mode requires a `GRAPH OVER` directive.
    MissingGraphDirective,
    /// Offline mode requires an `OPTIMIZE` directive.
    MissingOptimizeDirective,
    /// A scenario name registered twice on one builder.
    DuplicateScenario {
        /// The colliding name.
        name: String,
    },
    /// The parameter space — the product of the named parameters' domain
    /// sizes — does not fit in `usize`: no sweep could enumerate it.
    ParameterSpaceTooLarge {
        /// The parameters whose domains were multiplied.
        params: Vec<String>,
    },
    /// An engine configuration that cannot work (zero worlds, …).
    InvalidConfig(String),
    /// A refresh job spec omitted one of the scenario's sliders (every
    /// non-axis parameter needs a value).
    MissingSlider {
        /// The slider left unset.
        name: String,
        /// Every slider the spec must provide, sorted.
        required: Vec<String>,
    },
    /// A submitted job was cancelled before completing; surfaced by
    /// [`JobHandle::wait`](crate::job::JobHandle::wait) (incremental
    /// consumers see [`JobEvent::Cancelled`](crate::job::JobEvent)
    /// instead).
    JobCancelled,
    /// A basis snapshot could not be saved or restored (corrupt bytes,
    /// version/capacity mismatch, or filesystem failure); the store is
    /// left untouched on a failed restore.
    Snapshot(SnapshotError),
    /// An internal invariant violation (a bug, not user error).
    Internal(String),
}

impl ProphetError {
    /// Construct [`ProphetError::UnknownParam`] with its candidates sorted.
    pub fn unknown_param(name: impl Into<String>, mut available: Vec<String>) -> Self {
        available.sort();
        ProphetError::UnknownParam {
            name: name.into(),
            available,
        }
    }

    /// Construct [`ProphetError::UnknownColumn`] (candidates keep SELECT
    /// order, which is already deterministic).
    pub fn unknown_column(name: impl Into<String>, available: Vec<String>) -> Self {
        ProphetError::UnknownColumn {
            name: name.into(),
            available,
        }
    }

    /// Construct [`ProphetError::UnknownScenario`] with its candidates
    /// sorted.
    pub fn unknown_scenario(name: impl Into<String>, mut available: Vec<String>) -> Self {
        available.sort();
        ProphetError::UnknownScenario {
            name: name.into(),
            available,
        }
    }
}

fn list(names: &[String]) -> String {
    if names.is_empty() {
        "none".to_owned()
    } else {
        names.join(", ")
    }
}

impl fmt::Display for ProphetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProphetError::Sql(e) => write!(f, "{e}"),
            ProphetError::Data(e) => write!(f, "data error: {e}"),
            ProphetError::UnknownScenario { name, available } => {
                write!(
                    f,
                    "unknown scenario `{name}` (registered: {})",
                    list(available)
                )
            }
            ProphetError::UnknownParam { name, available } => {
                write!(f, "unknown parameter @{name} (valid: {})", list(available))
            }
            ProphetError::UnknownColumn { name, available } => {
                write!(
                    f,
                    "unknown output column `{name}` (columns: {})",
                    list(available)
                )
            }
            ProphetError::AxisParam { name } => {
                write!(f, "@{name} is the graph axis; it is swept, not set")
            }
            ProphetError::OutOfDomain { name, value } => {
                write!(f, "value {value} outside the domain of @{name}")
            }
            ProphetError::MissingGraphDirective => {
                write!(f, "online mode requires a GRAPH OVER directive")
            }
            ProphetError::MissingOptimizeDirective => {
                write!(f, "offline mode requires an OPTIMIZE directive")
            }
            ProphetError::DuplicateScenario { name } => {
                write!(f, "scenario `{name}` registered twice")
            }
            ProphetError::ParameterSpaceTooLarge { params } => {
                write!(
                    f,
                    "parameter space too large to enumerate (domains of {})",
                    list(params)
                )
            }
            ProphetError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ProphetError::MissingSlider { name, required } => {
                write!(
                    f,
                    "refresh spec leaves slider @{name} unset (required: {})",
                    list(required)
                )
            }
            ProphetError::JobCancelled => {
                write!(f, "job cancelled before completion")
            }
            ProphetError::Snapshot(e) => write!(f, "basis snapshot error: {e}"),
            ProphetError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ProphetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProphetError::Sql(e) => Some(e),
            ProphetError::Data(e) => Some(e),
            ProphetError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ProphetError {
    fn from(err: SnapshotError) -> Self {
        ProphetError::Snapshot(err)
    }
}

impl From<SqlError> for ProphetError {
    fn from(err: SqlError) -> Self {
        // Data errors that merely passed through the SQL layer surface as
        // data errors: the hierarchy reflects origin, not call path.
        match err {
            SqlError::Data(data) => ProphetError::Data(data),
            other => ProphetError::Sql(other),
        }
    }
}

impl From<DataError> for ProphetError {
    fn from(err: DataError) -> Self {
        ProphetError::Data(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_param_lists_candidates_sorted() {
        let e = ProphetError::unknown_param(
            "nope",
            vec![
                "purchase2".to_owned(),
                "feature".to_owned(),
                "purchase1".to_owned(),
            ],
        );
        assert_eq!(
            e.to_string(),
            "unknown parameter @nope (valid: feature, purchase1, purchase2)"
        );
        match e {
            ProphetError::UnknownParam { available, .. } => {
                assert_eq!(available, ["feature", "purchase1", "purchase2"]);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn empty_candidate_lists_read_as_none() {
        let e = ProphetError::unknown_scenario("x", vec![]);
        assert_eq!(e.to_string(), "unknown scenario `x` (registered: none)");
    }

    #[test]
    fn sql_errors_convert_and_chain() {
        let sql = SqlError::Eval("boom".into());
        let e: ProphetError = sql.clone().into();
        assert_eq!(e, ProphetError::Sql(sql));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn data_errors_unwrap_through_the_sql_layer() {
        let inner = DataError::UnknownColumn("x".into());
        let via_sql: ProphetError = SqlError::Data(inner.clone()).into();
        let direct: ProphetError = inner.into();
        assert_eq!(
            via_sql, direct,
            "origin, not call path, decides the variant"
        );
    }

    #[test]
    fn display_is_stable_for_structured_variants() {
        assert_eq!(
            ProphetError::AxisParam {
                name: "current".into()
            }
            .to_string(),
            "@current is the graph axis; it is swept, not set"
        );
        assert_eq!(
            ProphetError::OutOfDomain {
                name: "purchase1".into(),
                value: 3
            }
            .to_string(),
            "value 3 outside the domain of @purchase1"
        );
        assert_eq!(
            ProphetError::MissingGraphDirective.to_string(),
            "online mode requires a GRAPH OVER directive"
        );
    }
}
