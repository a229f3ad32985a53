//! The error type of scalar operations and VG function calls.

use std::fmt;

/// Convenient result alias used throughout the crate.
pub type DataResult<T> = Result<T, DataError>;

/// Errors surfaced by [`crate::Value`] operations and VG function calls.
///
/// The Monte Carlo engine evaluates user-authored scenarios, so type errors
/// and bad arguments are expected at runtime and must be reportable rather
/// than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A named column or function was not found.
    UnknownColumn(String),
    /// A value of one type was used where another was required.
    TypeMismatch {
        /// What the operation required.
        expected: &'static str,
        /// What it actually received.
        found: String,
    },
    /// A call's arguments disagreed with what it declares (arity or
    /// parameter values).
    SchemaMismatch(String),
    /// An arithmetic operation was invalid (e.g. string + int).
    InvalidOperation(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            DataError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            DataError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            DataError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            DataError::UnknownColumn("demand".into()).to_string(),
            "unknown column `demand`"
        );
        assert_eq!(
            DataError::TypeMismatch {
                expected: "float",
                found: "Str(\"x\")".into()
            }
            .to_string(),
            "type mismatch: expected float, found Str(\"x\")"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
