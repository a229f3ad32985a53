//! Dynamically typed scalar values with SQL-flavoured semantics.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{DataError, DataResult};

/// A single scalar cell.
///
/// `Value` follows SQL conventions where they matter to the engine:
///
/// * `Null` is absorbing for arithmetic (`NULL + x = NULL`),
/// * comparisons against `Null` yield `Null`-ish results, which the
///   expression evaluator in `prophet-sql` folds to `false` in predicates,
/// * integers promote to floats when mixed in arithmetic.
///
/// Unlike SQL, [`Value::total_cmp`] defines a *total* order (Null < Bool <
/// Int/Float < Str) so that values can be used as sort keys and in ordered
/// collections — the offline optimizer sorts candidate parameter points by
/// their objective values.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL / missing data.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// True iff this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a float, promoting integers and booleans.
    ///
    /// This is the numeric gateway used by every aggregate: Monte Carlo
    /// estimates are always computed in `f64`.
    pub fn as_f64(&self) -> DataResult<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(DataError::TypeMismatch {
                expected: "numeric",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Interpret as an integer. Floats are accepted only when they are
    /// integral, because parameter values (weeks, counts) must be exact.
    pub fn as_i64(&self) -> DataResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Ok(*f as i64),
            other => Err(DataError::TypeMismatch {
                expected: "integer",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Interpret as a boolean. Numbers follow SQL Server's implicit rule:
    /// non-zero is true.
    pub fn as_bool(&self) -> DataResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int(i) => Ok(*i != 0),
            Value::Float(f) => Ok(*f != 0.0),
            other => Err(DataError::TypeMismatch {
                expected: "boolean",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Interpret as a string slice.
    pub fn as_str(&self) -> DataResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DataError::TypeMismatch {
                expected: "string",
                found: format!("{other:?}"),
            }),
        }
    }

    /// SQL-style addition with null absorption and int→float promotion.
    pub fn add(&self, rhs: &Value) -> DataResult<Value> {
        self.numeric_binop(rhs, "+", |a, b| a + b, |a, b| a.checked_add(b))
    }

    /// SQL-style subtraction.
    pub fn sub(&self, rhs: &Value) -> DataResult<Value> {
        self.numeric_binop(rhs, "-", |a, b| a - b, |a, b| a.checked_sub(b))
    }

    /// SQL-style multiplication.
    pub fn mul(&self, rhs: &Value) -> DataResult<Value> {
        self.numeric_binop(rhs, "*", |a, b| a * b, |a, b| a.checked_mul(b))
    }

    /// SQL-style division. Integer division by zero yields `Null` (matching
    /// how Prophet's aggregates treat undefined cells) rather than an error,
    /// because a single degenerate world must not abort a whole simulation.
    pub fn div(&self, rhs: &Value) -> DataResult<Value> {
        if self.is_null() || rhs.is_null() {
            return Ok(Value::Null);
        }
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            _ => {
                let a = self.as_f64()?;
                let b = rhs.as_f64()?;
                if b == 0.0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(a / b))
                }
            }
        }
    }

    /// Remainder, with the same zero handling as [`Value::div`].
    pub fn rem(&self, rhs: &Value) -> DataResult<Value> {
        if self.is_null() || rhs.is_null() {
            return Ok(Value::Null);
        }
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => {
                let a = self.as_f64()?;
                let b = rhs.as_f64()?;
                if b == 0.0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(a % b))
                }
            }
        }
    }

    /// Unary negation.
    pub fn neg(&self) -> DataResult<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(DataError::InvalidOperation(format!(
                "cannot negate {other:?}"
            ))),
        }
    }

    fn numeric_binop(
        &self,
        rhs: &Value,
        op: &'static str,
        ff: impl Fn(f64, f64) -> f64,
        ii: impl Fn(i64, i64) -> Option<i64>,
    ) -> DataResult<Value> {
        if self.is_null() || rhs.is_null() {
            return Ok(Value::Null);
        }
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => match ii(*a, *b) {
                Some(v) => Ok(Value::Int(v)),
                // Overflow falls back to float arithmetic instead of wrapping:
                // capacity models legitimately multiply large core counts.
                None => Ok(Value::Float(ff(*a as f64, *b as f64))),
            },
            (Value::Str(_), _) | (_, Value::Str(_)) | (Value::Bool(_), _) | (_, Value::Bool(_)) => {
                Err(DataError::InvalidOperation(format!(
                    "{self:?} {op} {rhs:?}"
                )))
            }
            _ => Ok(Value::Float(ff(self.as_f64()?, rhs.as_f64()?))),
        }
    }

    /// SQL comparison: returns `None` when either side is `Null` (unknown),
    /// otherwise the ordering between comparable values.
    pub fn sql_cmp(&self, rhs: &Value) -> DataResult<Option<Ordering>> {
        if self.is_null() || rhs.is_null() {
            return Ok(None);
        }
        match (self, rhs) {
            (Value::Bool(a), Value::Bool(b)) => Ok(Some(a.cmp(b))),
            (Value::Str(a), Value::Str(b)) => Ok(Some(a.cmp(b))),
            (Value::Str(_), _) | (_, Value::Str(_)) | (Value::Bool(_), _) | (_, Value::Bool(_)) => {
                Err(DataError::InvalidOperation(format!(
                    "cannot compare {self:?} with {rhs:?}"
                )))
            }
            _ => {
                let a = self.as_f64()?;
                let b = rhs.as_f64()?;
                Ok(a.partial_cmp(&b))
            }
        }
    }

    /// Total order over all values: `Null < Bool < numeric < Str`.
    ///
    /// Floats are ordered via [`f64::total_cmp`], and integers compare with
    /// floats numerically, so `Int(2) == Float(2.0)` under this ordering.
    pub fn total_cmp(&self, rhs: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, rhs) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            _ => rank(self).cmp(&rank(rhs)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_promotes_int_to_float() {
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(Value::Int(2).mul(&Value::Int(3)).unwrap(), Value::Int(6));
        assert_eq!(
            Value::Float(1.0).sub(&Value::Int(1)).unwrap(),
            Value::Float(0.0)
        );
    }

    #[test]
    fn null_absorbs_arithmetic() {
        for v in [Value::Int(1), Value::Float(2.0)] {
            assert_eq!(v.add(&Value::Null).unwrap(), Value::Null);
            assert_eq!(Value::Null.mul(&v).unwrap(), Value::Null);
        }
    }

    #[test]
    fn division_by_zero_yields_null() {
        assert_eq!(Value::Int(4).div(&Value::Int(0)).unwrap(), Value::Null);
        assert_eq!(
            Value::Float(4.0).div(&Value::Float(0.0)).unwrap(),
            Value::Null
        );
        assert_eq!(Value::Int(7).rem(&Value::Int(0)).unwrap(), Value::Null);
    }

    #[test]
    fn integer_division_truncates() {
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(7).rem(&Value::Int(2)).unwrap(), Value::Int(1));
    }

    #[test]
    fn integer_overflow_falls_back_to_float() {
        let big = Value::Int(i64::MAX);
        match big.add(&Value::Int(1)).unwrap() {
            Value::Float(f) => assert!(f > 9.2e18),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn string_arithmetic_is_rejected() {
        assert!(Value::Str("a".into()).add(&Value::Int(1)).is_err());
        assert!(Value::Bool(true).mul(&Value::Int(1)).is_err());
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null).unwrap(), None);
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_rejects_cross_kind() {
        assert!(Value::Str("1".into()).sql_cmp(&Value::Int(1)).is_err());
        assert!(Value::Bool(true).sql_cmp(&Value::Int(1)).is_err());
    }

    #[test]
    fn total_cmp_is_total_and_ranks_kinds() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(0.5),
            Value::Int(1),
            Value::Str("a".into()),
        ];
        for w in vals.windows(2) {
            assert_ne!(
                w[0].total_cmp(&w[1]),
                Ordering::Greater,
                "{:?} !<= {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn casts_behave() {
        assert_eq!(Value::Float(3.0).as_i64().unwrap(), 3);
        assert!(Value::Float(3.5).as_i64().is_err());
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert!(Value::Str("x".into()).as_f64().is_err());
        assert!(!Value::Int(0).as_bool().unwrap());
        assert!(Value::Int(7).as_bool().unwrap());
    }

    #[test]
    fn display_is_sql_like() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("azure".into()).to_string(), "azure");
    }

    #[test]
    fn from_option_maps_none_to_null() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
    }
}
