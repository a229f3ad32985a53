//! Typed, nullable, growable columns.

use crate::error::{DataError, DataResult};
use crate::schema::DataType;
use crate::value::Value;

/// A single column of homogeneously typed, nullable cells.
///
/// Storage is one `Vec<Option<T>>` per type rather than `Vec<Value>`: the
/// Monte Carlo engine pushes millions of numeric cells per sweep and the
/// per-cell enum tag plus string capacity of `Value` would triple memory
/// traffic. `Option<f64>`/`Option<i64>` are niche-free but still half the
/// size of `Value`, and the common all-float columns stay cache friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean cells.
    Bool(Vec<Option<bool>>),
    /// Integer cells.
    Int(Vec<Option<i64>>),
    /// Float cells.
    Float(Vec<Option<f64>>),
    /// String cells.
    Str(Vec<Option<String>>),
}

impl Column {
    /// An empty column of the given type with capacity for `cap` rows.
    pub fn with_capacity(data_type: DataType, cap: usize) -> Self {
        match data_type {
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(Vec::with_capacity(cap)),
        }
    }

    /// An empty column of the given type.
    pub fn new(data_type: DataType) -> Self {
        Column::with_capacity(data_type, 0)
    }

    /// The column's declared type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(_) => DataType::Bool,
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True if the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch cell `idx` as a [`Value`] (clones strings).
    pub fn get(&self, idx: usize) -> DataResult<Value> {
        let len = self.len();
        if idx >= len {
            return Err(DataError::RowOutOfBounds { index: idx, len });
        }
        Ok(match self {
            Column::Bool(v) => v[idx].map(Value::Bool).unwrap_or(Value::Null),
            Column::Int(v) => v[idx].map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v[idx].map(Value::Float).unwrap_or(Value::Null),
            Column::Str(v) => v[idx].clone().map(Value::Str).unwrap_or(Value::Null),
        })
    }

    /// Push a value, coercing `Int` into a `Float` column (the only implicit
    /// widening the engine performs). Any other mismatch is an error.
    pub fn push(&mut self, value: Value) -> DataResult<()> {
        match (self, value) {
            (Column::Bool(v), Value::Bool(b)) => v.push(Some(b)),
            (Column::Int(v), Value::Int(i)) => v.push(Some(i)),
            (Column::Float(v), Value::Float(f)) => v.push(Some(f)),
            (Column::Float(v), Value::Int(i)) => v.push(Some(i as f64)),
            (Column::Str(v), Value::Str(s)) => v.push(Some(s)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Null) => v.push(None),
            (col, value) => {
                return Err(DataError::TypeMismatch {
                    expected: match col.data_type() {
                        DataType::Bool => "bool",
                        DataType::Int => "integer",
                        DataType::Float => "float",
                        DataType::Str => "string",
                    },
                    found: format!("{value:?}"),
                })
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = Column::new(DataType::Float);
        c.push(Value::Float(1.5)).unwrap();
        c.push(Value::Int(2)).unwrap(); // implicit widening
        c.push(Value::Null).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0).unwrap(), Value::Float(1.5));
        assert_eq!(c.get(1).unwrap(), Value::Float(2.0));
        assert_eq!(c.get(2).unwrap(), Value::Null);
        assert!(c.get(3).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(DataType::Int);
        assert!(c.push(Value::Str("x".into())).is_err());
        assert!(c.push(Value::Float(0.5)).is_err());
        // failed pushes must not grow the column
        assert_eq!(c.len(), 0);
    }
}
