//! Column metadata: types, fields and schemas.

use std::fmt;

use crate::error::{DataError, DataResult};

/// The four storable scalar types.
///
/// `Null` is deliberately *not* a type: it is a value that inhabits every
/// type, mirroring SQL. Type inference in `prophet-sql` resolves untyped
/// expressions to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
        };
        f.write_str(name)
    }
}

/// A named, typed column slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (case-preserved; lookups are case-sensitive like TSQL
    /// under a binary collation).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered list of fields with unique names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> DataResult<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(DataError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// Empty schema (zero columns).
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| Field::new(*n, *t)).collect())
            .expect("static schema literals must not contain duplicates")
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if there are no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> DataResult<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| DataError::UnknownColumn(name.to_owned()))
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> DataResult<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// Append a field, preserving uniqueness.
    pub fn push(&mut self, field: Field) -> DataResult<()> {
        if self.fields.iter().any(|f| f.name == field.name) {
            return Err(DataError::DuplicateColumn(field.name));
        }
        self.fields.push(field);
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Float),
        ])
        .unwrap_err();
        assert_eq!(err, DataError::DuplicateColumn("a".into()));
    }

    #[test]
    fn index_and_lookup() {
        let s = Schema::of(&[("week", DataType::Int), ("demand", DataType::Float)]);
        assert_eq!(s.index_of("demand").unwrap(), 1);
        assert_eq!(s.field("week").unwrap().data_type, DataType::Int);
        assert!(s.index_of("capacity").is_err());
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn push_checks_uniqueness() {
        let mut s = Schema::of(&[("a", DataType::Int)]);
        assert!(s.push(Field::new("b", DataType::Int)).is_ok());
        assert!(s.push(Field::new("a", DataType::Int)).is_err());
    }

    #[test]
    fn display_round_trip_shape() {
        let s = Schema::of(&[("week", DataType::Int), ("demand", DataType::Float)]);
        assert_eq!(s.to_string(), "(week INT, demand FLOAT)");
    }
}
