//! Tables: a schema plus columnar data, built row by row and read back.

use std::fmt;

use crate::column::Column;
use crate::error::{DataError, DataResult};
use crate::row::Row;
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// An in-memory relation.
///
/// Tables are the workspace's *export* format: `prophet_mc::materialize`
/// renders cached basis distributions as tables, and [`crate::csv`] and
/// `Display` print them. Nothing on the evaluation path builds one.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column by position. Panics on bad index (internal use only; external
    /// callers go through [`Table::column`]).
    pub(crate) fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> DataResult<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Borrowed view of row `idx`.
    pub fn row(&self, idx: usize) -> DataResult<Row<'_>> {
        if idx >= self.rows {
            return Err(DataError::RowOutOfBounds {
                index: idx,
                len: self.rows,
            });
        }
        Ok(Row::new(self, idx))
    }

    /// Iterate over all rows.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        (0..self.rows).map(move |i| Row::new(self, i))
    }

    /// Single cell by (row, column-name).
    pub fn cell(&self, row: usize, column: &str) -> DataResult<Value> {
        if row >= self.rows {
            return Err(DataError::RowOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        self.column(column)?.get(row)
    }
}

impl fmt::Display for Table {
    /// Pretty-print in a psql-ish box layout; used by example binaries.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|fd| fd.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let mut rendered: Vec<Vec<String>> = Vec::with_capacity(self.rows);
        for row in self.rows() {
            let mut cells = Vec::with_capacity(headers.len());
            for (c, width) in widths.iter_mut().enumerate() {
                let text = row.get_at(c).map_err(|_| fmt::Error)?.to_string();
                *width = (*width).max(text.len());
                cells.push(text);
            }
            rendered.push(cells);
        }
        let write_sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for w in &widths {
                write!(f, "+{}", "-".repeat(w + 2))?;
            }
            writeln!(f, "+")
        };
        write_sep(f)?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, "| {h:w$} ")?;
        }
        writeln!(f, "|")?;
        write_sep(f)?;
        for cells in &rendered {
            for (c, w) in cells.iter().zip(&widths) {
                write!(f, "| {c:>w$} ")?;
            }
            writeln!(f, "|")?;
        }
        write_sep(f)
    }
}

/// Row-at-a-time table construction.
///
/// `prophet_mc::materialize` emits rows one at a time; the builder validates
/// arity and types on each push so malformed scenarios fail with a positioned
/// error instead of corrupting columns.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl TableBuilder {
    /// Start building a table with the given schema.
    pub fn new(schema: Schema) -> Self {
        TableBuilder::with_capacity(schema, 0)
    }

    /// Start building with a row-capacity hint (a materialized sample set
    /// knows its row count up front).
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, rows))
            .collect();
        TableBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Append one row. The row must have exactly one value per column.
    ///
    /// On a type error the row is *not* partially applied: all cells are
    /// validated before any column is touched.
    pub fn push_row(&mut self, row: Vec<Value>) -> DataResult<()> {
        if row.len() != self.schema.len() {
            return Err(DataError::SchemaMismatch(format!(
                "row has {} values for {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        for (field, value) in self.schema.fields().iter().zip(&row) {
            if let Some(dt) = value.data_type() {
                let compatible = dt == field.data_type
                    || (field.data_type == DataType::Float && dt == DataType::Int);
                if !compatible {
                    return Err(DataError::TypeMismatch {
                        expected: match field.data_type {
                            DataType::Bool => "bool",
                            DataType::Int => "integer",
                            DataType::Float => "float",
                            DataType::Str => "string",
                        },
                        found: format!("{value:?} in column `{}`", field.name),
                    });
                }
            }
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Finalize into an immutable [`Table`].
    pub fn finish(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn week_table() -> Table {
        let schema = Schema::of(&[("week", DataType::Int), ("demand", DataType::Float)]);
        let mut b = TableBuilder::with_capacity(schema, 4);
        for (w, d) in [(0i64, 10.0), (1, 12.5), (2, 9.0), (3, 15.0)] {
            b.push_row(vec![Value::Int(w), Value::Float(d)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn build_and_read() {
        let t = week_table();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.cell(2, "demand").unwrap(), Value::Float(9.0));
        assert!(t.cell(9, "demand").is_err());
        assert!(t.cell(0, "nope").is_err());
    }

    #[test]
    fn push_row_is_atomic_on_type_error() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        // second cell is bad; first must not be committed
        assert!(b
            .push_row(vec![Value::Int(1), Value::Str("x".into())])
            .is_err());
        assert_eq!(b.len(), 0);
        let t = b.finish();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.column("a").unwrap().len(), 0);
    }

    #[test]
    fn display_renders_box() {
        let t = week_table();
        let s = t.to_string();
        assert!(s.contains("| week |"));
        assert!(s.contains("12.5"));
    }

    #[test]
    fn nulls_flow_through_builder() {
        let schema = Schema::of(&[("v", DataType::Float)]);
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Value::Null]).unwrap();
        b.push_row(vec![Value::Float(2.0)]).unwrap();
        let t = b.finish();
        assert_eq!(t.cell(0, "v").unwrap(), Value::Null);
        assert_eq!(t.cell(1, "v").unwrap(), Value::Float(2.0));
    }
}
