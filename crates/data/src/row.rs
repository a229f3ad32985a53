//! Borrowed row views over a [`crate::table::Table`].

use crate::error::DataResult;
use crate::table::Table;
use crate::value::Value;

/// A lightweight view of one row of a table.
///
/// Rows borrow the table; fetching a cell materializes a [`Value`] on demand
/// (cloning only for strings).
#[derive(Debug, Clone, Copy)]
pub struct Row<'t> {
    table: &'t Table,
    index: usize,
}

impl<'t> Row<'t> {
    pub(crate) fn new(table: &'t Table, index: usize) -> Self {
        Row { table, index }
    }

    /// The row's position within its table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Cell by column name.
    pub fn get(&self, column: &str) -> DataResult<Value> {
        let idx = self.table.schema().index_of(column)?;
        self.table.column_at(idx).get(self.index)
    }

    /// Cell by column position.
    pub fn get_at(&self, column_idx: usize) -> DataResult<Value> {
        self.table.column_at(column_idx).get(self.index)
    }

    /// All cells, in schema order.
    pub fn values(&self) -> DataResult<Vec<Value>> {
        (0..self.table.schema().len())
            .map(|i| self.get_at(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::schema::{DataType, Schema};
    use crate::table::TableBuilder;
    use crate::value::Value;

    #[test]
    fn row_accessors() {
        let schema = Schema::of(&[("week", DataType::Int), ("demand", DataType::Float)]);
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Value::Int(0), Value::Float(10.5)]).unwrap();
        b.push_row(vec![Value::Int(1), Value::Float(11.25)])
            .unwrap();
        let t = b.finish();

        let row = t.row(1).unwrap();
        assert_eq!(row.index(), 1);
        assert_eq!(row.get("week").unwrap(), Value::Int(1));
        assert_eq!(row.get_at(1).unwrap(), Value::Float(11.25));
        assert_eq!(
            row.values().unwrap(),
            vec![Value::Int(1), Value::Float(11.25)]
        );
        assert!(row.get("nope").is_err());
    }
}
