//! Dependency-free CSV emission (RFC-4180 quoting).
//!
//! Materialized result tables are dumped as CSV so the series can be diffed
//! across runs and plotted externally. Only the writing half of CSV is
//! needed; scenario inputs are authored in the DSL, not CSV.

use crate::error::DataResult;
use crate::table::Table;

/// Quote a single CSV field if it contains a comma, quote or newline.
fn quote_field(field: &str, out: &mut String) {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Render a table as CSV with a header row.
pub fn to_csv(table: &Table) -> DataResult<String> {
    let mut out = String::new();
    let n = table.schema().len();
    for (i, field) in table.schema().fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        quote_field(&field.name, &mut out);
    }
    out.push('\n');
    for row in table.rows() {
        for c in 0..n {
            if c > 0 {
                out.push(',');
            }
            let v = row.get_at(c)?;
            // NULL renders as an empty field, matching common CSV practice.
            if !v.is_null() {
                let text = v.to_string();
                quote_field(&text, &mut out);
            }
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::table::TableBuilder;
    use crate::value::Value;

    #[test]
    fn basic_csv() {
        let schema = Schema::of(&[("week", DataType::Int), ("note", DataType::Str)]);
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Value::Int(1), Value::Str("ok".into())])
            .unwrap();
        b.push_row(vec![Value::Int(2), Value::Null]).unwrap();
        let csv = to_csv(&b.finish()).unwrap();
        assert_eq!(csv, "week,note\n1,ok\n2,\n");
    }

    #[test]
    fn quoting_rules() {
        let schema = Schema::of(&[("s", DataType::Str)]);
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Value::Str("a,b".into())]).unwrap();
        b.push_row(vec![Value::Str("he said \"hi\"".into())])
            .unwrap();
        b.push_row(vec![Value::Str("line1\nline2".into())]).unwrap();
        let csv = to_csv(&b.finish()).unwrap();
        let lines: Vec<&str> = csv.splitn(2, '\n').collect();
        assert_eq!(lines[0], "s");
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
        assert!(csv.contains("\"line1\nline2\""));
    }
}
