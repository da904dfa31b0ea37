//! A small CSV reader for loading user data into source relations.
//!
//! Supports the common subset: a header row naming the schema attributes
//! (any order, case-insensitive), double-quoted fields with `""` escapes,
//! and per-attribute typed parsing. Empty fields become SQL `NULL`.

use fusion_types::error::{FusionError, Result};
use fusion_types::{Relation, Schema, Tuple, Value, ValueType};

/// Parses CSV text into a relation over `schema`.
///
/// # Errors
/// Fails on malformed quoting, unknown or missing header columns, wrong
/// field counts, and values that do not parse as the attribute's type.
pub fn parse_csv(text: &str, schema: &Schema) -> Result<Relation> {
    let mut records = split_records(text)?;
    if records.is_empty() {
        return Err(FusionError::parse("CSV input has no header row"));
    }
    let header = records.remove(0);
    // Map each CSV column to a schema attribute index.
    let mut col_to_attr = Vec::with_capacity(header.len());
    for name in &header {
        let idx = schema
            .attributes()
            .iter()
            .position(|a| a.name.eq_ignore_ascii_case(name.trim()))
            .ok_or_else(|| FusionError::parse(format!("unknown CSV column `{name}`")))?;
        col_to_attr.push(idx);
    }
    for attr_idx in 0..schema.arity() {
        if !col_to_attr.contains(&attr_idx) {
            return Err(FusionError::parse(format!(
                "CSV is missing column `{}`",
                schema.attribute(attr_idx).name
            )));
        }
    }
    let mut rows = Vec::with_capacity(records.len());
    for (lineno, record) in records.into_iter().enumerate() {
        if record.len() != header.len() {
            return Err(FusionError::parse(format!(
                "row {} has {} fields, expected {}",
                lineno + 2,
                record.len(),
                header.len()
            )));
        }
        let mut values = vec![Value::Null; schema.arity()];
        for (field, &attr_idx) in record.iter().zip(&col_to_attr) {
            values[attr_idx] = parse_value(field, schema.attribute(attr_idx).ty, lineno + 2)?;
        }
        rows.push(Tuple::new(values));
    }
    Ok(Relation::from_rows(schema.clone(), rows))
}

/// Reads and parses a CSV file.
///
/// # Errors
/// Propagates I/O failures (as execution errors) and parse failures.
pub fn load_csv(path: &std::path::Path, schema: &Schema) -> Result<Relation> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| FusionError::execution(format!("cannot read {}: {e}", path.display())))?;
    parse_csv(&text, schema)
}

/// Renders a relation as CSV text (header row in schema order, quoted
/// fields where needed, `NULL`s as empty fields). Inverse of
/// [`parse_csv`] up to float formatting.
pub fn to_csv(relation: &Relation) -> String {
    let schema = relation.schema();
    let mut out = String::new();
    let header: Vec<&str> = schema
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in relation.rows() {
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&csv_field(v));
        }
        out.push('\n');
    }
    out
}

fn csv_field(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => {
            let s = s.as_str();
            if s.contains(',') || s.contains('"') || s.contains('\n') || s.trim() != s {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
    }
}

fn parse_value(field: &str, ty: ValueType, lineno: usize) -> Result<Value> {
    let f = field.trim();
    if f.is_empty() {
        return Ok(Value::Null);
    }
    let err = |detail: String| FusionError::Parse {
        detail,
        offset: None,
    };
    match ty {
        ValueType::Int => f
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| err(format!("row {lineno}: `{f}` is not an integer"))),
        ValueType::Float => f
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err(format!("row {lineno}: `{f}` is not a number"))),
        ValueType::Bool => match f.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" | "yes" => Ok(Value::Bool(true)),
            "false" | "f" | "0" | "no" => Ok(Value::Bool(false)),
            _ => Err(err(format!("row {lineno}: `{f}` is not a boolean"))),
        },
        ValueType::Str | ValueType::Null => Ok(Value::str(f)),
    }
}

/// Splits CSV text into records of fields, honoring quotes.
fn split_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        field.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
            continue;
        }
        match c {
            '"' => {
                if field.trim().is_empty() {
                    field.clear();
                    in_quotes = true;
                } else {
                    return Err(FusionError::parse("quote inside unquoted CSV field"));
                }
            }
            ',' => {
                record.push(std::mem::take(&mut field));
            }
            '\r' => {}
            '\n' => {
                record.push(std::mem::take(&mut field));
                if !(record.len() == 1 && record[0].trim().is_empty()) {
                    records.push(std::mem::take(&mut record));
                } else {
                    record.clear();
                }
            }
            other => field.push(other),
        }
    }
    if in_quotes {
        return Err(FusionError::parse("unterminated quoted CSV field"));
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        if !(record.len() == 1 && record[0].trim().is_empty()) {
            records.push(record);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::schema::dmv_schema;

    #[test]
    fn parses_typed_rows() {
        let rel = parse_csv("L,V,D\nJ55,dui,1993\nT21,sp,1994\n", &dmv_schema()).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.rows()[0].get(2), &Value::Int(1993));
        assert_eq!(rel.rows()[1].get(0), &Value::str("T21"));
    }

    #[test]
    fn header_order_is_flexible() {
        let rel = parse_csv("D,L,V\n1993,J55,dui\n", &dmv_schema()).unwrap();
        assert_eq!(rel.rows()[0].get(0), &Value::str("J55"));
        assert_eq!(rel.rows()[0].get(2), &Value::Int(1993));
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let rel = parse_csv("L,V,D\n\"J,55\",\"say \"\"hi\"\"\",1990\n", &dmv_schema()).unwrap();
        assert_eq!(rel.rows()[0].get(0), &Value::str("J,55"));
        assert_eq!(rel.rows()[0].get(1), &Value::str("say \"hi\""));
    }

    #[test]
    fn empty_fields_are_null() {
        let rel = parse_csv("L,V,D\nJ55,,\n", &dmv_schema()).unwrap();
        assert_eq!(rel.rows()[0].get(1), &Value::Null);
        assert_eq!(rel.rows()[0].get(2), &Value::Null);
    }

    #[test]
    fn errors_are_descriptive() {
        let bad_col = parse_csv("L,V,Z\nJ55,dui,1\n", &dmv_schema()).unwrap_err();
        assert!(
            bad_col.to_string().contains("unknown CSV column"),
            "{bad_col}"
        );
        let missing = parse_csv("L,V\nJ55,dui\n", &dmv_schema()).unwrap_err();
        assert!(missing.to_string().contains("missing column"), "{missing}");
        let bad_int = parse_csv("L,V,D\nJ55,dui,abc\n", &dmv_schema()).unwrap_err();
        assert!(bad_int.to_string().contains("not an integer"), "{bad_int}");
        let bad_width = parse_csv("L,V,D\nJ55,dui\n", &dmv_schema()).unwrap_err();
        assert!(bad_width.to_string().contains("fields"), "{bad_width}");
        let unterminated = parse_csv("L,V,D\n\"J55,dui,1\n", &dmv_schema()).unwrap_err();
        assert!(
            unterminated.to_string().contains("unterminated"),
            "{unterminated}"
        );
    }

    #[test]
    fn windows_line_endings_and_no_trailing_newline() {
        let rel = parse_csv("L,V,D\r\nJ55,dui,1993\r\nT21,sp,1994", &dmv_schema()).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn round_trip_through_text() {
        let rel = parse_csv(
            "L,V,D\n\"J,55\",dui,1993\nT21,,1994\n\"a\"\"b\",sp,\n",
            &dmv_schema(),
        )
        .unwrap();
        let text = to_csv(&rel);
        let back = parse_csv(&text, &dmv_schema()).unwrap();
        assert_eq!(rel.rows(), back.rows());
    }

    #[test]
    fn round_trip_of_long_and_quoted_strings() {
        // Keys on both sides of `Text`'s inline limit, with the
        // characters that force quoting, and multi-byte UTF-8.
        let keys = [
            "x".repeat(fusion_types::Text::INLINE_CAP),
            "x".repeat(fusion_types::Text::INLINE_CAP + 1),
            format!("{}, \"quoted\" and long", "k".repeat(30)),
            "short,\"q\"".to_string(),
            "日本語のテキスト, 長い".to_string(),
        ];
        let rel = Relation::from_rows(
            dmv_schema(),
            keys.iter()
                .map(|k| fusion_types::tuple![k.as_str(), "dui", 1993i64])
                .collect(),
        );
        let back = parse_csv(&to_csv(&rel), &dmv_schema()).unwrap();
        assert_eq!(rel.rows(), back.rows());
        for (row, key) in back.rows().iter().zip(&keys) {
            assert_eq!(row.get(0), &Value::str(key.as_str()));
        }
    }

    #[test]
    fn blank_lines_skipped_and_empty_input_rejected() {
        let rel = parse_csv("L,V,D\n\nJ55,dui,1993\n\n", &dmv_schema()).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(parse_csv("", &dmv_schema()).is_err());
    }
}
