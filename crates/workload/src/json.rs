//! Dependency-free JSON emission for flat rows.
//!
//! The `reproduce` binary writes the paper's claim list as JSON, and the
//! benchmark its reports. The build environment has no crates.io access, so
//! instead of `serde`/`serde_json` the row structs implement the small
//! [`JsonRow`] trait via the [`crate::json_row!`] macro.

use std::fmt::Write as _;

/// A JSON scalar value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float (serialized as `null` when non-finite, which JSON cannot
    /// represent).
    Float(f64),
    /// A string.
    Str(String),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl JsonValue {
    fn render(&self, out: &mut String) {
        match self {
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) if !f.is_finite() => out.push_str("null"),
            JsonValue::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => {
                let _ = write!(out, "{f:.1}");
            }
            JsonValue::Float(f) => {
                let _ = write!(out, "{f}");
            }
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

/// An experiment row that can render itself as a flat JSON object.
pub trait JsonRow {
    /// The row's fields, in serialization order.
    fn fields(&self) -> Vec<(&'static str, JsonValue)>;
}

/// Implements [`JsonRow`] for a struct by listing its fields (all of which
/// must convert into [`JsonValue`] via `Clone` + `Into`).
#[macro_export]
macro_rules! json_row {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::JsonRow for $ty {
            fn fields(&self) -> Vec<(&'static str, $crate::json::JsonValue)> {
                vec![$((stringify!($field), self.$field.clone().into())),+]
            }
        }
    };
}

/// Serializes rows as a pretty-printed JSON array of objects (the same shape
/// `serde_json::to_string_pretty` produced for the derive-based rows).
pub fn to_json<T: JsonRow>(rows: &[T]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        let fields = row.fields();
        for (j, (name, value)) in fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(name);
            out.push_str("\": ");
            value.render(&mut out);
        }
        out.push_str("\n  }");
    }
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        n: usize,
        cost: f64,
        name: String,
        ok: bool,
    }
    json_row!(Row { n, cost, name, ok });

    #[test]
    fn renders_a_pretty_array_of_objects() {
        let rows = vec![Row {
            n: 5,
            cost: 5.0 / 3.0,
            name: "SODA".into(),
            ok: true,
        }];
        let json = to_json(&rows);
        assert!(json.contains("\"n\": 5"), "{json}");
        assert!(json.contains("\"name\": \"SODA\""), "{json}");
        assert!(json.contains("\"ok\": true"), "{json}");
        assert!(json.starts_with("[\n  {"), "{json}");
        assert!(json.ends_with("\n]"), "{json}");
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        let rows = vec![Row {
            n: 1,
            cost: 5.0,
            name: String::new(),
            ok: false,
        }];
        assert!(to_json(&rows).contains("\"cost\": 5.0"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let rows = vec![Row {
            n: 1,
            cost: f64::INFINITY,
            name: String::new(),
            ok: false,
        }];
        assert!(to_json(&rows).contains("\"cost\": null"));
    }

    #[test]
    fn strings_are_escaped() {
        let rows = vec![Row {
            n: 1,
            cost: 0.0,
            name: "a\"b\\c\nd".into(),
            ok: false,
        }];
        assert!(to_json(&rows).contains(r#""a\"b\\c\nd""#));
    }

    #[test]
    fn empty_input_is_an_empty_array() {
        let rows: Vec<Row> = Vec::new();
        assert_eq!(to_json(&rows), "[]");
    }
}
