//! Small helpers over the vendored `serde::Value` tree: building objects
//! for output, and reading result files back for `compare`.

use serde::{Serialize, Value};

/// Lets a hand-built [`Value`] tree go through `serde_json`'s writer.
pub struct Raw(pub Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// An object from `(key, value)` pairs, in order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// An array of numbers.
pub fn numbers(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::F64(v)).collect())
}

/// An array of strings.
pub fn strings(values: &[String]) -> Value {
    Value::Array(values.iter().cloned().map(Value::Str).collect())
}

/// Compact rendering.
pub fn render(value: Value) -> String {
    serde_json::to_string(&Raw(value)).expect("a Value tree always serializes")
}

/// Indented rendering.
pub fn render_pretty(value: Value) -> String {
    serde_json::to_string_pretty(&Raw(value)).expect("a Value tree always serializes")
}

/// The member `key` of an object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Any JSON number as `f64`.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        Value::F64(v) => Some(*v),
        _ => None,
    }
}

/// The elements of an array.
pub fn as_array(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Array(items) => Some(items),
        _ => None,
    }
}

/// A string.
pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}
