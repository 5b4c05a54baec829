//! `serde::Value` tree helpers shared by the repro formats (the vendored
//! serde stub has no derive).

use dcnet::NodeAddr;
use serde::Value;

pub(crate) fn as_object<'a>(value: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err(format!("{what}: expected an object")),
    }
}

pub(crate) fn lookup<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// `value` as an unsigned integer that fits `T`; `what` names the field
/// in the error. Every narrowing goes through here, so a hand-edited
/// out-of-range number is rejected instead of silently wrapped.
pub(crate) fn as_uint<T: TryFrom<u64>>(value: &Value, what: &str) -> Result<T, String> {
    let n = match value {
        Value::U64(n) => *n,
        Value::I64(n) if *n >= 0 => *n as u64,
        _ => return Err(format!("{what}: expected an unsigned integer")),
    };
    T::try_from(n).map_err(|_| format!("{what}: out of {} range", core::any::type_name::<T>()))
}

pub(crate) fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
    as_uint(lookup(obj, key)?, key)
}

pub(crate) fn get_u32(obj: &[(String, Value)], key: &str) -> Result<u32, String> {
    as_uint(lookup(obj, key)?, key)
}

pub(crate) fn get_u16(obj: &[(String, Value)], key: &str) -> Result<u16, String> {
    as_uint(lookup(obj, key)?, key)
}

pub(crate) fn get_bool(obj: &[(String, Value)], key: &str) -> Result<bool, String> {
    match lookup(obj, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("{key}: expected a boolean")),
    }
}

pub(crate) fn get_str<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
    match lookup(obj, key)? {
        Value::Str(s) => Ok(s),
        _ => Err(format!("{key}: expected a string")),
    }
}

/// Parses the array field `key` element by element.
pub(crate) fn get_array<T>(
    obj: &[(String, Value)],
    key: &str,
    item: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match lookup(obj, key)? {
        Value::Array(items) => items.iter().map(item).collect(),
        _ => Err(format!("{key}: expected an array")),
    }
}

/// An unsigned-integer field.
pub(crate) fn uint(key: &str, n: impl Into<u64>) -> (String, Value) {
    (key.into(), Value::U64(n.into()))
}

/// An array field, one element per item.
pub(crate) fn array<T>(key: &str, items: &[T], item: impl Fn(&T) -> Value) -> (String, Value) {
    (key.into(), Value::Array(items.iter().map(item).collect()))
}

pub(crate) fn addr_to_value(addr: NodeAddr) -> Value {
    Value::Object(vec![
        uint("pod", addr.pod),
        uint("tor", addr.tor),
        uint("host", addr.host),
    ])
}

/// Parses an address object; `what` names the field in error messages.
pub(crate) fn addr_from_value(value: &Value, what: &str) -> Result<NodeAddr, String> {
    let obj = as_object(value, what)?;
    Ok(NodeAddr::new(
        get_u16(obj, "pod")?,
        get_u16(obj, "tor")?,
        get_u16(obj, "host")?,
    ))
}
