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

pub(crate) fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
    match lookup(obj, key)? {
        Value::U64(n) => Ok(*n),
        Value::I64(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(format!("{key}: expected an unsigned integer")),
    }
}

pub(crate) fn get_u16(obj: &[(String, Value)], key: &str) -> Result<u16, String> {
    u16::try_from(get_u64(obj, key)?).map_err(|_| format!("{key}: out of u16 range"))
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

pub(crate) fn addr_to_value(addr: NodeAddr) -> Value {
    Value::Object(vec![
        ("pod".into(), Value::U64(addr.pod as u64)),
        ("tor".into(), Value::U64(addr.tor as u64)),
        ("host".into(), Value::U64(addr.host as u64)),
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
