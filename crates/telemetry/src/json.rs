//! Minimal JSON parser for validating telemetry output.
//!
//! The vendored `serde_json` stub is serialize-only, but the CI telemetry
//! smoke lane must prove that an exported trace actually *parses* as JSON.
//! This module is a small recursive-descent parser over the full JSON
//! grammar, used for validation (and light structural checks) only.

use serde::Value;

/// Parses `input` as a single JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Validates that `input` is well-formed JSON.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

/// Validates that `input` is well-formed Chrome trace-event JSON in the
/// object form: a top-level object whose `traceEvents` member is an array
/// of event objects each carrying a `ph` phase string.
pub fn validate_chrome_trace(input: &str) -> Result<(), String> {
    let root = parse(input)?;
    let Value::Object(fields) = root else {
        return Err("top level is not an object".into());
    };
    let Some((_, events)) = fields.iter().find(|(k, _)| k == "traceEvents") else {
        return Err("missing \"traceEvents\" member".into());
    };
    let Value::Array(events) = events else {
        return Err("\"traceEvents\" is not an array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        let Value::Object(fields) = ev else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        match fields.iter().find(|(k, _)| k == "ph") {
            Some((_, Value::Str(_))) => {}
            Some(_) => return Err(format!("traceEvents[{i}].ph is not a string")),
            None => return Err(format!("traceEvents[{i}] has no \"ph\" phase")),
        }
    }
    Ok(())
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte '{}' at {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // RFC 8259 leaves duplicate-key behaviour undefined; for a
            // validator that ambiguity is a defect, so reject outright.
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!(
                    "duplicate key {key:?} in object at byte {}",
                    self.pos
                ));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // combined; the exporters never emit them.
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?,
                            );
                        }
                        Some(esc) => {
                            out.push(match esc {
                                b'"' => '"',
                                b'\\' => '\\',
                                b'/' => '/',
                                b'b' => '\u{8}',
                                b'f' => '\u{c}',
                                b'n' => '\n',
                                b'r' => '\r',
                                b't' => '\t',
                                _ => return Err(format!("bad escape at byte {}", self.pos)),
                            });
                            self.pos += 1;
                        }
                        None => return Err("unterminated string".into()),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        // self.pos is at the 'u'.
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(format!("bad number at byte {start}"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(format!("bad number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(format!("bad number at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| format!("bad number at byte {start}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| format!("number out of range at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| format!("number out of range at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("42").unwrap(), Value::U64(42));
        assert_eq!(parse("-7").unwrap(), Value::I64(-7));
        assert_eq!(parse("1.5e3").unwrap(), Value::F64(1500.0));
        assert_eq!(
            parse("[1, \"a\\n\", {}]").unwrap(),
            Value::Array(vec![
                Value::U64(1),
                Value::Str("a\n".into()),
                Value::Object(vec![])
            ])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "\"unterminated", "tru"] {
            assert!(validate(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_truncated_objects() {
        for bad in [
            "{\"a\"",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,",
            "{\"a\":1,\"b\"",
            "{\"a\":{\"b\":2}",
            "[{\"a\":1}",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_bad_escapes() {
        for bad in [
            r#""\x""#,         // unknown escape letter
            r#""\""#,          // escape at end of input
            r#""\u12""#,       // truncated \u escape
            r#""\u12G4""#,     // non-hex digit
            r#""\uD800""#,     // lone surrogate
            "\"raw\ttab\"",    // raw control byte
            "\"line\nbreak\"", // raw newline
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should fail");
        }
        // The escaped forms of the same characters are fine.
        assert_eq!(parse(r#""a\tb\nc""#).unwrap(), Value::Str("a\tb\nc".into()));
        assert_eq!(parse(r#""A""#).unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn rejects_duplicate_keys() {
        for bad in [
            "{\"a\":1,\"a\":2}",
            "{\"a\":1,\"b\":2,\"a\":3}",
            "{\"outer\":{\"k\":1,\"k\":2}}",
            "[{\"k\":null,\"k\":null}]",
        ] {
            assert!(
                validate(bad).unwrap_err().contains("duplicate key"),
                "{bad:?} should fail with a duplicate-key error"
            );
        }
        // Same key at different nesting levels is legal.
        assert!(validate("{\"k\":{\"k\":1},\"j\":{\"k\":2}}").is_ok());
    }

    #[test]
    fn round_trips_serializer_output() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::F64(1.25), Value::U64(2)]),
            ),
            ("b \"q\"".into(), Value::Str("x\ty".into())),
        ]);
        let text = serde_json::to_string(&v).unwrap();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn chrome_trace_shape_checks() {
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_ok());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\",\"ts\":1.0}]}").is_ok());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ts\":1.0}]}").is_err());
    }
}
