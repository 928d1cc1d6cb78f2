//! A minimal JSON reader.
//!
//! The workspace's serde is an offline no-op stand-in, so trace/metrics
//! validation needs its own reader. This one covers exactly the JSON this
//! crate emits — objects, arrays, strings, integers, floats, booleans,
//! null — and keeps unsigned integers exact (`u64::MAX` encodes `∞` in
//! traces, which `f64` cannot represent). An object that repeats a key is
//! malformed, not "last value wins".

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent, kept exact.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order normalized).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object's field `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The exact unsigned value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// Re-serializes the value as compact JSON. Object keys come out in
    /// normalized ([`BTreeMap`]) order, so `parse(x).render()` is a
    /// canonical form of `x`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::UInt(v) => write_uint(out, *v),
            JsonValue::Float(v) => {
                let text = format!("{v}");
                out.push_str(&text);
                // Integral floats like 2.0 format as "2"; restore the
                // fraction marker so a rendered Float never re-parses as a
                // UInt (negatives already carry their sign).
                if text.bytes().all(|b| b.is_ascii_digit()) {
                    out.push_str(".0");
                }
            }
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string — the one string writer
/// behind [`JsonValue::render`] and the trace-event encoder.
pub(crate) fn write_string(out: &mut String, s: &str) {
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

/// Appends `v` in decimal — the one integer writer behind
/// [`JsonValue::render`] and the trace-event encoder.
pub(crate) fn write_uint(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed byte.
///
/// # Example
///
/// ```
/// use bgpvcg_telemetry::json::{parse, JsonValue};
///
/// let v = parse("{\"stage\":3}").unwrap();
/// assert_eq!(v.get("stage").and_then(JsonValue::as_u64), Some(3));
/// ```
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after JSON value"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{}`", char::from(ch))))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{literal}`")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key_start = *pos;
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        if map.insert(key, value).is_some() {
            return Err(err(key_start, "duplicate key in object"));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogates are not needed by this crate's output.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = &bytes[*pos..];
                let text =
                    std::str::from_utf8(rest).map_err(|_| err(*pos, "invalid UTF-8 in string"))?;
                let ch = text.chars().next().ok_or_else(|| err(*pos, "empty"))?;
                if (ch as u32) < 0x20 {
                    return Err(err(*pos, "unescaped control character"));
                }
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'.') {
        integral = false;
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        integral = false;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "invalid number bytes"))?;
    if integral && !text.starts_with('-') {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| err(start, "malformed number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_event_lines_exactly() {
        let line = format!(
            "{{\"type\":\"PriceRelaxed\",\"node\":3,\"dest\":5,\"k\":4,\
             \"stage\":2,\"new\":{}}}",
            u64::MAX
        );
        let v = parse(&line).unwrap();
        assert_eq!(
            v.get("type").and_then(JsonValue::as_str),
            Some("PriceRelaxed")
        );
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("new").and_then(JsonValue::as_u64), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\":[1,2.5,true,null,\"x\\n\"],\"b\":{\"c\":-3}}").unwrap();
        let JsonValue::Array(items) = v.get("a").unwrap() else {
            panic!("a must be an array");
        };
        assert_eq!(items[0], JsonValue::UInt(1));
        assert_eq!(items[1], JsonValue::Float(2.5));
        assert_eq!(items[2], JsonValue::Bool(true));
        assert_eq!(items[3], JsonValue::Null);
        assert_eq!(items[4], JsonValue::String("x\n".into()));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Float(-3.0)));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "12 34",
            "{]",
            "{\"a\":1,\"a\":1}",
            "{\"type\":\"StageStart\",\"type\":\"Quiescent\",\"stage\":1,\"messages\":2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse("  { \"k\" : [ 1 , 2 ] }  ").unwrap();
        assert!(v.get("k").is_some());
    }

    #[test]
    fn render_round_trips_canonical_values() {
        for text in [
            "{\"a\":[1,true,null,\"x\\n\"],\"b\":{\"c\":2}}",
            "{\"stage\":18446744073709551615}",
            "[]",
            "\"\\\"quoted\\\"\"",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.render(), text, "already-canonical text is fixed");
            assert_eq!(parse(&v.render()).unwrap(), v, "render re-parses");
        }
    }

    #[test]
    fn render_escapes_strings() {
        let v = JsonValue::String("a\"b\\c\n\u{1}".into());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\n\\u0001\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn render_keeps_floats_floats() {
        let v = JsonValue::Float(2.0);
        assert_eq!(v.render(), "2.0");
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(JsonValue::Float(-3.0).render(), "-3");
        assert_eq!(JsonValue::Float(2.5).render(), "2.5");
    }
}
