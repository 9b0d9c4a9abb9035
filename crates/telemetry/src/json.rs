//! A dependency-free JSON codec.
//!
//! The reproduction runs in fully offline environments where `serde` /
//! `serde_json` cannot be fetched, so every report, golden trace and
//! telemetry snapshot goes through this module instead: a [`Json`] value
//! type, a recursive-descent parser, a pretty printer, and the
//! [`ToJson`] conversion trait with an impl macro for plain structs.
//! Readers walk a parsed [`Json`] with its accessors. Learner state never
//! travels as JSON: numbers print through `f64`, so `-0.0`, NaN and ±inf
//! do not survive (sessions use `deco-serve`'s binary wire format).
//!
//! ```
//! use deco_telemetry::json::{Json, ToJson};
//!
//! let j = Json::obj([("accuracy", 0.42f32.to_json()), ("seeds", vec![1u64, 2].to_json())]);
//! let text = j.to_string_pretty();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("seeds").unwrap().as_array().unwrap().len(), 2);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects preserve insertion order so serialized reports
/// stay stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; non-finite values print as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A JSON parse or conversion error with a short human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    fn new(msg: impl Into<String>) -> JsonError {
        JsonError(msg.into())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline-free
    /// layout matching common `to_string_pretty` output.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Serializes without whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.iter(), |item, o, i| {
                item.write(o, i);
            }),
            Json::Obj(pairs) => write_seq(out, indent, '{', '}', pairs.iter(), |(k, v), o, i| {
                write_escaped(o, k);
                o.push(':');
                if i.is_some() {
                    o.push(' ');
                }
                v.write(o, i);
            }),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    /// Returns a [`JsonError`] describing the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing input at byte {}", p.pos)));
        }
        Ok(value)
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(T, &mut String, Option<usize>),
) {
    out.push(open);
    let len = items.len();
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|i| i + 1);
    for (i, item) in items.enumerate() {
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        write_item(item, out, inner);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| JsonError::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| JsonError::new("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::new("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("bad number {text:?} at byte {start}")))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! impl_json_num {
    ($($ty:ty),*) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::Num(*self as f64)
                }
            }
        )*
    };
}

impl_json_num!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &[T] {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Implements [`ToJson`](crate::json::ToJson) for a struct with named
/// fields, serializing each listed field under its own name.
///
/// ```
/// struct Entry { method: String, accuracy: f32 }
/// deco_telemetry::impl_to_json!(Entry { method, accuracy });
///
/// use deco_telemetry::json::ToJson;
/// let e = Entry { method: "DECO".into(), accuracy: 0.5 };
/// assert!(e.to_json().get("method").is_some());
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "3", "-2.5", "\"hi\\n\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["{", "[1,", "\"open", "{\"a\" 1}", "12 34", "nul"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn pretty_output_is_reparseable_and_indented() {
        let v = Json::obj([
            ("rows", vec![1u64, 2, 3].to_json()),
            ("name", "t".to_json()),
        ]);
        let text = v.to_string_pretty();
        assert!(text.contains("\n  \"rows\""));
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", 1u64.to_json()), ("a", 2u64.to_json())]);
        let text = v.to_string_compact();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(f32::NAN.to_json().to_string_compact(), "null");
        assert_eq!(f64::INFINITY.to_json().to_string_compact(), "null");
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("a\"b\\c\u{1}".into());
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
