//! A dependency-free JSON parser for request bodies.
//!
//! The rest of the workspace only *emits* JSON (hand-rolled, stable-byte
//! writers in `argus-core::json` and `argus-diag::render`); the server is
//! the first component that must *read* it. This is a strict
//! recursive-descent parser over the RFC 8259 grammar with two deliberate
//! properties:
//!
//! * every error carries the byte offset it was detected at, so the
//!   request handlers can render a caret diagnostic pointing into the
//!   offending body (the same presentation `argus lint` uses for program
//!   text);
//! * nesting depth is capped, so a hostile body of 100 000 `[`s is a
//!   parse error, not a stack overflow.
//!
//! Numbers are kept as `f64` — the request schema only uses small
//! integers (worker counts, tier indices), far inside the exact range.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum array/object nesting the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (kept as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is normalized (sorted); duplicate keys are a
    /// parse error — the strictness suits a request schema, where a
    /// duplicate option is always a client bug worth surfacing.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a nonnegative integer, if this is a number that is
    /// one (finite, integral, in `u64` range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse failure, located by byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the error was detected at (≤ input length).
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: src.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("unexpected trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos.min(self.src.len()), message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_off = self.pos;
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            if map.insert(key.clone(), val).is_some() {
                return Err(JsonError {
                    offset: key_off,
                    message: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Bulk-copy the maximal run of plain characters. The
                    // delimiters scanned for are all ASCII (and UTF-8
                    // continuation bytes are ≥ 0x80), so the run always
                    // ends on a scalar boundary and each input byte is
                    // validated exactly once — keeping the whole parse
                    // linear even for megabyte string payloads.
                    let start = self.pos;
                    while let Some(&b) = self.src.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Four hex digits; advances past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected an exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError { offset: start, message: "number out of range".into() }),
        }
    }
}

pub use argus_logic::json::{escape_into, json_str};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shapes() {
        let v = parse(r#"{"program": "p.\n", "jobs": 2, "stats": true, "x": null}"#).unwrap();
        assert_eq!(v.get("program").and_then(Json::as_str), Some("p.\n"));
        assert_eq!(v.get("jobs").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("stats").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_round_trip() {
        let src = "a\"b\\c\nd\te\u{1F600}é";
        let lit = json_str(src);
        let back = parse(&lit).unwrap();
        assert_eq!(back.as_str(), Some(src));
    }

    #[test]
    fn long_mixed_strings_round_trip() {
        // Exercises the bulk-copy fast path: long plain runs interleaved
        // with escapes and multibyte scalars, at LSP-payload sizes.
        let src = format!("{}\"é😀\\{}\n", "a".repeat(50_000), "b".repeat(50_000)).repeat(4);
        let back = parse(&json_str(&src)).unwrap();
        assert_eq!(back.as_str(), Some(src.as_str()));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\": nope}").unwrap_err();
        assert_eq!(e.offset, 6);
        let e = parse("[1, 2,]").unwrap_err();
        assert_eq!(e.offset, 6);
        let e = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        assert_eq!(e.offset, 9);
    }

    #[test]
    fn depth_bomb_is_an_error_not_a_crash() {
        let bomb = "[".repeat(100_000);
        let e = parse(&bomb).unwrap_err();
        assert!(e.message.contains("deep"), "{e}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("{} {}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("0").unwrap(), Json::Num(0.0));
        assert!(parse("01").is_err(), "leading zero then digit is trailing garbage");
        assert!(parse("1e999").is_err(), "infinite after parse");
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
