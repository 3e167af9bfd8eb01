//! A minimal JSON value type with a deterministic writer and a strict
//! parser.
//!
//! The workspace builds hermetically without a serialization
//! framework, so the campaign engine carries its own (tiny) JSON layer.
//! Two properties matter here and are guaranteed by construction:
//!
//! * **Determinism** — objects keep insertion order and numbers have a
//!   single canonical rendering, so encoding the same record twice (on
//!   any thread) yields byte-identical text. Run artifacts rely on this.
//! * **Lossless integers** — `u64` seeds and hashes round-trip exactly
//!   ([`Json::UInt`]/[`Json::Int`] are separate from [`Json::Float`]).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (or any integer parsed with a leading `-`).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered (never sorted, never deduplicated).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(v) => Some(v),
            Json::Int(v) => Some(v as f64),
            Json::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value on one line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // `{:?}` is Rust's shortest round-trip rendering and
                    // always contains '.' or 'e', keeping the value a
                    // float on re-parse.
                    out.push_str(&format!("{v:?}"));
                } else {
                    // JSON has no NaN/Inf; campaigns never produce them,
                    // but degrade deterministically if one slips through.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Streams the canonical one-line rendering into an [`std::io::Write`]
    /// sink, byte-identical to [`Json::render`] but without
    /// materializing the whole document as one `String`. The artifact
    /// writer uses this through a bounded `BufWriter` so encoding cost
    /// stays flat as records grow.
    pub fn render_to<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        match self {
            Json::Null => out.write_all(b"null"),
            Json::Bool(true) => out.write_all(b"true"),
            Json::Bool(false) => out.write_all(b"false"),
            Json::Int(v) => write!(out, "{v}"),
            Json::UInt(v) => write!(out, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    write!(out, "{v:?}")
                } else {
                    out.write_all(b"null")
                }
            }
            Json::Str(s) => {
                let mut escaped = String::with_capacity(s.len() + 2);
                write_escaped(s, &mut escaped);
                out.write_all(escaped.as_bytes())
            }
            Json::Array(items) => {
                out.write_all(b"[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    item.render_to(out)?;
                }
                out.write_all(b"]")
            }
            Json::Object(pairs) => {
                out.write_all(b"{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    let mut escaped = String::with_capacity(k.len() + 2);
                    write_escaped(k, &mut escaped);
                    out.write_all(escaped.as_bytes())?;
                    out.write_all(b":")?;
                    v.render_to(out)?;
                }
                out.write_all(b"}")
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// A parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts. Campaign documents
/// nest a handful of levels; the cap turns a pathological input like
/// `"[".repeat(1 << 20)` into a parse error instead of a recursion
/// stack overflow.
const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        };
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for campaign
                            // artifacts; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number chars are ASCII");
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<u64>().is_ok() || stripped.is_empty() {
                    return text
                        .parse::<i64>()
                        .map(Json::Int)
                        .map_err(|_| self.err("integer out of range"));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_u64() {
        let v = Json::object(vec![
            ("seed", Json::UInt(u64::MAX)),
            ("neg", Json::Int(-42)),
            ("pi", Json::Float(3.25)),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(back.get("neg").unwrap().as_i64(), Some(-42));
        assert_eq!(back.get("pi").unwrap().as_f64(), Some(3.25));
        assert_eq!(back, v);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parses_nested_documents() {
        let text = r#" { "a": [1, 2.5, -3, true, null, "x"], "b": { "c": [] } } "#;
        let v = Json::parse(text).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_i64(), Some(-3));
        assert!(v
            .get("b")
            .unwrap()
            .get("c")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting too deep"));
        // A comfortably nested document still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn render_to_matches_render_byte_for_byte() {
        let v = Json::object(vec![
            ("seed", Json::UInt(u64::MAX)),
            ("neg", Json::Int(-42)),
            ("pi", Json::Float(3.25)),
            ("bad", Json::Float(f64::NAN)),
            ("s", Json::Str("a\"b\\c\nd\u{1}".to_string())),
            (
                "arr",
                Json::Array(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            ("empty", Json::object(vec![])),
        ]);
        let mut streamed = Vec::new();
        v.render_to(&mut streamed).unwrap();
        assert_eq!(streamed, v.render().into_bytes());
    }

    #[test]
    fn float_rendering_reparses_as_float() {
        let v = Json::Float(2.0);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(2.0));
    }
}
