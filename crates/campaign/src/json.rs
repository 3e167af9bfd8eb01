//! A minimal JSON value type with a deterministic writer and a strict
//! parser.
//!
//! The workspace builds hermetically without a serialization
//! framework, so the campaign engine carries its own (tiny) JSON layer:
//! one set of writing primitives (`write_escaped`, `write_float`,
//! `ObjectWriter`) with two users — the tree writer [`Json::render`]
//! and the artifact encoder, which writes records straight from their
//! field tables — and one lexer (`Reader`, linear in the document) with
//! two consumers — the tree builder [`Json::parse`] and the artifact
//! decoder, which reads records straight off the lexer (DESIGN.md §5.5).
//! Two properties matter here and are guaranteed by construction:
//!
//! * **Determinism** — objects keep insertion order and numbers have a
//!   single canonical rendering, so encoding the same record twice (on
//!   any thread) yields byte-identical text. Run artifacts rely on this.
//! * **Lossless integers** — `u64` seeds and hashes round-trip exactly
//!   ([`Json::UInt`]/[`Json::Int`] are separate from [`Json::Float`]).

use std::borrow::Cow;
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
        self.as_number()?.as_u64()
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_number()?.as_i64()
    }

    /// The value as `f64` (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number().map(Number::as_f64)
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

    /// The value as the lexer's number, if it is one.
    fn as_number(&self) -> Option<Number> {
        match *self {
            Json::Int(v) => Some(Number::Int(v)),
            Json::UInt(v) => Some(Number::UInt(v)),
            Json::Float(v) => Some(Number::Float(v)),
            _ => None,
        }
    }

    /// Renders the value on one line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        // `String`'s `fmt::Write` is infallible, and so are the integer
        // and float formatters, the only ones the writer calls.
        self.write(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// The tree writer: escapes and numbers go straight into the sink.
    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Int(v) => write!(out, "{v}"),
            Json::UInt(v) => write!(out, "{v}"),
            Json::Float(v) => write_float(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Object(pairs) => {
                let mut object = ObjectWriter::open(out)?;
                for (k, v) in pairs {
                    v.write(object.key(k)?)?;
                }
                object.close()
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else): the tree-building consumer of [`Reader`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(text);
        let value = Json::build(&mut r).map_err(|e| *e)?;
        r.end().map_err(|e| *e)?;
        Ok(value)
    }

    /// Builds the tree of the reader's next value. Recursion is bounded
    /// by the reader's [`MAX_DEPTH`] cap.
    fn build(r: &mut Reader<'_>) -> Lexed<Json> {
        Ok(match r.value()? {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Number(Number::Int(v)) => Json::Int(v),
            Value::Number(Number::UInt(v)) => Json::UInt(v),
            Value::Number(Number::Float(v)) => Json::Float(v),
            Value::Str(s) => Json::Str(s.into_owned()),
            Value::BeginArray => {
                let mut items = Vec::new();
                while r.next_element()? {
                    items.push(Json::build(r)?);
                }
                Json::Array(items)
            }
            Value::BeginObject => {
                let mut pairs = Vec::new();
                while let Some(key) = r.next_key()? {
                    pairs.push((key.into_owned(), Json::build(r)?));
                }
                Json::Object(pairs)
            }
        })
    }
}

/// Writes one object a member at a time: the braces, separators and
/// quoted keys of every object either writer emits, [`Json::Object`]s
/// included.
pub(crate) struct ObjectWriter<'a, W> {
    out: &'a mut W,
    first: bool,
}

impl<'a, W: fmt::Write> ObjectWriter<'a, W> {
    /// Writes the opening brace.
    pub(crate) fn open(out: &'a mut W) -> Result<ObjectWriter<'a, W>, fmt::Error> {
        out.write_char('{')?;
        Ok(ObjectWriter { out, first: true })
    }

    /// Writes the next member's key and returns the sink for its value.
    pub(crate) fn key(&mut self, key: &str) -> Result<&mut W, fmt::Error> {
        if !std::mem::take(&mut self.first) {
            self.out.write_char(',')?;
        }
        write_escaped(key, self.out)?;
        self.out.write_char(':')?;
        Ok(self.out)
    }

    /// Writes the closing brace.
    pub(crate) fn close(self) -> fmt::Result {
        self.out.write_char('}')
    }
}

/// Writes a float: `{:?}` is Rust's shortest round-trip rendering and
/// always contains '.' or 'e', keeping the value a float on re-parse.
/// JSON has no NaN/Inf; campaigns never produce them, but a non-finite
/// value degrades deterministically to `null`.
pub(crate) fn write_float<W: fmt::Write>(v: f64, out: &mut W) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v:?}")
    } else {
        out.write_str("null")
    }
}

/// Writes `s` quoted: unescaped runs are copied whole, each character
/// that needs an escape (all of them ASCII) is written in its place.
pub(crate) fn write_escaped<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match named {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
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

/// Maximum container nesting the reader accepts. Campaign documents
/// nest a handful of levels; the cap turns a pathological input like
/// `"[".repeat(1 << 20)` into a parse error instead of a recursion
/// stack overflow in a consumer.
const MAX_DEPTH: usize = 512;

/// What the lexer's reads return. The error is boxed so that a read's
/// result fits in registers: the error path is cold, and every hot
/// return would otherwise go through memory.
pub(crate) type Lexed<T> = Result<T, Box<JsonError>>;

/// A number as the lexer classifies it: an integer spelling that fits
/// is lossless (`-0` is `Int(0)`), everything else — a fraction, an
/// exponent, a magnitude past `u64`/`i64` — is a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Number {
    /// An integer written with a leading `-`.
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A number with a fraction or exponent, or an integer too large
    /// for 64 bits.
    Float(f64),
}

impl Number {
    /// The number as `u64`, if it is a non-negative integer.
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Number::UInt(v) => Some(v),
            Number::Int(v) => u64::try_from(v).ok(),
            Number::Float(_) => None,
        }
    }

    /// The number as `i64`, if it is an integer in range.
    pub(crate) fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(v) => Some(v),
            Number::UInt(v) => i64::try_from(v).ok(),
            Number::Float(_) => None,
        }
    }

    /// The number as `f64` (integers are widened).
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Number::Float(v) => v,
            Number::Int(v) => v as f64,
            Number::UInt(v) => v as f64,
        }
    }
}

/// What [`Reader::value`] found: a complete scalar, or the opening of a
/// container whose contents the caller pulls next.
#[derive(Debug, PartialEq)]
pub(crate) enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string, borrowed from the input unless it contains an escape.
    Str(Cow<'a, str>),
    /// `[` — pull the elements with [`Reader::next_element`].
    BeginArray,
    /// `{` — pull the members with [`Reader::next_key`].
    BeginObject,
}

/// The JSON lexer: a pull reader over one document, linear in its
/// length and allocation-free except for strings that contain escapes.
///
/// It has two consumers. [`Json::parse`] builds a tree from it;
/// [`crate::artifact::RunRecord::decode`] drives it straight into the
/// record, reading each field as its kind ([`Reader::u64`],
/// [`Reader::i64`], [`Reader::f64`], [`Reader::null`], [`Reader::bool`],
/// [`Reader::str`], [`Reader::begin_object`], [`Reader::begin_array`]).
/// Both accept exactly the same documents: [`Reader::value`] looks at
/// a value's first byte and calls the typed read of that kind, so
/// every value is checked by the same code — whitespace, the depth cap,
/// literals, strings and the one number grammar — whichever way it is
/// read or skipped.
///
/// Protocol: [`Reader::value`] (or a typed read) reads the next value;
/// after [`Value::BeginArray`] ([`Reader::begin_array`]) call
/// [`Reader::next_element`] before each element until it returns
/// `false`, after [`Value::BeginObject`] ([`Reader::begin_object`]) call
/// [`Reader::next_key`] before each member's value until it returns
/// `None`; [`Reader::end`] after the root value.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// The last token opened a container, so a closing bracket — but no
    /// comma — may follow.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// The error at the current offset. Out of line and marked cold, so
    /// the lexer's hot path carries only the branch to it.
    #[cold]
    #[inline(never)]
    fn err(&self, message: impl fmt::Display) -> Box<JsonError> {
        Box::new(JsonError {
            message: message.to_string(),
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Lexed<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format_args!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str) -> Lexed<()> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(format_args!("expected {text}")))
        }
    }

    /// The start of every value, read or typed: whitespace, the depth
    /// cap, then the value's first byte (not consumed).
    fn start_value(&mut self) -> Lexed<u8> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.fresh = false;
        self.peek()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    /// Reads the next value: a scalar completely, a container up to and
    /// including its opening bracket, through the typed read of its
    /// kind.
    pub(crate) fn value(&mut self) -> Lexed<Value<'a>> {
        Ok(match self.start_value()? {
            b'n' => {
                self.null()?;
                Value::Null
            }
            b't' | b'f' => Value::Bool(self.bool()?),
            b'"' => Value::Str(self.str()?),
            b'-' | b'0'..=b'9' => Value::Number(self.number()?),
            b'[' => {
                self.begin_array()?;
                Value::BeginArray
            }
            b'{' => {
                self.begin_object()?;
                Value::BeginObject
            }
            _ => return Err(self.err("unexpected character")),
        })
    }

    /// Consumes the next value if it is `null` and says whether it was;
    /// any other value is left unread (whitespace before it excepted).
    pub(crate) fn null(&mut self) -> Lexed<bool> {
        if self.start_value()? != b'n' {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Reads the next value as `true` or `false`.
    pub(crate) fn bool(&mut self) -> Lexed<bool> {
        match self.start_value()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(self.err("expected true or false")),
        }
    }

    /// Reads the next value as a string, borrowed from the input unless
    /// it contains an escape.
    pub(crate) fn str(&mut self) -> Lexed<Cow<'a, str>> {
        self.start_value()?;
        self.string()
    }

    /// Reads the next value as an integer that fits a `u64` (`-0`
    /// included).
    pub(crate) fn u64(&mut self) -> Lexed<u64> {
        self.number()?
            .as_u64()
            .ok_or_else(|| self.err("expected an unsigned integer"))
    }

    /// Reads the next value as an integer that fits an `i64`.
    pub(crate) fn i64(&mut self) -> Lexed<i64> {
        self.number()?
            .as_i64()
            .ok_or_else(|| self.err("expected an integer"))
    }

    /// Reads the next value as any number, integers widened.
    pub(crate) fn f64(&mut self) -> Lexed<f64> {
        self.number().map(Number::as_f64)
    }

    /// Reads the opening `[` of the next value, which must be an array.
    pub(crate) fn begin_array(&mut self) -> Lexed<()> {
        self.open(b'[')
    }

    /// Reads the opening `{` of the next value, which must be an object.
    pub(crate) fn begin_object(&mut self) -> Lexed<()> {
        self.open(b'{')
    }

    fn open(&mut self, bracket: u8) -> Lexed<()> {
        if self.start_value()? != bracket {
            return Err(self.err(format_args!("expected {:?}", bracket as char)));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Steps to the next item of the open container: `Ok(false)` after
    /// consuming `close`, `Ok(true)` when an item follows (after a
    /// comma, or directly after the opening bracket).
    fn next_item(&mut self, close: u8, expected: &str) -> Lexed<bool> {
        self.skip_ws();
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(expected)),
        }
    }

    /// Inside an array: whether another element follows (read it with
    /// [`Reader::value`]) or the array was closed.
    pub(crate) fn next_element(&mut self) -> Lexed<bool> {
        self.next_item(b']', "expected ',' or ']'")
    }

    /// Inside an object: the next member's key (read its value with
    /// [`Reader::value`]), or `None` once the object was closed.
    pub(crate) fn next_key(&mut self) -> Lexed<Option<Cow<'a, str>>> {
        if !self.next_item(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Inside an object: consumes the next member's key if it is `key`
    /// spelled exactly as the writer spells it — `"key":` right after
    /// the opening brace, `,"key":` after a member — and says whether
    /// it did. Anything else (whitespace, an escape, another key, the
    /// closing brace) consumes nothing and is left to
    /// [`Reader::next_key`]. `key` must need no escape.
    pub(crate) fn canonical_key(&mut self, key: &str) -> bool {
        let rest = &self.text.as_bytes()[self.pos..];
        let rest = if self.fresh {
            Some(rest)
        } else {
            rest.strip_prefix(b",")
        };
        let matched = rest
            .and_then(|r| r.strip_prefix(b"\""))
            .and_then(|r| r.strip_prefix(key.as_bytes()))
            .is_some_and(|r| r.starts_with(b"\":"));
        if matched {
            self.pos += key.len() + 3 + usize::from(!self.fresh);
            self.fresh = false;
        }
        matched
    }

    /// Reads and discards the next value, checking it exactly as
    /// reading it would. Recursion is bounded by the [`MAX_DEPTH`] cap.
    pub(crate) fn skip_value(&mut self) -> Lexed<()> {
        match self.value()? {
            Value::BeginArray => {
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Value::BeginObject => {
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// After the root value: only whitespace may remain.
    pub(crate) fn end(&mut self) -> Lexed<()> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    /// Reads a string one run at a time: the text between two
    /// delimiters (`"` or `\`, both ASCII, so every cut is a character
    /// boundary of the already-valid `&str`) is sliced, never
    /// re-validated — the lexer stays linear in the document. A string
    /// without escapes is one run, borrowed; the first escape hands the
    /// rest to [`Reader::unescape`].
    #[inline]
    fn string(&mut self) -> Lexed<Cow<'a, str>> {
        self.expect(b'"')?;
        let (text, run) = (self.text, self.pos);
        let bytes = &text.as_bytes()[run..];
        match bytes.iter().position(|&b| b == b'"' || b == b'\\') {
            Some(n) if bytes[n] == b'"' => {
                self.pos += n + 1;
                Ok(Cow::Borrowed(&text[run..run + n]))
            }
            _ => self.unescape().map(Cow::Owned),
        }
    }

    /// [`Reader::string`] of a string that holds an escape (or is not
    /// terminated): the string, unescaped into a `String` of its own.
    #[inline(never)]
    fn unescape(&mut self) -> Lexed<String> {
        let (text, mut out) = (self.text, String::new());
        loop {
            let run = self.pos;
            let bytes = &text.as_bytes()[run..];
            let Some(n) = bytes.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += n + 1;
            out.push_str(&text[run..run + n]);
            if bytes[n] == b'"' {
                return Ok(out);
            }
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = text
                        .as_bytes()
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    // Surrogate pairs are not needed for campaign
                    // artifacts; reject rather than mis-decode.
                    let c = char::from_u32(code)
                        .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                    self.pos += 4;
                    c
                }
                _ => return Err(self.err("bad escape")),
            });
            self.pos += 1;
        }
    }

    /// Reads the next value as a number in RFC 8259's grammar,
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: the one
    /// number lexer every numeric read goes through. The integer part is
    /// accumulated while it is scanned, without checks — 19 digits
    /// cannot overflow a `u64`, and only a longer run is folded again
    /// with checked arithmetic. A fraction or an exponent, and a
    /// magnitude past 64 bits, make a float ([`Reader::float`]). Forced
    /// inline: integers are most of what an artifact holds.
    #[inline(always)]
    fn number(&mut self) -> Lexed<Number> {
        if !matches!(self.start_value()?, b'-' | b'0'..=b'9') {
            return Err(self.err("expected a number"));
        }
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let first_digit = self.pos;
        let mut magnitude = 0u64;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                let bytes = self.text.as_bytes();
                let mut pos = first_digit;
                while let Some(d @ b'0'..=b'9') = bytes.get(pos).copied() {
                    magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    pos += 1;
                }
                self.pos = pos;
            }
            _ => return Err(self.err("malformed number")),
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return self.float(start);
        }
        let digits = &self.text.as_bytes()[first_digit..self.pos];
        let magnitude = if digits.len() <= 19 {
            Some(magnitude)
        } else {
            digits.iter().try_fold(0u64, |m, &d| {
                m.checked_mul(10)?.checked_add(u64::from(d - b'0'))
            })
        };
        match (negative, magnitude) {
            (false, Some(m)) => Ok(Number::UInt(m)),
            // `-0` is the integer 0, `-2^63` is `i64::MIN`, and a
            // magnitude between `2^63` and `2^64` is out of range.
            (true, Some(m)) => 0i64
                .checked_sub_unsigned(m)
                .map(Number::Int)
                .ok_or_else(|| self.err("integer out of range")),
            (_, None) => self.float(start),
        }
    }

    /// [`Reader::number`] from the end of the integer part on: an
    /// optional fraction and exponent, then `str::parse` of the whole
    /// spelling from `start`.
    #[inline(never)]
    fn float(&mut self, start: usize) -> Lexed<Number> {
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // Every byte consumed above is ASCII, so both ends are
        // character boundaries.
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err("malformed number"))
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Lexed<()> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("malformed number"));
        }
        Ok(())
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

    /// Lexing cost is linear in the document. The budget is some 100×
    /// what these inputs take; a lexer that re-validates the rest of
    /// the input per character (which this one replaced) needs minutes
    /// on the first two.
    #[test]
    fn lexing_is_linear_in_document_size() {
        let one_string = format!("\"{}\"", "né".repeat(4 << 20 >> 1));
        let short_strings = format!("[{}\"\"]", "\"ab\",".repeat(200_000));
        let brackets = "[".repeat(1 << 20);
        for (text, expected) in [
            (&one_string, Ok(())),
            (&short_strings, Ok(())),
            (&brackets, Err("nesting too deep")),
        ] {
            let started = std::time::Instant::now();
            let parsed = Json::parse(text);
            let elapsed = started.elapsed();
            match (&parsed, expected) {
                (Ok(_), Ok(())) => {}
                (Err(e), Err(message)) => assert_eq!(e.message, message),
                _ => panic!("{} bytes: wrong verdict {:?}", text.len(), parsed.err()),
            }
            assert!(
                elapsed < std::time::Duration::from_secs(5),
                "{} bytes took {elapsed:?}",
                text.len()
            );
        }
    }

    /// Numbers follow RFC 8259: no leading zeros, digits on both sides
    /// of a point, digits after an exponent, a sign only in front.
    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, expected) in [
            ("0", Json::UInt(0)),
            ("-0", Json::Int(0)),
            ("10", Json::UInt(10)),
            ("-7", Json::Int(-7)),
            ("0.5", Json::Float(0.5)),
            ("-0.0", Json::Float(-0.0)),
            ("1.5e-3", Json::Float(1.5e-3)),
            ("1E+2", Json::Float(100.0)),
            ("1e2", Json::Float(100.0)),
            ("1234567890123456789", Json::UInt(1234567890123456789)),
            ("12345678901234567890", Json::UInt(12345678901234567890)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("18446744073709551616", Json::Float(18446744073709551616.0)),
            ("99999999999999999999", Json::Float(1e20)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            (
                "-18446744073709551616",
                Json::Float(-18446744073709551616.0),
            ),
        ] {
            assert_eq!(Json::parse(text), Ok(expected), "{text}");
        }
        for text in [
            "007", "00", "-01", "01.5", "1.", "-", "-.5", ".5", "+1", "1e", "1e+", "1.e2", "--1",
            "-a",
        ] {
            assert!(Json::parse(text).is_err(), "{text} parsed");
            assert!(
                Json::parse(&format!("[{text}]")).is_err(),
                "[{text}] parsed"
            );
        }
        assert_eq!(
            Json::parse("-").unwrap_err().message,
            "malformed number",
            "a bare sign is not an integer out of range"
        );
        for text in ["-9223372036854775809", "-12345678901234567890"] {
            assert_eq!(
                Json::parse(text).unwrap_err().message,
                "integer out of range"
            );
        }
    }

    /// A typed read takes exactly what `value()` takes — the same value
    /// converted the way `Json::as_*` converts it, and the reader left
    /// at the same offset — and fails wherever `value()` fails or the
    /// value is of another kind.
    #[test]
    fn typed_reads_are_value_read_as_a_kind() {
        for text in [
            "0",
            "-0",
            "7",
            "-7",
            "07",
            "7.0",
            "7e0",
            "7E+0",
            "-0.0",
            "0.5",
            "1e999",
            "1234567890123456789",
            "12345678901234567890",
            "18446744073709551616",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "-",
            "null",
            "nul",
            "nullx",
            "Null",
            "true",
            "false",
            "tru",
            "\"s\"",
            "\"\\u0073\"",
            "\"s",
            "[1]",
            "{}",
            " \t7",
            "x",
            "",
        ] {
            let mut r = Reader::new(text);
            let value = r.value();
            let (pos, value) = (r.pos, value.ok());
            let read = |typed: fn(&mut Reader<'static>) -> Option<Json>| {
                let mut r = Reader::new(text);
                typed(&mut r).map(|v| (r.pos, v))
            };
            let number = |n: fn(Number) -> Option<Json>| match &value {
                Some(Value::Number(v)) => n(*v).map(|v| (pos, v)),
                _ => None,
            };
            assert_eq!(
                read(|r| r.u64().ok().map(Json::UInt)),
                number(|n| n.as_u64().map(Json::UInt)),
                "u64 of {text:?}"
            );
            assert_eq!(
                read(|r| r.i64().ok().map(Json::Int)),
                number(|n| n.as_i64().map(Json::Int)),
                "i64 of {text:?}"
            );
            assert_eq!(
                read(|r| r.f64().ok().map(Json::Float)),
                number(|n| Some(Json::Float(n.as_f64()))),
                "f64 of {text:?}"
            );
            let expected = match &value {
                Some(Value::Bool(b)) => Some((pos, Json::Bool(*b))),
                _ => None,
            };
            assert_eq!(
                read(|r| r.bool().ok().map(Json::Bool)),
                expected,
                "bool of {text:?}"
            );
            let expected = match &value {
                Some(Value::Str(s)) => Some((pos, Json::Str(s.to_string()))),
                _ => None,
            };
            let string = |r: &mut Reader<'static>| r.str().ok().map(|s| Json::Str(s.into_owned()));
            assert_eq!(read(string), expected, "str of {text:?}");
            // `null()` consumes a `null` and nothing else.
            let mut r = Reader::new(text);
            match (r.null(), &value) {
                (Ok(true), Some(Value::Null)) => assert_eq!(r.pos, pos, "{text:?}"),
                (Ok(false), Some(v)) => assert_ne!(*v, Value::Null, "{text:?}"),
                // Left unread, to fail in the read that follows.
                (Ok(false) | Err(_), None) => {}
                (got, _) => panic!("null() of {text:?}: {got:?} where value() gave {value:?}"),
            }
        }
    }

    /// Only the exact canonical spelling of the expected key is taken;
    /// everything else is left untouched for `next_key`.
    #[test]
    fn canonical_key_takes_only_the_exact_spelling() {
        // Skips `members` members, then tries `key`: the value read
        // after it, or `None` with nothing consumed.
        let try_key = |text: &str, members: usize, key: &str| {
            let mut r = Reader::new(text);
            assert_eq!(r.value(), Ok(Value::BeginObject));
            for _ in 0..members {
                r.next_key().unwrap().expect("a member");
                r.skip_value().unwrap();
            }
            let pos = r.pos;
            if !r.canonical_key(key) {
                assert_eq!(r.pos, pos, "{text}: consumed without a match");
                return None;
            }
            match r.value() {
                Ok(Value::Number(n)) => n.as_u64(),
                other => panic!("{text}: {other:?} after the key"),
            }
        };
        assert_eq!(try_key(r#"{"a":1,"b":2}"#, 0, "a"), Some(1));
        assert_eq!(try_key(r#"{"a":1,"b":2}"#, 1, "b"), Some(2));
        for (text, members, key) in [
            (r#"{"a":1,"b":2}"#, 0, "b"),
            (r#"{"ab":1}"#, 0, "a"),
            (r#"{ "a":1}"#, 0, "a"),
            (r#"{"a" :1}"#, 0, "a"),
            ("{\"\\u0061\":1}", 0, "a"),
            (r#"{,"a":1}"#, 0, "a"),
            (r#"{"a":1, "b":2}"#, 1, "b"),
            (r#"{"a":1,"b" :2}"#, 1, "b"),
            (r#"{"a":1"b":2}"#, 1, "b"),
            (r#"{"a":1}"#, 1, "a"),
            ("{}", 0, "a"),
        ] {
            assert_eq!(try_key(text, members, key), None, "{text}");
        }
    }

    #[test]
    fn float_rendering_reparses_as_float() {
        let v = Json::Float(2.0);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(2.0));
    }
}
