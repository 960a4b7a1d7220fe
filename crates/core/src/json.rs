//! Minimal strict JSON (RFC 8259): one pull reader, a value tree on top
//! of it, and an escaper.
//!
//! The workspace is dependency-free, so everything that speaks JSON —
//! the sweep emitters, the bench baselines, and the on-disk result
//! [`store`](crate::store) — shares this one reader/escaper instead of
//! pulling in `serde`. The grammar lives in [`Reader`], a byte-level
//! pull reader: [`parse`] builds a [`Value`] tree through it, and the
//! store decodes its records through it straight into report fields,
//! with no tree at all.
//!
//! Design constraints, in order:
//!
//! 1. **Exact integer round trips.** Store records carry `u64` counters
//!    and `f64::to_bits()` values; parsing them through an `f64` would
//!    silently lose bits above 2^53 and break the report-digest trust
//!    chain. Unsigned integers without fraction or exponent therefore
//!    read as [`Token::Int`] / [`Value::Int`] (full `u64` range), and
//!    every other number as [`Token::Num`] / [`Value::Num`].
//! 2. **Strictness.** Anything RFC 8259 rejects is an error: trailing
//!    garbage, a trailing comma, raw control characters in strings,
//!    malformed escapes, a lone UTF-16 surrogate, invalid UTF-8, and
//!    numbers outside §6's grammar (a leading zero as in `007`, a
//!    leading `+` or `.`, a `.` with no digit after it). Escaped
//!    surrogate pairs (§7) decode to one character. The store treats
//!    *any* error as a cache miss, so a lenient reader would serve
//!    half-written records.
//! 3. **Bounded work.** Objects and arrays nest at most [`MAX_DEPTH`]
//!    levels (serde_json's default); deeper input is an error, never a
//!    stack overflow. The reader never allocates except to unescape a
//!    string that holds escapes.
//! 4. **Smallness.** Objects, arrays, strings, numbers, and the three
//!    literals; [`Value`] object fields keep document order in a `Vec`
//!    (no map — duplicates are the producer's bug, lookups take the
//!    first).

use std::borrow::Cow;
use std::fmt;

/// The deepest nesting of objects and arrays a document may have.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer-shaped number (no `.`/`e`), exact over the full `u64`
    /// range. Negative integers parse as [`Value::Num`].
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object; `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer payload, if this is an integer-shaped number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload, coercing exact integers (`Int` or `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut r = Reader::new(s.as_bytes());
    value(&mut r)
        .and_then(|v| r.end().map(|()| v))
        .map_err(|e| e.to_string())
}

/// Reads one value into a tree. Recursion is bounded by [`MAX_DEPTH`]:
/// the reader refuses to open a deeper container.
fn value(r: &mut Reader) -> Result<Value, Error> {
    Ok(match r.token()? {
        Token::Null => Value::Null,
        Token::Bool(b) => Value::Bool(b),
        Token::Int(n) => Value::Int(n),
        Token::Num(x) => Value::Num(x),
        Token::Str(s) => Value::Str(s.into_owned()),
        Token::Arr => {
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(value(r)?);
            }
            Value::Arr(items)
        }
        Token::Obj => {
            let mut fields = Vec::new();
            while let Some(k) = r.next_key()? {
                fields.push((k.into_owned(), value(r)?));
            }
            Value::Obj(fields)
        }
    })
}

/// Escapes `s` for embedding inside a JSON string literal: backslash,
/// double quote, and control characters (RFC 8259 §7). Everything else
/// passes through (emitters write UTF-8).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Why a document is not JSON: what the reader wanted, and the byte
/// offset where it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the document.
    pub at: usize,
    /// What was wrong there.
    pub what: &'static str,
}

fn error(at: usize, what: &'static str) -> Error {
    Error { at, what }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

/// One step of a [`Reader`]: a whole scalar, or the opening bracket of a
/// container whose contents follow through [`Reader::next_key`] or
/// [`Reader::next_item`].
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no sign, fraction or exponent that fits a `u64`.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string, borrowed from the document unless it held escapes.
    Str(Cow<'a, str>),
    /// The `{` that opens an object.
    Obj,
    /// The `[` that opens an array.
    Arr,
}

/// A strict one-pass pull reader over a JSON document's bytes.
///
/// The caller walks the document: [`token`](Reader::token) reads a value
/// (or opens a container), [`next_key`](Reader::next_key) and
/// [`next_item`](Reader::next_item) step through an open container, and
/// [`skip`](Reader::skip) reads past a value it does not want. Commas,
/// colons and closing brackets are checked as the walk passes them, so a
/// reader that reaches [`end`](Reader::end) without an error has read a
/// valid document.
#[derive(Debug)]
pub struct Reader<'a> {
    b: &'a [u8],
    i: usize,
    /// Containers opened and not yet closed.
    depth: usize,
    /// True right after a container opens: its first item takes no comma.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `b`.
    pub fn new(b: &'a [u8]) -> Reader<'a> {
        Reader {
            b,
            i: 0,
            depth: 0,
            first: false,
        }
    }

    fn err(&self, what: &'static str) -> Error {
        error(self.i, what)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.b.get(self.i) {
            self.i += 1;
        }
    }

    /// The next byte after whitespace, without consuming it.
    pub fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| self.err("unexpected end"))
    }

    /// Checks that only whitespace follows the value just read.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    /// Reads the next value: all of a scalar, or the opening bracket of
    /// an object or array.
    pub fn token(&mut self) -> Result<Token<'a>, Error> {
        match self.peek()? {
            c @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than 128 levels"));
                }
                self.depth += 1;
                self.first = true;
                self.i += 1;
                Ok(if c == b'{' { Token::Obj } else { Token::Arr })
            }
            b'"' => self.string().map(Token::Str),
            b't' => self.literal(b"true", Token::Bool(true)),
            b'f' => self.literal(b"false", Token::Bool(false)),
            b'n' => self.literal(b"null", Token::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// In an open object: the next field's name, with its `:` read (its
    /// value comes next), or `None` once the closing `}` is read.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        if self.peek()? != b'"' {
            return Err(self.err("expected a field name"));
        }
        let key = self.string()?;
        if self.peek()? != b':' {
            return Err(self.err("expected ':'"));
        }
        self.i += 1;
        Ok(Some(key))
    }

    /// In an open array: true if an item comes next, false once the
    /// closing `]` is read.
    pub fn next_item(&mut self) -> Result<bool, Error> {
        self.next(b']')
    }

    /// Reads past the closing `close` (false), or the comma before the
    /// next item when it is not the container's first (true).
    fn next(&mut self, close: u8) -> Result<bool, Error> {
        let c = self.peek()?;
        if c == close {
            self.i += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if !std::mem::replace(&mut self.first, false) {
            if c != b',' {
                return Err(self.err("expected ',' or a closing bracket"));
            }
            self.i += 1;
        }
        Ok(true)
    }

    /// Reads the rest of the value `t` began: an object's or an array's
    /// items and its closing bracket. A scalar token is a whole value.
    pub fn finish(&mut self, t: Token<'a>) -> Result<(), Error> {
        match t {
            Token::Obj => {
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Token::Arr => {
                while self.next_item()? {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads past one value, checking it as strictly as any other.
    pub fn skip(&mut self) -> Result<(), Error> {
        let t = self.token()?;
        self.finish(t)
    }

    fn literal(&mut self, word: &[u8], t: Token<'a>) -> Result<Token<'a>, Error> {
        if self.b[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(t)
        } else {
            Err(self.err("bad literal"))
        }
    }

    /// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Token<'a>, Error> {
        let b = self.b;
        let start = self.i;
        let int_start = start + usize::from(b[start] == b'-');
        // The integer part, accumulated as it is scanned: exact while it
        // has fewer than 20 digits.
        let (mut i, mut n) = (int_start, 0u64);
        while let Some(d @ 0..=9) = b.get(i).map(|c| c.wrapping_sub(b'0')) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d));
            i += 1;
        }
        let digits = i - int_start;
        self.i = i;
        if digits == 0 {
            return Err(self.err("expected a digit"));
        }
        if digits > 1 && b[int_start] == b'0' {
            return Err(error(int_start, "leading zero"));
        }
        let mut int = int_start == start;
        if b.get(self.i) == Some(&b'.') {
            self.i += 1;
            self.digits()?;
            int = false;
        }
        if let Some(b'e' | b'E') = b.get(self.i) {
            self.i += 1;
            if let Some(b'+' | b'-') = b.get(self.i) {
                self.i += 1;
            }
            self.digits()?;
            int = false;
        }
        if int && digits < 20 {
            return Ok(Token::Int(n));
        }
        // The grammar above admits only ASCII.
        let text = std::str::from_utf8(&b[start..self.i]).unwrap_or_default();
        match text.parse() {
            Ok(n) if int => Ok(Token::Int(n)),
            _ => text
                .parse()
                .map(Token::Num)
                .map_err(|_| error(start, "bad number")),
        }
    }

    /// One or more digits.
    fn digits(&mut self) -> Result<(), Error> {
        let start = self.i;
        while let Some(b'0'..=b'9') = self.b.get(self.i) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// Reads a string from its opening quote. Runs between escapes are
    /// checked as UTF-8 — inside a string is the only place JSON admits
    /// a non-ASCII byte — and borrowed when no escape splits them.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        let b = self.b;
        self.i += 1;
        let mut owned: Option<String> = None;
        loop {
            let run = self.i;
            while let Some(&c) = b.get(self.i) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.i += 1;
            }
            let text = std::str::from_utf8(&b[run..self.i])
                .map_err(|e| error(run + e.valid_up_to(), "invalid UTF-8 in string"))?;
            match b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(text),
                        Some(mut s) => {
                            s.push_str(text);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(text);
                    self.i += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash (RFC 8259 §7); a `\u` high
    /// surrogate must be followed by a `\u` low surrogate, and the pair
    /// is one character.
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.i;
        let c = self.b.get(self.i).copied();
        self.i += 1;
        Ok(match c {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.b[self.i..].starts_with(b"\\u") {
                    self.i += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // Only a surrogate left unpaired is not a `char`.
                char::from_u32(code).ok_or(error(at, "lone surrogate"))?
            }
            _ => return Err(error(at, "bad escape")),
        })
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0;
        for _ in 0..4 {
            let d = self
                .b
                .get(self.i)
                .and_then(|&c| char::from(c).to_digit(16))
                .ok_or_else(|| self.err("expected four hex digits"))?;
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_exactly_over_the_full_u64_range() {
        // 2^53 + 1 is the first integer an f64 cannot represent; the
        // store's digest and bit-pattern fields live far above it.
        for n in [0u64, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let doc = format!("{{\"v\": {n}}}");
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("v").and_then(Value::as_u64), Some(n), "{n}");
        }
    }

    #[test]
    fn fractional_and_negative_numbers_are_floats() {
        let v = parse("[1.5, -3, 2e6]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Value::Num(1.5));
        assert_eq!(items[1], Value::Num(-3.0));
        assert_eq!(items[2], Value::Num(2e6));
        assert_eq!(items[0].as_u64(), None, "floats never pose as ints");
        assert_eq!(items[1].as_f64(), Some(-3.0));
    }

    #[test]
    fn literals_parse() {
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert!(parse("troo").is_err());
    }

    #[test]
    fn escape_then_parse_is_identity_for_hostile_strings() {
        let nasty = "we\"ird\\lab\nel\tx\u{1}/end";
        let doc = format!("{{\"label\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("label").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn strictness_rejects_malformed_documents() {
        assert!(parse("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(parse("{\"a\" 1}").is_err(), "missing colon");
        assert!(parse("[1 2]").is_err(), "missing comma");
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\": 1} extra").is_err(), "trailing garbage");
        assert!(parse("\"raw\u{1}control\"").is_err());
        assert!(parse("").is_err());
        // Numbers outside RFC 8259 §6's grammar.
        for bad in [
            "007", "01", "-01", "+1", ".5", "-.5", "1.", "1.e5", "1e", "-",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
        // A lone surrogate is no character.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\u+123\"",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
        // A record truncated mid-write must never parse.
        let full = "{\"report\": [1, 2, 3], \"digest\": 99}";
        for cut in 1..full.len() {
            assert!(parse(&full[..cut]).is_err(), "truncation at {cut} parsed");
        }
    }

    #[test]
    fn an_escaped_surrogate_pair_is_one_character() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        let doc = format!("\"{}\"", escape("\u{1f600}"));
        assert_eq!(parse(&doc).unwrap(), v, "raw UTF-8 reads back the same");
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A million open brackets would overflow a recursive parser's
        // stack; the cap turns them into an error at byte 128.
        let deep = "[".repeat(1_000_000);
        assert!(parse(&deep).is_err());
        let mut r = Reader::new(deep.as_bytes());
        assert!(r.skip().is_err());
    }

    #[test]
    fn nested_structure_and_field_order() {
        let v = parse("{\"a\": [1, {\"b\": \"x\"}], \"c\": null}").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }
}
