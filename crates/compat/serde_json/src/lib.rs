//! Offline shim of `serde_json`: one JSON text sink and one JSON text
//! source for the `serde` shim's token stream.
//!
//! [`to_string`] / [`to_string_pretty`] stream a [`Serialize`] type's
//! tokens straight into text, and [`from_str`] streams text straight
//! into a [`Deserialize`] type: no [`Value`] tree is built on either
//! side, and a parse allocates only what the target owns (an
//! escape-free string or key is one slice of the input until the
//! target copies it).  [`parse_value`] and [`value_to_string`] are
//! [`Value`]'s own impls over the same parser and writer, for callers
//! that speak trees.
//!
//! The parser is recursive descent, so nesting is capped at
//! [`MAX_DEPTH`] open containers: a deeper document is an [`Error`],
//! never a stack overflow, on any thread.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::Range;

pub use serde::Error;
use serde::de::{Kind, Scalar};
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

/// The deepest nesting of arrays and objects the parser accepts — ten
/// times the deepest document this workspace writes (a checkpoint, 12
/// levels).
pub const MAX_DEPTH: usize = 128;

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails in this shim (kept for API compatibility).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, false))
}

/// Serializes `value` to human-readable JSON.
///
/// # Errors
///
/// Never fails in this shim (kept for API compatibility).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, true))
}

/// Renders a [`Value`] tree as compact JSON: [`to_string`] without the
/// `Result`.
pub fn value_to_string(value: &Value) -> String {
    write(value, false)
}

/// Renders a [`Value`] tree as human-readable JSON (see
/// [`value_to_string`]).
pub fn value_to_string_pretty(value: &Value) -> String {
    write(value, true)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Malformed JSON, nesting deeper than [`MAX_DEPTH`], trailing
/// characters, or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { text: s, bytes: s.as_bytes(), pos: 0, depth: 0, fresh: false };
    let value = T::deserialize(&mut p)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Parses JSON text into the raw [`Value`] tree: [`from_str`] for
/// `Value`.
///
/// # Errors
///
/// Malformed JSON, nesting deeper than [`MAX_DEPTH`] or trailing
/// characters.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    from_str(s)
}

// --------------------------------------------------------------------
// Writer.
// --------------------------------------------------------------------

fn write<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer { out: String::with_capacity(128), pretty, level: 0, fresh: false };
    value.serialize(&mut w);
    w.out
}

/// The text sink.  `fresh` is "the last thing written opened a
/// container": the next element needs no comma, and a container closed
/// while fresh is empty and renders as `[]` / `{}`.
struct Writer {
    out: String,
    pretty: bool,
    /// Open containers.
    level: usize,
    fresh: bool,
}

impl Writer {
    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..2 * self.level {
                self.out.push(' ');
            }
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.level += 1;
        self.fresh = true;
    }

    fn next_entry(&mut self) {
        if !std::mem::replace(&mut self.fresh, false) {
            self.out.push(',');
        }
        self.newline_indent();
    }

    fn close(&mut self, bracket: char) {
        self.level -= 1;
        if !std::mem::replace(&mut self.fresh, false) {
            self.newline_indent();
        }
        self.out.push(bracket);
    }
}

impl Serializer for Writer {
    fn null(&mut self) {
        self.out.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn int(&mut self, v: i64) {
        if v < 0 {
            self.out.push('-');
        }
        write_u64(&mut self.out, v.unsigned_abs());
    }

    fn uint(&mut self, v: u64) {
        write_u64(&mut self.out, v);
    }

    fn float(&mut self, v: f64) {
        if v.is_finite() {
            // Rust's shortest round-trip float formatting, straight
            // into the buffer; add `.0` so integral floats stay floats
            // through a round trip.
            let start = self.out.len();
            let _ = write!(self.out, "{v}");
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            // JSON has no NaN/inf; serde_json writes null.
            self.out.push_str("null");
        }
    }

    fn str(&mut self, v: &str) {
        write_string(&mut self.out, v);
    }

    fn begin_seq(&mut self) {
        self.open('[');
    }

    fn element(&mut self) {
        self.next_entry();
    }

    fn end_seq(&mut self) {
        self.close(']');
    }

    fn begin_map(&mut self) {
        self.open('{');
    }

    fn key(&mut self, k: &str) {
        self.next_entry();
        write_string(&mut self.out, k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    fn end_map(&mut self) {
        self.close('}');
    }
}

/// Decimal digits of `u`, most significant first, without a temporary
/// `String`.
fn write_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// `true` for the bytes a JSON string must escape.  All are ASCII, so
/// cutting a `&str` at one is always on a character boundary.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Unescaped stretches are copied whole.
    let mut rest = s;
    while let Some(at) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

// --------------------------------------------------------------------
// Parser.
// --------------------------------------------------------------------

/// The text source.  The caller knows which container it is in, so the
/// parser only tracks the nesting depth and `fresh`: "the last thing
/// consumed opened a container", i.e. the next element needs no comma.
struct Parser<'de> {
    /// The document, and the same bytes for indexing.
    text: &'de str,
    bytes: &'de [u8],
    pos: usize,
    /// Open containers.
    depth: usize,
    fresh: bool,
}

impl<'de> Parser<'de> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn unexpected(&self) -> Error {
        if self.pos < self.bytes.len() {
            Error::msg(format!("unexpected character at byte {}", self.pos))
        } else {
            Error::msg("unexpected end of JSON")
        }
    }

    /// Consumes `bracket`, opening a container.
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.skip_ws();
        self.expect(bracket)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            )));
        }
        self.fresh = true;
        Ok(())
    }

    /// Before the next element of the open container: `true` when one
    /// follows (after its comma, if it is not the first), `false` once
    /// `close` is consumed.
    fn next_entry(&mut self, close: u8) -> Result<bool, Error> {
        let first = std::mem::replace(&mut self.fresh, false);
        self.skip_ws();
        match self.peek_byte() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            _ => Err(Error::msg(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        // An escape-free string (every key, nearly every value) is one
        // scan for the closing quote and a slice of the input.  `"` and
        // `\` are ASCII, so every cut falls on a character boundary.
        let start = self.pos;
        self.pos = start + self.unescaped_run()?;
        if self.bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            // At a `"` or a `\`.
            self.pos += 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(Cow::Owned(out));
            }
            let Some(esc) = self.peek_byte() else {
                return Err(Error::msg("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                    self.pos += 4;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?,
                        16,
                    )
                    .map_err(|_| Error::msg("bad \\u escape"))?;
                    // Surrogate pairs are not needed by this workspace's
                    // identifiers; map lone surrogates to the
                    // replacement character.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(Error::msg("unknown escape")),
            }
            let run = self.unescaped_run()?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
        }
    }

    /// Bytes from `pos` to the next `"` or `\`.
    fn unescaped_run(&self) -> Result<usize, Error> {
        self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| Error::msg("unterminated string"))
    }

    fn number(&mut self) -> Result<Scalar<'de>, Error> {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        // Accumulated alongside the scan: a plain non-negative integer
        // that fits is done when its last digit is.
        let mut plain = Some(0u64);
        while let Some(c) = self.peek_byte().filter(u8::is_ascii_digit) {
            plain = plain
                .and_then(|u| u.checked_mul(10))
                .and_then(|u| u.checked_add(u64::from(c - b'0')));
            self.pos += 1;
        }
        if let (Some(u), false) = (plain, matches!(self.peek_byte(), Some(b'.' | b'e' | b'E'))) {
            if self.bytes[start] != b'-' {
                return Ok(Scalar::UInt(u));
            }
        }
        let mut is_float = false;
        if self.peek_byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek_byte(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek_byte(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>().map(Scalar::Float).map_err(|_| Error::msg("invalid float"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Scalar::Int).map_err(|_| Error::msg("invalid integer"))
        } else {
            text.parse::<u64>().map(Scalar::UInt).map_err(|_| Error::msg("invalid integer"))
        }
    }
}

impl<'de> Deserializer<'de> for Parser<'de> {
    fn peek(&mut self) -> Result<Kind, Error> {
        self.skip_ws();
        Ok(match self.peek_byte() {
            Some(b'{') => Kind::Map,
            Some(b'[') => Kind::Seq,
            Some(b'"') => Kind::Str,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'n') => Kind::Null,
            Some(c) if c == b'-' || c.is_ascii_digit() => Kind::Number,
            _ => return Err(self.unexpected()),
        })
    }

    fn scalar(&mut self) -> Result<Scalar<'de>, Error> {
        self.skip_ws();
        self.fresh = false;
        match self.peek_byte() {
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b't') if self.eat_literal("true") => Ok(Scalar::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Scalar::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Scalar::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    fn begin_seq(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    fn next_element(&mut self) -> Result<bool, Error> {
        self.next_entry(b']')
    }

    fn begin_map(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    fn spanned<T: Deserialize>(&mut self) -> Result<(T, Option<Range<usize>>), Error> {
        self.skip_ws();
        let start = self.pos;
        let value = T::deserialize(self)?;
        Ok((value, Some(start..self.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_value_tree() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::UInt(7)),
            ("b".to_string(), Value::Seq(vec![Value::Float(1.5), Value::Null])),
            ("s".to_string(), Value::Str("hi \"there\"\n".to_string())),
            ("neg".to_string(), Value::Int(-3)),
            ("t".to_string(), Value::Bool(true)),
        ]);
        assert_eq!(parse_value(&value_to_string(&v)).unwrap(), v);
        assert_eq!(parse_value(&value_to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.0, 1.0, 0.1875, 1e-15, 123456.789, -2.5e17] {
            let s = value_to_string(&Value::Float(f));
            match parse_value(&s).unwrap() {
                Value::Float(g) => assert_eq!(f, g, "{s}"),
                Value::Int(i) => assert_eq!(f, i as f64),
                Value::UInt(u) => assert_eq!(f, u as f64),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn typed_round_trip() {
        let pairs: Vec<(u64, Option<f64>)> = vec![(1, Some(2.5)), (9, None)];
        let json = to_string(&pairs).unwrap();
        let back: Vec<(u64, Option<f64>)> = from_str(&json).unwrap();
        assert_eq!(pairs, back);
    }

    #[test]
    fn empty_containers_and_layout() {
        let v = Value::Seq(vec![Value::Seq(Vec::new()), Value::Map(Vec::new())]);
        assert_eq!(value_to_string(&v), "[[],{}]");
        assert_eq!(value_to_string_pretty(&v), "[\n  [],\n  {}\n]");
    }

    #[test]
    fn malformed_separators_are_errors() {
        for bad in ["[1 2]", "[1,]", "[,1]", "{,}", "{\"a\":1,}", "{\"a\":1 \"b\":2}", "{\"a\" 1}"] {
            assert!(parse_value(bad).is_err(), "{bad}");
        }
        assert!(parse_value("[1] x").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_value(&at_cap).is_ok());
        let past = format!("[{at_cap}]");
        assert!(parse_value(&past).unwrap_err().0.contains("nesting deeper than 128"));
        let keyed = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse_value(&keyed).is_err());
    }

    #[test]
    fn escaped_strings_decode() {
        let s: String = from_str(r#""a\"b\\c\u00e9\n""#).unwrap();
        assert_eq!(s, "a\"b\\cé\n");
        assert!(from_str::<String>("\"open").is_err());
        assert!(from_str::<String>("\"bad \\q\"").is_err());
    }
}
