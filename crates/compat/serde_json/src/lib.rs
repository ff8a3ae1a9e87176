//! Offline shim of `serde_json` over the `serde` shim's [`Value`] model:
//! `to_string`, `to_string_pretty` and `from_str`, with a small
//! recursive-descent JSON parser.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails in this shim (kept for API compatibility).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(value_to_string(&value.to_value()))
}

/// Serializes `value` to human-readable JSON.
///
/// # Errors
///
/// Never fails in this shim (kept for API compatibility).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(value_to_string_pretty(&value.to_value()))
}

/// Renders a [`Value`] tree as compact JSON.  What [`to_string`] does
/// after `to_value` — for a caller that already holds the tree, whose
/// `to_value` would be a deep copy of it.
pub fn value_to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Renders a [`Value`] tree as human-readable JSON (see
/// [`value_to_string`]).
pub fn value_to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

/// Parses JSON text into the raw [`Value`] tree.
///
/// # Errors
///
/// Malformed JSON.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser { text: s, bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg("trailing characters after JSON value"));
    }
    Ok(v)
}

// --------------------------------------------------------------------
// Writer.
// --------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            write_u64(out, i.unsigned_abs());
        }
        Value::UInt(u) => write_u64(out, *u),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip float formatting, straight
                // into the buffer; add `.0` so integral floats stay
                // floats through a round trip.
                let start = out.len();
                let _ = write!(out, "{f}");
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // JSON has no NaN/inf; serde_json writes null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
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

struct Parser<'a> {
    /// The document, and the same bytes for indexing.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
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

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::msg(format!("unexpected character at byte {}", self.pos))),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(Vec::new()));
        }
        // Most objects are structs of a handful of fields: start past
        // the first two regrowths.
        let mut entries = Vec::with_capacity(8);
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::msg("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(Vec::new()));
        }
        let mut items = Vec::with_capacity(4);
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::msg("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        // An escape-free string (every key, nearly every value) is one
        // scan for the closing quote and one copy.  `"` and `\` are
        // ASCII, so both cuts fall on character boundaries.
        let start = self.pos;
        let stop = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| Error::msg("unterminated string"))?;
        self.pos = start + stop;
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            let Some(c) = self.peek() else {
                return Err(Error::msg("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
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
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // workspace's identifiers; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(Error::msg("unknown escape")),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte slice.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::msg("truncated UTF-8"))?;
                    let s =
                        std::str::from_utf8(chunk).map_err(|_| Error::msg("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Accumulated alongside the scan: a plain non-negative integer
        // that fits is done when its last digit is.
        let mut plain = Some(0u64);
        while let Some(c) = self.peek().filter(u8::is_ascii_digit) {
            plain = plain
                .and_then(|u| u.checked_mul(10))
                .and_then(|u| u.checked_add(u64::from(c - b'0')));
            self.pos += 1;
        }
        if let (Some(u), false) = (plain, matches!(self.peek(), Some(b'.' | b'e' | b'E'))) {
            if self.bytes[start] != b'-' {
                return Ok(Value::UInt(u));
            }
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg("invalid float"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::msg("invalid integer"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::msg("invalid integer"))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
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
}
