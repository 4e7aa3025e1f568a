//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json): the JSON
//! text format on top of the shimmed `serde` [`Value`] tree.
//!
//! Provides exactly what this workspace calls: [`to_string`],
//! [`to_string_pretty`], and [`from_str`], plus [`Value`] re-exported for
//! ad-hoc inspection. See `docs/offline-build.md` for why the workspace
//! vendors its dependencies.

pub use serde::Value;

use serde::{Deserialize, Serialize};
use std::fmt;

/// A JSON serialization or parse failure.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::de::Error> for Error {
    fn from(e: serde::de::Error) -> Error {
        Error(e.to_string())
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
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

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Appends the decimal digits of `u` to `out` without a temporary string.
fn write_u64(mut u: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            write_u64(i.unsigned_abs(), out);
        }
        Value::UInt(u) => write_u64(*u, out),
        Value::Float(f) => {
            if f.is_finite() {
                // Always keep a decimal point or exponent so the token
                // re-parses as a float.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error("unexpected end of input".into()))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(Error(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(Error("unterminated string".into()));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(Error("unterminated escape".into()));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("invalid \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("invalid \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's data; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(Error("invalid escape".into())),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multibyte UTF-8: back up and decode just this one
                    // character from a ≤ 4-byte window. Never re-validate
                    // the whole remaining input per character — that made
                    // parsing quadratic in the length of long strings.
                    let start = self.pos - 1;
                    let end = self.bytes.len().min(start + 4);
                    let window = &self.bytes[start..end];
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        // The window may cut the *next* character short;
                        // any valid prefix still holds this one whole.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&window[..e.valid_up_to()])
                                .expect("validated prefix")
                        }
                        Err(_) => return Err(Error("invalid UTF-8".into())),
                    };
                    let c = valid.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        // Fast path: a plain non-negative integer, accumulated digit by
        // digit. A sign, fraction, exponent or `u64` overflow falls through
        // to the general path, which yields the same value for every token
        // the fast path accepts.
        let mut acc = Some(0u64);
        let mut end = start;
        while let Some(&b) = self.bytes.get(end).filter(|b| b.is_ascii_digit()) {
            acc = acc.and_then(|a| a.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            end += 1;
        }
        if let Some(u) = acc.filter(|_| end > start) {
            if !matches!(self.bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
                self.pos = end;
                return Ok(match i64::try_from(u) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(u),
                });
            }
        }
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number '{text}'")))
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("strassen \"fast\"".into())),
            ("n".into(), Value::Int(7)),
            ("omega".into(), Value::Float(2.807)),
            (
                "rows".into(),
                Value::Array(vec![Value::Int(1), Value::Int(-2)]),
            ),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
        ]);
        let compact = to_string(&v).unwrap();
        let parsed: Value = from_str(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        let parsed_pretty: Value = from_str(&pretty).unwrap();
        assert_eq!(parsed_pretty, v);
        assert!(pretty.contains("\n  \"name\""));
    }

    #[test]
    fn malformed_rejected() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"abc").is_err());
    }

    #[test]
    fn integers_stay_exact() {
        let parsed: Value = from_str("18446744073709551615").unwrap();
        assert_eq!(parsed, Value::UInt(u64::MAX));
        let parsed: Value = from_str("-9223372036854775808").unwrap();
        assert_eq!(parsed, Value::Int(i64::MIN));
    }

    /// The number parser before its integer fast path, kept verbatim as
    /// the oracle: the shim sits in the certificate verifier's trust base.
    fn general_number(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let start = p.pos;
        if p.bytes[p.pos] == b'-' {
            p.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = p.bytes.get(p.pos) {
            match b {
                b'0'..=b'9' => p.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    p.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&p.bytes[start..p.pos]).map_err(|e| e.to_string())?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number '{text}'"))
    }

    #[test]
    fn integer_fast_path_matches_general_parser() {
        let tokens = [
            "0".to_string(),
            "007".to_string(),
            "-0".to_string(),
            i64::MAX.to_string(),
            (i64::MAX as u64 + 1).to_string(),
            u64::MAX.to_string(),
            (u64::MAX as u128 + 1).to_string(),
            i64::MIN.to_string(),
            "1e3".to_string(),
            "1.5".to_string(),
            "-12".to_string(),
            "12e".to_string(),
            "1-2".to_string(),
            "99999999999999999999999".to_string(),
        ];
        for tok in &tokens {
            let general = general_number(tok);
            let parsed = parse_value(tok).map_err(|e| e.to_string());
            assert_eq!(parsed, general, "token {tok}");
            // Inside a container the token ends at a delimiter.
            let wrapped = parse_value(&format!("[{tok},{tok}]")).map_err(|e| e.to_string());
            match general {
                Ok(v) => assert_eq!(wrapped, Ok(Value::Array(vec![v.clone(), v])), "{tok}"),
                Err(_) => assert!(wrapped.is_err(), "{tok}"),
            }
        }
    }

    #[test]
    fn integers_write_like_display() {
        for i in [0, 7, -1, -12, i64::MAX, i64::MIN] {
            assert_eq!(to_string(&Value::Int(i)).unwrap(), i.to_string());
        }
        for u in [0, 9, 10, 1 << 63, u64::MAX] {
            assert_eq!(to_string(&Value::UInt(u)).unwrap(), u.to_string());
        }
    }

    #[test]
    fn floats_keep_a_marker() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
    }

    #[test]
    fn multibyte_strings_roundtrip() {
        // Adjacent multibyte chars exercise the decode window cutting the
        // *next* character short; the tail digits exercise the ASCII path
        // after a multibyte prefix.
        let s = "ω₀ ≈ 2.807 — strassen⊗strassen, naïve=false, ✓✓✓ 123".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        // A long single-token string parses in linear time; this is the
        // regression shape (schedule certificates carry ~10⁶-char op
        // strings), though only correctness is asserted here.
        let long = "LC".repeat(1 << 18);
        let back: String = from_str(&to_string(&long).unwrap()).unwrap();
        assert_eq!(back, long);
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "line\nbreak\ttab \"quote\" back\\slash".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
