//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json): the JSON
//! text format on top of the shimmed `serde` [`Value`] tree.
//!
//! Provides exactly what this workspace calls: [`to_string`],
//! [`to_string_pretty`], and [`from_str`], plus [`Value`] re-exported for
//! ad-hoc inspection. Two further paths skip the tree for documents too
//! large to hold as one: [`Raw`], a borrowed pull reader over text the
//! grammar has already validated, and [`ToJson`], a direct compact writer.
//! See `docs/offline-build.md` for why the workspace vendors its
//! dependencies.

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

/// The shim's type-mismatch message, worded as `serde`'s own.
fn type_error(want: &str, got: &str) -> Error {
    Error(format!("expected {want}, got {got}"))
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

/// Direct compact rendering, without an intermediate [`Value`]: for every
/// implementing type, `write_json` appends exactly the bytes [`to_string`]
/// renders for that type's `Serialize` value.
pub trait ToJson {
    /// Appends `self` as compact JSON.
    fn write_json(&self, out: &mut String);
}

macro_rules! impl_to_json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(*self as u64, out);
            }
        }
    )*};
}

impl_to_json_unsigned!(u32, u64, usize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// Appends an object with `fields` as its members, in order.
pub fn write_object(out: &mut String, fields: &[(&str, &dyn ToJson)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(key, out);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

/// What one pass of the grammar builds from the text it accepts. The
/// grammar itself is written once, in [`Parser`]; a `Build` only decides
/// what to keep.
trait Build {
    /// The result of one value.
    type Out;
    /// The decoded contents of one string.
    type Str: Default;
    fn push_char(s: &mut Self::Str, c: char);
    fn scalar(v: Value) -> Self::Out;
    fn string(s: Self::Str) -> Self::Out;
    fn array(p: &mut Parser<'_>) -> Result<Self::Out, Error>;
    fn object(p: &mut Parser<'_>) -> Result<Self::Out, Error>;
}

/// Builds the [`Value`] tree.
struct Tree;

/// Builds nothing: validation, and finding where a value ends.
struct Skip;

impl Build for Tree {
    type Out = Value;
    type Str = String;

    fn push_char(s: &mut String, c: char) {
        s.push(c);
    }

    fn scalar(v: Value) -> Value {
        v
    }

    fn string(s: String) -> Value {
        Value::Str(s)
    }

    fn array(p: &mut Parser<'_>) -> Result<Value, Error> {
        let mut items = Vec::new();
        p.list(b'[', b']', |p| {
            items.push(p.value::<Tree>()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn object(p: &mut Parser<'_>) -> Result<Value, Error> {
        let mut fields = Vec::new();
        p.list(b'{', b'}', |p| {
            let key = p.key::<Tree>()?;
            fields.push((key, p.value::<Tree>()?));
            Ok(())
        })?;
        Ok(Value::Object(fields))
    }
}

impl Build for Skip {
    type Out = ();
    type Str = ();

    fn push_char(_: &mut (), _: char) {}

    fn scalar(_: Value) {}

    fn string(_: ()) {}

    fn array(p: &mut Parser<'_>) -> Result<(), Error> {
        p.list(b'[', b']', |p| p.value::<Skip>())
    }

    fn object(p: &mut Parser<'_>) -> Result<(), Error> {
        p.list(b'{', b'}', |p| {
            p.key::<Skip>()?;
            p.value::<Skip>()
        })
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    Parser::new(s.as_bytes()).document::<Tree>()
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Parser<'a> {
        Parser { bytes, pos: 0 }
    }

    /// One whole document: a value, then nothing but whitespace.
    fn document<B: Build>(&mut self) -> Result<B::Out, Error> {
        let v = self.value::<B>()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", self.pos)));
        }
        Ok(v)
    }

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

    fn value<B: Build>(&mut self) -> Result<B::Out, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null).map(B::scalar),
            b't' => self.literal("true", Value::Bool(true)).map(B::scalar),
            b'f' => self.literal("false", Value::Bool(false)).map(B::scalar),
            b'"' => self.string::<B>().map(B::string),
            b'[' => B::array(self),
            b'{' => B::object(self),
            b'-' | b'0'..=b'9' => self.number().map(B::scalar),
            c => Err(Error(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            ))),
        }
    }

    /// Reads the array here with `each` per element; a non-array is the
    /// error `Vec<_>`'s [`Deserialize`] gives.
    fn column<T>(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        if self.peek()? != b'[' {
            let here = Raw {
                bytes: &self.bytes[self.pos..],
            };
            return Err(type_error("array", here.kind()));
        }
        let mut out = Vec::new();
        self.list(b'[', b']', |p| {
            out.push(each(p)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Decodes the value here through `T`'s [`Deserialize`].
    fn element<T: Deserialize>(&mut self) -> Result<T, Error> {
        Ok(T::from_value(&self.value::<Tree>()?)?)
    }

    /// The list syntax both containers share: `open`, elements separated
    /// by commas and each read by `element`, then `close`.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let mut more = self.list_open(open, close)?;
        while more {
            element(self)?;
            more = self.list_next(close)?;
        }
        Ok(())
    }

    /// A list's `open`; whether an element follows.
    fn list_open(&mut self, open: u8, close: u8) -> Result<bool, Error> {
        self.expect(open)?;
        if self.peek()? == close {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// What follows a list element: a comma and another element (`true`),
    /// or `close` (`false`).
    fn list_next(&mut self, close: u8) -> Result<bool, Error> {
        match self.peek()? {
            b',' => {
                self.pos += 1;
                Ok(true)
            }
            c if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(Error(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            ))),
        }
    }

    /// An object member's key and the colon after it.
    fn key<B: Build>(&mut self) -> Result<B::Str, Error> {
        self.skip_ws();
        let key = self.string::<B>()?;
        self.expect(b':')?;
        Ok(key)
    }

    fn string<B: Build>(&mut self) -> Result<B::Str, Error> {
        self.expect(b'"')?;
        let mut out = B::Str::default();
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
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
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
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        }
                        _ => return Err(Error("invalid escape".into())),
                    };
                    B::push_char(&mut out, c);
                }
                b if b < 0x80 => B::push_char(&mut out, b as char),
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
                    B::push_char(&mut out, c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        // Fast path: a plain non-negative integer of at most 19 digits,
        // which no `u64` accumulation can overflow. A sign, fraction,
        // exponent or longer token falls through to the general path,
        // which yields the same value for every token the fast path
        // accepts.
        let digits = self.bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let end = start + digits;
        if (1..=19).contains(&digits)
            && !matches!(self.bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            let u = self.bytes[start..end]
                .iter()
                .fold(0u64, |a, &b| a * 10 + u64::from(b - b'0'));
            self.pos = end;
            return Ok(match i64::try_from(u) {
                Ok(i) => Value::Int(i),
                Err(_) => Value::UInt(u),
            });
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
}

/// One JSON value inside a document the grammar has already accepted: a
/// borrowed pull reader that decodes straight from the text, so a large
/// document never becomes a [`Value`] tree.
///
/// Only [`Raw::parse`] makes one, after validating the whole document
/// with the same grammar and messages as [`from_str`]. Every later read
/// re-scans validated text, yet still returns `Result` rather than
/// assume it.
#[derive(Clone, Copy)]
pub struct Raw<'a> {
    /// Text starting at the value's first byte. It may run on past the
    /// value's end: every read parses exactly one value from the start.
    bytes: &'a [u8],
}

impl fmt::Debug for Raw<'_> {
    /// The kind only: the text may run on for megabytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Raw").field(&self.kind()).finish()
    }
}

impl<'a> Raw<'a> {
    /// Validates `s` as one JSON document, accepting and rejecting exactly
    /// what [`from_str`] does with the same error messages, and returns its
    /// top-level value.
    pub fn parse(s: &'a str) -> Result<Raw<'a>, Error> {
        Parser::new(s.as_bytes()).document::<Skip>()?;
        let value = s.trim_matches([' ', '\t', '\n', '\r']);
        Ok(Raw {
            bytes: value.as_bytes(),
        })
    }

    fn parser(&self) -> Parser<'a> {
        Parser::new(self.bytes)
    }

    /// The value's type name, as [`Value::kind`] gives it.
    pub fn kind(&self) -> &'static str {
        match self.bytes.first() {
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'"') => "string",
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            // A number is an integer only if it parses as one.
            _ => self.value().map_or("number", |v| v.kind()),
        }
    }

    /// This value as a [`Value`] tree.
    pub fn value(&self) -> Result<Value, Error> {
        self.parser().value::<Tree>()
    }

    /// Opens an object for member lookup and decoding; a non-object is the
    /// error the derived [`Deserialize`] impls give.
    pub fn fields(&self) -> Result<Fields<'a>, Error> {
        if self.bytes.first() != Some(&b'{') {
            return Err(type_error("object", self.kind()));
        }
        let mut fields = Fields::default();
        let mut p = self.parser();
        if p.list_open(b'{', b'}')? {
            fields.index_member(p)?;
        }
        Ok(fields)
    }
}

/// An object's members in document order, indexed by one scan that runs
/// only as far as lookups need.
///
/// Lookups in document order read each member once: the scan parks at the
/// value of the last member it indexed, and decoding that member through
/// [`Fields::decode`] and its siblings reads it in place and moves the
/// scan past it. Only a member that is never decoded here (one handed out
/// as a [`Raw`], or one not asked for) is skipped to reach a later key.
#[derive(Default)]
pub struct Fields<'a> {
    /// The members indexed so far, each value from its first byte on.
    entries: Vec<(String, Raw<'a>)>,
    /// The scan: parked at the value of the last indexed member, or just
    /// past it once that value was decoded in place (`true`); `None` once
    /// the object's closing brace is read.
    scan: Option<(Parser<'a>, bool)>,
}

impl<'a> Fields<'a> {
    /// The first member named `key`: a duplicate resolves as [`Value::get`]
    /// resolves it.
    pub fn get(&mut self, key: &str) -> Result<Option<Raw<'a>>, Error> {
        Ok(self.find(key)?.map(|i| self.entries[i].1))
    }

    /// The first member named `key`, or the error the derived
    /// [`Deserialize`] impls give for a missing field.
    pub fn field(&mut self, key: &str) -> Result<Raw<'a>, Error> {
        self.get(key)?
            .ok_or_else(|| Error(format!("missing field `{key}`")))
    }

    /// Decodes member `key` through `T`'s [`Deserialize`], materializing
    /// only this value. Meant for scalars and other small values.
    pub fn decode<T: Deserialize>(&mut self, key: &str) -> Result<T, Error> {
        self.read(key, Parser::element)
    }

    /// Decodes the array member `key` one element at a time, with the
    /// errors `Vec<T>`'s [`Deserialize`] gives: a non-array, or the first
    /// element `T` refuses.
    pub fn decode_vec<T: Deserialize>(&mut self, key: &str) -> Result<Vec<T>, Error> {
        self.read(key, |p| p.column(Parser::element))
    }

    /// Decodes the array-of-arrays member `key`, with the errors
    /// `Vec<Vec<T>>`'s [`Deserialize`] gives; no inner array becomes a
    /// [`Value`].
    pub fn decode_nested<T: Deserialize>(&mut self, key: &str) -> Result<Vec<Vec<T>>, Error> {
        self.read(key, |p| p.column(|p| p.column(Parser::element)))
    }

    /// Reads member `key` with `read`: in place when the scan is parked at
    /// it, which moves the scan past it; otherwise from its indexed text.
    fn read<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Parser<'a>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let i = self
            .find(key)?
            .ok_or_else(|| Error(format!("missing field `{key}`")))?;
        match &mut self.scan {
            Some((p, past @ false)) if i + 1 == self.entries.len() => {
                // On a copy, so a failed read leaves the scan parked.
                let mut q = Parser::new(p.bytes);
                q.pos = p.pos;
                let v = read(&mut q)?;
                *p = q;
                *past = true;
                Ok(v)
            }
            _ => read(&mut self.entries[i].1.parser()),
        }
    }

    /// The index of the first member named `key`, scanning on as needed.
    fn find(&mut self, key: &str) -> Result<Option<usize>, Error> {
        let mut seen = 0;
        loop {
            if let Some(i) = self.entries[seen..].iter().position(|(k, _)| k == key) {
                return Ok(Some(seen + i));
            }
            seen = self.entries.len();
            if !self.index_next()? {
                return Ok(None);
            }
        }
    }

    /// Indexes the member whose key starts at `p`, and parks the scan at
    /// its value.
    fn index_member(&mut self, mut p: Parser<'a>) -> Result<(), Error> {
        let key = p.key::<Tree>()?;
        p.skip_ws();
        self.entries.push((
            key,
            Raw {
                bytes: &p.bytes[p.pos..],
            },
        ));
        self.scan = Some((p, false));
        Ok(())
    }

    /// Moves the scan past the parked value and indexes the next member;
    /// `false` at the end of the object.
    fn index_next(&mut self) -> Result<bool, Error> {
        let Some((mut p, past)) = self.scan.take() else {
            return Ok(false);
        };
        if !past {
            p.value::<Skip>()?;
        }
        if !p.list_next(b'}')? {
            return Ok(false);
        }
        self.index_member(p)?;
        Ok(true)
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

    /// The reader's validation against `parse_value`, on one input: the
    /// same acceptance, the same error message, and on valid input the
    /// same value.
    fn assert_reader_agrees(s: &str) {
        let tree = parse_value(s).map_err(|e| e.to_string());
        let raw = Raw::parse(s)
            .and_then(|r| r.value())
            .map_err(|e| e.to_string());
        assert_eq!(raw, tree, "input {s:?}");
    }

    /// A deterministic xorshift stream: the shim has no `rand`.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    const VALID_DOCS: &[&str] = &[
        r#"{"version":1,"kind":"schedule","base":{"name":"unit","n0":1},"payload":{"ops":"LCS","vertices":[0,1,1]}}"#,
        r#" [ 1 , -2 , 3.5e2 , "a\"b\\c\u00e9\n" , true , false , null , [] , {} ] "#,
        r#"{"a":{"a":[{"a":[]}]},"a":2,"":"ω₀ ≈ 2.807","\u0041":18446744073709551615}"#,
        "\"naïve ✓\"",
        "-9223372036854775808",
        "99999999999999999999999",
        "0",
    ];

    #[test]
    fn reader_validation_matches_parse_value() {
        let hostile = [
            "",
            " ",
            "{",
            "}",
            "[",
            "]",
            "[1,]",
            "[,1]",
            "{,}",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "nul",
            "tru",
            "fals",
            "1 2",
            "\"abc",
            "\"\\",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\uzzzz\"",
            "-",
            "--1",
            "1e",
            "1.",
            ".5",
            "+1",
            "[1 2]",
            "[1,2",
            "{\"a\":1",
            "[]]",
            "{}}",
            "\u{feff}1",
            "[\"é\"",
            "@",
            "[1e400]",
            "[-0]",
            "[0x10]",
            "{\"k\":[1,{\"m\":[2,,3]}]}",
        ];
        for s in hostile {
            assert_reader_agrees(s);
        }
        for doc in VALID_DOCS {
            // Every truncation, and trailing garbage of every shape.
            for cut in (0..=doc.len()).filter(|&i| doc.is_char_boundary(i)) {
                assert_reader_agrees(&doc[..cut]);
            }
            for tail in [" ", "x", ",", "]", "}", "{}", " 1", "\"", "\n\t"] {
                assert_reader_agrees(&format!("{doc}{tail}"));
            }
        }
        // Random strings over the grammar's alphabet: mostly invalid, with
        // enough structure that some parse.
        let alphabet: Vec<char> = "[]{},:\"\\0159-.eE+tfnrulsa xé\n".chars().collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            let len = (xorshift(&mut state) % 24) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[(xorshift(&mut state) % alphabet.len() as u64) as usize])
                .collect();
            assert_reader_agrees(&s);
        }
        // Single-byte edits of valid documents.
        for doc in VALID_DOCS {
            let chars: Vec<char> = doc.chars().collect();
            for i in 0..chars.len() {
                for c in ['"', ',', ']', '}', '1', ' ', ':'] {
                    let mut edited = chars.clone();
                    edited[i] = c;
                    assert_reader_agrees(&edited.iter().collect::<String>());
                }
            }
        }
    }

    #[test]
    fn reader_decodes_like_the_value_tree() {
        for doc in VALID_DOCS {
            let raw = Raw::parse(doc).unwrap();
            let tree = parse_value(doc).unwrap();
            assert_eq!(raw.kind(), tree.kind(), "{doc}");
            if let Value::Object(members) = &tree {
                let mut fields = raw.fields().unwrap();
                for (key, _) in members {
                    // `get` resolves duplicates to the first, as the tree does.
                    let member = fields.field(key).unwrap();
                    assert_eq!(Some(&member.value().unwrap()), tree.get(key));
                    assert_eq!(member.kind(), tree.get(key).unwrap().kind());
                }
                assert_eq!(
                    fields.field("absent").unwrap_err().to_string(),
                    "missing field `absent`"
                );
            }
            let as_obj = raw.fields().map(|_| ()).map_err(|e| e.to_string());
            if !matches!(tree, Value::Object(_)) {
                assert_eq!(as_obj, Err(format!("expected object, got {}", tree.kind())));
            }
        }
    }

    #[test]
    fn fields_decode_like_the_value_tree() {
        let docs = VALID_DOCS.iter().copied().chain([
            "[1,2,3]",
            "[1,-2,3]",
            "[1,4294967296]",
            "[1,\"2\",[3]]",
            "[1.5]",
            "[]",
            "[[1,2],[],[3]]",
            "[[1],[-1]]",
            "[[1],2]",
            "[[],[18446744073709551616]]",
        ]);
        for doc in docs {
            let tree = parse_value(doc).unwrap();
            let text = format!("{{\"a\":{doc}, \"b\" : {doc}}}");
            let oracle = (
                Vec::<u32>::from_value(&tree).map_err(|e| e.to_string()),
                Vec::<Vec<u64>>::from_value(&tree).map_err(|e| e.to_string()),
                u64::from_value(&tree).map_err(|e| e.to_string()),
            );
            // `a` is read in place while the scan is parked at it, and from
            // its indexed text once a lookup of `b` has scanned past it.
            for in_place in [true, false] {
                let fields = || {
                    let mut f = Raw::parse(&text).unwrap().fields().unwrap();
                    if !in_place {
                        f.get("b").unwrap();
                    }
                    f
                };
                let got = (
                    fields().decode_vec::<u32>("a").map_err(|e| e.to_string()),
                    fields()
                        .decode_nested::<u64>("a")
                        .map_err(|e| e.to_string()),
                    fields().decode::<u64>("a").map_err(|e| e.to_string()),
                );
                assert_eq!(got, oracle, "{doc}, in place: {in_place}");
                // A failed read leaves the scan where it was.
                let mut f = fields();
                let _ = f.decode_vec::<u32>("a");
                assert_eq!(f.decode::<Value>("b").unwrap(), tree, "{doc}");
                assert_eq!(
                    f.decode::<u32>("c").unwrap_err().to_string(),
                    "missing field `c`"
                );
            }
        }
    }

    #[test]
    fn direct_writer_matches_to_string() {
        let mut out = String::new();
        write_object(
            &mut out,
            &[
                ("n", &7u32),
                ("big", &u64::MAX),
                ("ok", &true),
                ("name", &"a\"b\n\u{1}\\é"),
                ("xs", &vec![1u64, 2, 3]),
                ("empty", &Vec::<u32>::new()),
                ("nested", &vec![vec![0u32], vec![]]),
            ],
        );
        let tree = Value::Object(vec![
            ("n".into(), 7u32.to_value()),
            ("big".into(), u64::MAX.to_value()),
            ("ok".into(), true.to_value()),
            ("name".into(), "a\"b\n\u{1}\\é".to_value()),
            ("xs".into(), vec![1u64, 2, 3].to_value()),
            ("empty".into(), Vec::<u32>::new().to_value()),
            ("nested".into(), vec![vec![0u32], vec![]].to_value()),
        ]);
        assert_eq!(out, to_string(&tree).unwrap());
        let mut out = String::new();
        write_object(&mut out, &[]);
        assert_eq!(out, "{}");
    }
}
