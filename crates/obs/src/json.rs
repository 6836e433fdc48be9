//! A minimal JSON tree with printer and parser.
//!
//! The build environment has no crates.io access, so `serde_json` is not
//! available; this module covers what run reports need: the six JSON
//! value kinds, deterministic (sorted-key) object printing, pretty and
//! compact rendering, and a strict recursive-descent parser sufficient to
//! round-trip everything the printer emits.
//!
//! The parser is linear in the input length: each string literal is read
//! in one pass that copies unescaped runs whole. It relies on its `&str`
//! input already being valid UTF-8 and never re-validates it.
//!
//! Typed decoders that do not want a tree for every value walk a document
//! with a [`JsonCursor`], and typed encoders render scalars with
//! [`write_number`] and [`write_string`]. Both are the parser's and the
//! printer's own pieces, so there is one grammar and one rendering.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

/// Parse or access error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description with byte offset where applicable.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
    })
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts `key` into an object value; panics on non-objects (an
    /// internal misuse, not a data error).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Obj(map) => {
                map.insert(key.into(), value.into());
            }
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.render(out, None, 0);
    }

    /// Pretty rendering with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
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
                    item.render(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    /// Strict parse of a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut cursor = JsonCursor::new(text);
        let value = cursor.value()?;
        cursor.finish()?;
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

/// Appends the rendering of the number `n`: integral values up to 2^53
/// without a fraction, other finite values in Rust's shortest round-trip
/// form, and NaN/infinities as `null`.
#[inline]
pub fn write_number(n: f64, out: &mut String) {
    // Writing to a `String` cannot fail.
    if !n.is_finite() {
        // JSON has no NaN/Inf; fold to null per common practice.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        write_int(n as i64, out);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends the integer `n` in decimal: what [`write_number`] appends for
/// `n as f64` whenever `|n| <= 2^53`.
#[inline]
pub fn write_int(n: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut v = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends `s` as a quoted, escaped string literal.
pub fn write_string(s: &str, out: &mut String) {
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

#[inline]
fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?.into_owned())),
        Some(b'[') => {
            let mut items = Vec::new();
            walk_array(text, pos, |pos| {
                items.push(parse_value(text, pos)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut map = BTreeMap::new();
            walk_object(text, pos, |key, pos| {
                map.insert(key.into_owned(), parse_value(text, pos)?);
                Ok(())
            })?;
            Ok(Json::Obj(map))
        }
        Some(_) => parse_number(text, pos),
    }
}

/// Walks one array starting at `pos`, calling `item` once per element
/// with `pos` on the element's first byte; `item` must consume exactly
/// that element.
fn walk_array(
    text: &str,
    pos: &mut usize,
    mut item: impl FnMut(&mut usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'[') {
        return err(format!("expected '[' at byte {pos}"));
    }
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        item(pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

/// Walks one object starting at `pos`, calling `field` once per member
/// with its key and `pos` on the value's first byte; `field` must consume
/// exactly that value.
fn walk_object<'a>(
    text: &'a str,
    pos: &mut usize,
    mut field: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'{') {
        return err(format!("expected '{{' at byte {pos}"));
    }
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        field(key, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// A read position in a JSON text, for decoders that walk a document once
/// and build a [`Json`] tree only for the values they want as trees. It
/// accepts exactly what [`Json::parse`] accepts: the walkers are the
/// parser's own, and a duplicate key is reported as often as it occurs,
/// so a decoder that keeps the last value agrees with the parser's map.
#[derive(Debug)]
pub struct JsonCursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    /// A cursor at the first non-whitespace byte of `text`.
    #[inline]
    pub fn new(text: &'a str) -> JsonCursor<'a> {
        let mut pos = 0;
        skip_ws(text.as_bytes(), &mut pos);
        JsonCursor { text, pos }
    }

    /// `true` when the next value starts with `byte` (e.g. `b'['`).
    #[inline]
    pub fn at(&self, byte: u8) -> bool {
        self.text.as_bytes().get(self.pos) == Some(&byte)
    }

    /// Reads the next value as a tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        parse_value(self.text, &mut self.pos)
    }

    /// Reads the next value as a number without building a tree for it;
    /// `None` when it is a value of another kind, which is read and
    /// dropped.
    #[inline]
    pub fn number(&mut self) -> Result<Option<f64>, JsonError> {
        match self.text.as_bytes().get(self.pos) {
            // The common starts of what `parse_value` reads as a number.
            Some(b'-' | b'0'..=b'9') => Ok(parse_number(self.text, &mut self.pos)?.as_f64()),
            _ => Ok(self.value()?.as_f64()),
        }
    }

    /// Walks an array, calling `item` once per element; `item` must
    /// consume the element (with [`value`](Self::value), or a nested
    /// walk).
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut JsonCursor<'a>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let text = self.text;
        walk_array(text, &mut self.pos, |pos| {
            let mut inner = JsonCursor { text, pos: *pos };
            let done = item(&mut inner);
            *pos = inner.pos;
            done
        })
    }

    /// Walks an object, calling `field` once per member with its key;
    /// `field` must consume the member's value.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&str, &mut JsonCursor<'a>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let text = self.text;
        walk_object(text, &mut self.pos, |key, pos| {
            let mut inner = JsonCursor { text, pos: *pos };
            let done = field(&key, &mut inner);
            *pos = inner.pos;
            done
        })
    }

    /// Checks that only whitespace follows the walked document.
    pub fn finish(mut self) -> Result<(), JsonError> {
        skip_ws(self.text.as_bytes(), &mut self.pos);
        if self.pos != self.text.len() {
            return err(format!("trailing input at byte {}", self.pos));
        }
        Ok(())
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        err(format!("invalid literal at byte {pos}"))
    }
}

/// Reads one string literal in a single pass. Unescaped runs are copied
/// whole: `"` and `\` are ASCII, so every run boundary is a char boundary
/// of the already-valid `text` and nothing is re-validated. A literal
/// without escapes is borrowed from `text`.
fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        *pos += bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - start);
        let run = &text[start..*pos];
        match bytes.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                // Every escape pushes a char, so an empty `out` means none
                // was seen.
                if out.is_empty() {
                    return Ok(Cow::Borrowed(run));
                }
                out.push_str(run);
                return Ok(Cow::Owned(out));
            }
            Some(_) => {
                out.push_str(run);
                // The scan stops only at `"` or `\`, so this is an escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or_else(|| JsonError {
                            message: "truncated \\u escape".into(),
                        })?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| JsonError {
                                message: "non-ASCII \\u escape".into(),
                            })?,
                            16,
                        )
                        .map_err(|_| JsonError {
                            message: "invalid \\u escape".into(),
                        })?;
                        // Surrogate pairs are not produced by our printer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
        }
    }
}

#[inline]
fn parse_number(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    // Nearly every number in a journal is a short integer. A run of at
    // most 15 digits is below 2^53, so its value is exact as an f64 and
    // equals what `str::parse::<f64>` returns (`-0` included).
    let digits = *pos;
    let mut v = 0u64;
    while let Some(&d @ b'0'..=b'9') = bytes.get(*pos) {
        v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        *pos += 1;
    }
    let more = matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
    if !more && (1..=15).contains(&(*pos - digits)) {
        let v = v as f64;
        return Ok(Json::Num(if negative { -v } else { v }));
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    // The scanned range is ASCII digits/signs/dots, so both ends are char
    // boundaries; an empty range just reports "invalid number" below.
    let text = &text[start..*pos];
    match text.parse::<f64>() {
        Ok(n) => Ok(Json::Num(n)),
        Err(_) => err(format!("invalid number {text:?} at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(3.5),
            Json::Num(1e300),
            Json::Str("hello \"world\"\n\t\\".into()),
            Json::Str("ünïcödé ✓".into()),
        ] {
            assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
            assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
        }
    }

    #[test]
    fn containers_round_trip() {
        let mut obj = Json::object();
        obj.set("alpha", 1u64)
            .set("beta", vec!["x", "y"])
            .set("nested", {
                let mut n = Json::object();
                n.set("deep", Json::Arr(vec![Json::Null, Json::Bool(true)]));
                n
            });
        assert_eq!(Json::parse(&obj.to_compact()).unwrap(), obj);
        assert_eq!(Json::parse(&obj.to_pretty()).unwrap(), obj);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"unterminated",
            "\"trailing backslash\\",
            "\"\\u12",
            "\"ends in ✓",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"n\": 3, \"s\": \"x\", \"a\": [1]}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn control_chars_escaped() {
        let s = Json::Str("\u{1}".into()).to_compact();
        assert_eq!(s, "\"\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap(), Json::Str("\u{1}".into()));
    }
}
