//! The workspace's one JSON module: a value type, its writer and a
//! depth-guarded reader.
//!
//! Every JSON document the workspace writes — `EXPLAIN (FORMAT JSON)`,
//! execution traces, `strcalc-analyze --json` and the bench reports —
//! is built as a [`Json`] value and printed through its `Display`: one
//! line, no spaces, object keys in insertion order. The one reader,
//! [`parse`], reads traces back for replay. There is no serialization
//! dependency in the tree.
//!
//! A number keeps its text ([`Json::Num`]), so a `u64::MAX` fingerprint
//! or a float printed to a fixed precision ([`Json::fixed`]) keeps its
//! exact bytes through a write and a read. The reader takes untrusted
//! input: it refuses nesting deeper than [`MAX_DEPTH`] with a typed
//! error instead of overflowing the stack, and it never panics.

#![deny(clippy::unwrap_used)]

use std::fmt;

use strcalc_logic::MAX_NESTING_DEPTH;

/// The deepest nesting [`parse`] accepts; each array or object opens
/// one level. The deepest documents the workspace writes are `EXPLAIN`
/// plans, at two levels per plan node (the node object and its
/// `children` array). A formula lowers to plans at most eight levels
/// deep per level of formula nesting (a nested `forall` is the worst
/// case found), so nine levels per nesting level leave room for the
/// document around a plan at the parsers' cap. A chain of `|` or `<->`
/// opens no nesting level yet adds a plan node per link, so a very long
/// one can still write a deeper plan. A value this deep still drops
/// within a 2 MiB thread stack in an unoptimized build.
pub const MAX_DEPTH: usize = 9 * MAX_NESTING_DEPTH;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, kept as its JSON text.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// An object; fields keep their insertion (or document) order.
    Obj(Vec<(String, Json)>),
}

/// Why a document could not be read, or a field not found as expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON at byte `offset`.
    Syntax { offset: usize, msg: &'static str },
    /// Arrays and objects nest deeper than [`MAX_DEPTH`] at byte `offset`.
    TooDeep { offset: usize },
    /// A required object field is absent.
    MissingField(String),
    /// A field holds another kind of value than the reader expects.
    WrongType {
        field: String,
        expected: &'static str,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, msg } => write!(f, "{msg} at byte {offset}"),
            JsonError::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {offset}")
            }
            JsonError::MissingField(field) => write!(f, "missing field `{field}`"),
            JsonError::WrongType { field, expected } => {
                write!(f, "field `{field}` is not {expected}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An object with `fields` in the order given.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `v` with `decimals` digits after the point, or `null` when `v` is
    /// not finite (JSON has no NaN or infinity).
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// The items of an array; `what` names the value in the error.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(JsonError::wrong_type(what, "an array")),
        }
    }

    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(JsonError::wrong_type(what, "a string")),
        }
    }

    pub fn as_bool(&self, what: &str) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::wrong_type(what, "a boolean")),
        }
    }

    /// An unsigned 64-bit integer, read at full precision. `null` reads
    /// as `u64::MAX`, the unbounded value `EXPLAIN` writes as `null`.
    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| JsonError::wrong_type(what, "an unsigned 64-bit integer")),
            Json::Null => Ok(u64::MAX),
            _ => Err(JsonError::wrong_type(what, "a number")),
        }
    }

    /// Field `key` of an object (the first, should the key repeat). A
    /// value that is not an object has no fields.
    pub fn req(&self, key: &str) -> Result<&Json, JsonError> {
        let fields: &[(String, Json)] = match self {
            Json::Obj(fields) => fields,
            _ => &[],
        };
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| JsonError::MissingField(key.to_string()))
    }

    /// Field `key` of an object, read as a `T`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json(self.req(key)?, key)
    }
}

impl JsonError {
    /// A [`JsonError::WrongType`] for `field`.
    pub fn wrong_type(field: &str, expected: &'static str) -> JsonError {
        JsonError::WrongType {
            field: field.to_string(),
            expected,
        }
    }
}

/// A type [`Json::field`] can read; `what` names the value in errors.
pub trait FromJson: Sized {
    fn from_json(value: &Json, what: &str) -> Result<Self, JsonError>;
}

macro_rules! from_json {
    ($($t:ty => $as:ident),*) => {$(
        impl FromJson for $t {
            fn from_json(value: &Json, what: &str) -> Result<Self, JsonError> {
                value.$as(what).map(Into::into)
            }
        }
    )*};
}

from_json!(u64 => as_u64, bool => as_bool, String => as_str);

/// `null` reads as `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json, what: &str) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            v => T::from_json(v, what).map(Some),
        }
    }
}

/// Each item is read as a `T` named after the array.
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json, what: &str) -> Result<Self, JsonError> {
        let items = value.as_arr(what)?;
        items.iter().map(|v| T::from_json(v, what)).collect()
    }
}

macro_rules! json_from {
    ($($t:ty => |$x:ident| $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $json
            }
        }
    )*};
}

json_from!(
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    &String => |s| Json::Str(s.clone()),
    String => |s| Json::Str(s),
    u32 => |n| Json::Num(n.to_string()),
    u64 => |n| Json::Num(n.to_string()),
    usize => |n| Json::Num(n.to_string()),
);

/// `None` writes as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::arr(items)
    }
}

/// The compact single-line rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    v.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":", escape(k))?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes `s` for use inside a JSON string literal: quote, backslash
/// and the common whitespace escapes by name, every other control
/// character as `\u00XX`.
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

/// Reads one JSON document (surrounding whitespace allowed). Numbers
/// must follow the JSON grammar; a `\u` escape must name a Unicode
/// scalar value on its own (surrogate pairs are refused, since no
/// writer in the workspace produces them).
///
/// The reader keeps its open arrays and objects on a heap stack, not
/// the call stack, and refuses to open more than [`MAX_DEPTH`] of them.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0 };
    // Open containers, innermost last; an object carries the key its
    // next value goes under. Its length is the nesting depth.
    let mut open: Vec<Open> = Vec::new();
    loop {
        p.skip_ws();
        let mut value = match p.peek() {
            Some(b'[' | b'{') if open.len() >= MAX_DEPTH => {
                return Err(JsonError::TooDeep { offset: p.pos })
            }
            Some(b'[') => {
                p.pos += 1;
                p.skip_ws();
                if !p.eat(b']') {
                    open.push(Open::Arr(Vec::new()));
                    continue;
                }
                Json::Arr(Vec::new())
            }
            Some(b'{') => {
                p.pos += 1;
                p.skip_ws();
                if !p.eat(b'}') {
                    open.push(Open::Obj(Vec::new(), p.key()?));
                    continue;
                }
                Json::Obj(Vec::new())
            }
            _ => p.scalar()?,
        };
        // Hand the finished value to its container, and close every
        // container it completes.
        loop {
            let Some(top) = open.pop() else {
                p.skip_ws();
                if p.pos != text.len() {
                    return Err(p.err("trailing content after the document"));
                }
                return Ok(value);
            };
            p.skip_ws();
            value = match top {
                Open::Arr(mut items) => {
                    items.push(value);
                    if p.eat(b',') {
                        open.push(Open::Arr(items));
                        break;
                    }
                    if !p.eat(b']') {
                        return Err(p.err("expected `,` or `]`"));
                    }
                    Json::Arr(items)
                }
                Open::Obj(mut fields, key) => {
                    fields.push((key, value));
                    if p.eat(b',') {
                        open.push(Open::Obj(fields, p.key()?));
                        break;
                    }
                    if !p.eat(b'}') {
                        return Err(p.err("expected `,` or `}`"));
                    }
                    Json::Obj(fields)
                }
            };
        }
    }
}

/// An array or object [`parse`] has opened and not yet closed.
enum Open {
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>, String),
}

/// A cursor over the bytes of a `&str`. It stops only at ASCII bytes,
/// so every `pos` it slices at is a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn err(&self, msg: &'static str) -> JsonError {
        JsonError::Syntax {
            offset: self.pos,
            msg,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// A string, number or literal.
    fn scalar(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// An object's field name and the colon after it.
    fn key(&mut self) -> Result<String, JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a field name"));
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.err("expected `:`"));
        }
        Ok(key)
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, JsonError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err("expected `true`, `false` or `null`"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("expected a digit after `.`"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.err("expected an exponent"));
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in a string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape (after its backslash) stands for.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.err("expected four hex digits after `\\u`"))?;
                self.pos += 4;
                char::from_u32(code)
                    .ok_or_else(|| self.err("`\\u` escape is not a scalar value"))?
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain ≤ text"), "plain ≤ text");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
    }
}
