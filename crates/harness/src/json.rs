//! Dependency-free JSON emission and parsing helpers.
//!
//! The sweep engine records one JSON object per cell (JSON Lines); this
//! module provides the escaping and number formatting those records need
//! without pulling a serialization framework into the build. Output is
//! byte-deterministic: field order is fixed by the callers and numbers use
//! Rust's default (shortest round-trip) formatting. [`Object`] writes each
//! field straight into one buffer.
//!
//! [`Value::parse`] is the matching reader, used by `repsbench merge` and
//! the sweep cache to re-load records. A [`Value`] borrows from its source.
//! Number literals are kept verbatim ([`Value::Num`]), so a parse →
//! re-render round trip of our own output is byte-exact even for
//! full-range `u64`s (e.g. derived seeds) that `f64` cannot represent.
//! Strings and object keys are slices of the source; only one holding an
//! escape is decoded into an owned copy ([`Cow::Owned`]).
//!
//! Nesting is capped at [`MAX_DEPTH`]: the parser recurses once per level,
//! and its inputs (shard files, cache entries, trace documents) can hold
//! anything. Uncapped, one line of a million `[` overflowed the stack and
//! aborted the process, where a damaged cache entry must degrade to a miss
//! and a bad merge input to an error. Records nest 3 deep, series and
//! trace documents 4.

use std::borrow::Cow;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Escapes `s` as the contents of a JSON string literal, with quotes.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends `s` escaped and quoted. Only ASCII bytes are ever escaped, and
/// those never occur inside a multi-byte UTF-8 sequence, so the unescaped
/// runs between them are copied whole.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends a float as a JSON number (`NaN`/`Inf` have no JSON encoding
/// and become `null`).
fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Renders an array from already-rendered JSON items (canonical form: no
/// whitespace), matching what [`Value::render`] produces so parse →
/// re-render round trips stay byte-exact.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// An incremental `{...}` builder with fixed field order, writing each
/// field into one buffer as it is appended.
#[derive(Debug, Default)]
pub struct Object {
    buf: String,
    /// Length of `buf` before this object: the `{` goes there with the
    /// first field, or on [`Object::render`] if there is none.
    open: usize,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// An empty object rendered at the end of `buf`, which [`Object::render`]
    /// hands back with the object appended (so a caller writing many
    /// records can reuse one buffer).
    pub fn append_to(buf: String) -> Object {
        Object {
            open: buf.len(),
            buf,
        }
    }

    /// Appends `"key":` and then the value `write` renders.
    fn field(mut self, key: &str, write: impl FnOnce(&mut String)) -> Object {
        let first = self.buf.len() == self.open;
        self.buf.push(if first { '{' } else { ',' });
        push_string(&mut self.buf, key);
        self.buf.push(':');
        write(&mut self.buf);
        self
    }

    /// Appends a field whose value is already-rendered JSON.
    pub fn raw(self, key: &str, json: impl AsRef<str>) -> Object {
        self.field(key, |b| b.push_str(json.as_ref()))
    }

    /// Appends a field whose value is an object, written by `fill` into
    /// the same buffer.
    pub fn obj(self, key: &str, fill: impl FnOnce(Object) -> Object) -> Object {
        self.field(key, |b| {
            *b = fill(Object::append_to(std::mem::take(b))).render()
        })
    }

    /// Appends a string field.
    pub fn str(self, key: &str, value: &str) -> Object {
        self.field(key, |b| push_string(b, value))
    }

    /// Appends an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Object {
        self.field(key, |b| {
            write!(b, "{value}").expect("writing to a String cannot fail")
        })
    }

    /// Appends a float field.
    pub fn f64(self, key: &str, value: f64) -> Object {
        self.field(key, |b| push_number(b, value))
    }

    /// Appends a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Object {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Closes the object and returns the buffer holding it.
    pub fn render(mut self) -> String {
        if self.buf.len() == self.open {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value, borrowing from the text it was parsed from.
///
/// Numbers keep their source text ([`Value::Num`]) instead of eagerly
/// converting to `f64`: the sweep records carry full-range `u64`s (derived
/// seeds, picosecond times) that `f64` would silently round, and keeping
/// the literal makes [`Value::render`] an exact inverse of [`Value::parse`]
/// for anything this crate emitted.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its unmodified source literal.
    Num(&'a str),
    /// A string (unescaped; owned only when the source had an escape).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, in source field order (duplicate keys are kept).
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(s: &'a str) -> Result<Value<'a>, String> {
        let mut p = Parser {
            s,
            b: s.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` for non-objects too.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a non-negative integer
    /// literal in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(lit) => lit.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64` (lossy for huge integers), if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(lit) => lit.parse().ok(),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value back to JSON (numbers verbatim, field order and
    /// string escaping canonical — an exact inverse of [`Value::parse`] on
    /// this crate's own output).
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(lit) => lit.to_string(),
            Value::Str(s) => string(s),
            Value::Arr(items) => array(items.iter().map(Value::render)),
            Value::Obj(fields) => (fields.iter())
                .fold(Object::new(), |o, (k, v)| o.raw(k, v.render()))
                .render(),
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Value<'a>) -> Result<Value<'a>, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        match self.b.get(self.i) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.i
            )),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected {:?} at offset {}", *c as char, self.i)),
        }
    }

    fn array(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) != Some(&b']') {
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => break,
                    _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                }
            }
        }
        self.i += 1;
        self.depth -= 1;
        Ok(Value::Arr(items))
    }

    fn object(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::with_capacity(16);
        self.skip_ws();
        if self.b.get(self.i) != Some(&b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                fields.push((key, self.value()?));
                self.skip_ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => break,
                    _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
                }
            }
        }
        self.i += 1;
        self.depth -= 1;
        Ok(Value::Obj(fields))
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.i;
        let digits = |p: &mut Self| {
            let from = p.i;
            while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            p.i > from
        };
        self.i += usize::from(self.b.get(self.i) == Some(&b'-'));
        let mut ok = digits(self);
        if ok && self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            ok = digits(self);
        }
        if ok && matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            self.i += usize::from(matches!(self.b.get(self.i), Some(b'+' | b'-')));
            ok = digits(self);
        }
        if !ok {
            return Err(format!("malformed number at offset {start}"));
        }
        Ok(Value::Num(&self.s[start..self.i]))
    }

    /// Parses a string literal: a slice of the source when it holds no
    /// escape, otherwise an owned copy built run by run. The cursor only
    /// stops on ASCII bytes (`"`, `\`, an escape), which are always char
    /// boundaries, so every slice taken here is valid UTF-8.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let run = self.i;
            self.i += (self.b[run..].iter())
                .position(|c| matches!(c, b'"' | b'\\'))
                .unwrap_or(self.b.len() - run);
            let text = &self.s[run..self.i];
            match self.b.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(text),
                        Some(out) => Cow::Owned(out + text),
                    });
                }
                Some(_) => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(text);
                    self.i += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// Decodes the escape after a `\` (the cursor is past the backslash).
    fn escape(&mut self) -> Result<char, String> {
        let esc = *self.b.get(self.i).ok_or("unterminated escape")?;
        self.i += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !self.b[self.i..].starts_with(b"\\u") {
                        return Err("lone high surrogate".to_string());
                    }
                    self.i += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("invalid low surrogate".to_string());
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or("invalid surrogate pair")?
                } else {
                    char::from_u32(hi).ok_or("lone low surrogate")?
                }
            }
            _ => return Err(format!("bad escape \\{}", esc as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = (self.s.get(self.i..self.i + 4))
            .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at offset {}", self.i))?;
        self.i += 4;
        Ok(u32::from_str_radix(hex, 16).expect("validated hex"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_render_deterministically() {
        let o = Object::new().f64("a", 1.5).f64("b", 0.0).f64("c", f64::NAN);
        assert_eq!(o.render(), r#"{"a":1.5,"b":0,"c":null}"#);
    }

    #[test]
    fn object_preserves_field_order() {
        let o = Object::new().str("b", "x").u64("a", 3).bool("c", true);
        assert_eq!(o.render(), r#"{"b":"x","a":3,"c":true}"#);
    }

    #[test]
    fn array_renders_canonically() {
        assert_eq!(array([]), "[]");
        assert_eq!(
            array(["1".to_string(), "[2,3]".to_string(), "\"x\"".to_string()]),
            "[1,[2,3],\"x\"]"
        );
        // Round trip through the parser is byte-exact.
        let src = array((0..3).map(|i| i.to_string()));
        assert_eq!(Value::parse(&src).unwrap().render(), src);
    }

    #[test]
    fn parse_render_round_trips_own_output() {
        // Exactly the shapes the sweep records use, including a u64 that
        // f64 cannot represent and shortest-round-trip floats.
        let src = Object::new()
            .str("key", "a/b\"c\\d\n\u{1}")
            .u64("derived_seed", u64::MAX - 1)
            .f64("rate", 0.1 + 0.2)
            .f64("zero", 0.0)
            .raw("none", "null")
            .bool("ok", true)
            .raw("counters", Object::new().u64("drops", 7).render())
            .raw("arr", "[1,2.5,\"x\"]")
            .render();
        let v = Value::parse(&src).expect("parse");
        assert_eq!(v.render(), src);
        assert_eq!(v.get("derived_seed").unwrap().as_u64(), Some(u64::MAX - 1));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(v.get("key").unwrap().as_str(), Some("a/b\"c\\d\n\u{1}"));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("drops").unwrap().as_u64(), Some(7));
        assert_eq!(
            v.get("arr"),
            Some(&Value::Arr(vec![
                Value::Num("1"),
                Value::Num("2.5"),
                Value::Str("x".into()),
            ]))
        );
    }

    #[test]
    fn parse_handles_whitespace_escapes_and_unicode() {
        let v = Value::parse(" { \"a\" : [ 1 , -2.5e-3 , \"\\u0041\\u00e9\\ud83d\\ude00\" ] } ")
            .expect("parse");
        let arr = v.get("a").unwrap();
        assert_eq!(
            arr,
            &Value::Arr(vec![
                Value::Num("1"),
                Value::Num("-2.5e-3"),
                Value::Str("Aé😀".into()),
            ])
        );
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(Value::parse("[]").unwrap(), Value::Arr(vec![]));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "01x",
            "\"\\q\"",
            "\"",
            "1 2",
            "{\"a\":1,}",
            "nul",
            "-",
            "1e",
            "\"\\ud800x\"",
            &"[".repeat(1_000_000),
            &format!(
                "{}1{}",
                "[".repeat(MAX_DEPTH + 1),
                "]".repeat(MAX_DEPTH + 1)
            ),
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        // The cap names where it tripped: the opening of the first level
        // past it.
        let deep = "{\"a\":".repeat(MAX_DEPTH + 1);
        let err = Value::parse(&deep).unwrap_err();
        let at = MAX_DEPTH * "{\"a\":".len();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at offset {at}")
        );
        // Exactly at the cap still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Value::parse(&ok).unwrap().render(), ok);
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let v = Value::parse(r#"{"plain":"a/b","esc":"x\ty\u00e9z","k\"":1}"#).unwrap();
        assert!(matches!(
            v.get("plain"),
            Some(Value::Str(Cow::Borrowed("a/b")))
        ));
        assert_eq!(v.get("esc").unwrap().as_str(), Some("x\ty\u{e9}z"));
        assert!(matches!(v.get("esc"), Some(Value::Str(Cow::Owned(_)))));
        let fields = v.as_obj().unwrap();
        assert!(matches!(fields[0].0, Cow::Borrowed("plain")));
        assert_eq!(fields[2].0, "k\"");
    }

    #[test]
    fn nested_objects_share_one_buffer() {
        let head = String::from("prefix ");
        let rendered = Object::append_to(head)
            .u64("a", 1)
            .obj("b", |o| o.str("c", "d").obj("e", |o| o))
            .f64("f", f64::INFINITY)
            .render();
        assert_eq!(rendered, r#"prefix {"a":1,"b":{"c":"d","e":{}},"f":null}"#);
    }
}
