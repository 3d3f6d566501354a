//! The one JSON codec of the engine: the run journal, the service's wire
//! frames and the CLI's `--json` reports are all written and read through
//! [`Value`].
//!
//! Numbers keep their literal text, so a `u64` or a float formatted with
//! `{:.6}` prints byte for byte as it was formatted, and a reader parses
//! the text into the type it expects ([`Value::as_num`]).  Objects keep
//! their members in order.  The writer ([`Value`]'s `Display`) is compact
//! and escapes `"`, `\` and control characters; [`parse`] is strict
//! RFC 8259 — no trailing commas, leading zeros, unpaired surrogates, raw
//! control characters or bytes after the document — and rejects more
//! than 64 nested arrays and objects, so malformed journal lines and wire
//! payloads are rejected with an error, never scanned for whatever fields
//! survive.

use std::fmt::{self, Write as _};
use std::str::FromStr;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, held as its JSON literal text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in order.
    Obj(Vec<(String, Value)>),
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n.to_string())
            }
        }
    )*};
}
from_int!(u8, u32, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number parsed as `T`: `None` for anything else and for a literal
    /// `T` cannot hold (`1.5` or `-1` as a `u64`).
    pub fn as_num<T: FromStr>(&self) -> Option<T> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The first difference between `a` and `b`, depth first (object members
/// in `a`'s order, then those only `b` has; array elements by index), as
/// its member path and both values — "`seed` is 17 `a_at`, 18 `b_at`",
/// "`chip.l2.sets` is …", "`w[1]` is absent …".  `None` when
/// the values are equal.
pub(crate) fn first_difference(a: &Value, b: &Value, a_at: &str, b_at: &str) -> Option<String> {
    let (path, a, b) = diff_at(String::new(), Some(a), Some(b))?;
    let [a, b] = [a, b].map(|v| v.map_or("absent".to_string(), Value::to_string));
    Some(format!(
        "`{}` is {a} {a_at}, {b} {b_at}",
        path.trim_start_matches('.')
    ))
}

type Difference<'a> = (String, Option<&'a Value>, Option<&'a Value>);

fn diff_at<'a>(path: String, a: Option<&'a Value>, b: Option<&'a Value>) -> Option<Difference<'a>> {
    if a == b {
        return None;
    }
    let inner = match (a, b) {
        (Some(Value::Obj(x)), Some(Value::Obj(y))) => x
            .iter()
            .chain(y)
            .find_map(|(k, _)| diff_at(format!("{path}.{k}"), a?.get(k), b?.get(k))),
        (Some(Value::Arr(x)), Some(Value::Arr(y))) => (0..x.len().max(y.len()))
            .find_map(|i| diff_at(format!("{path}[{i}]"), x.get(i), y.get(i))),
        _ => None,
    };
    // Scalars, mismatched kinds, and equal members in another order
    // differ here as a whole.
    inner.or(Some((path, a, b)))
}

/// Compact JSON: no whitespace between tokens.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => f.write_str(n),
            Value::Str(s) => write_str(f, s),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Value::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// More nested arrays and objects than this are rejected instead of
/// recursed into.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document; surrounding whitespace is allowed, anything
/// else after the value is not.
///
/// # Errors
///
/// What was expected, and the byte offset where it was not found.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, at: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.at < text.len() {
        return Err(p.err("the end of the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte; always on a char boundary.
    at: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> String {
        format!("json: expected {expected} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn eat_word(&mut self, word: &str) -> bool {
        let hit = self.text.as_bytes()[self.at..].starts_with(word.as_bytes());
        if hit {
            self.at += word.len();
        }
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    /// One value inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.err("shallower nesting")),
            Some(b'{') => self
                .entries(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("`:`"));
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            Some(b'[') => self.entries(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat_word("true") => Ok(Value::Bool(true)),
            _ if self.eat_word("false") => Ok(Value::Bool(false)),
            _ if self.eat_word("null") => Ok(Value::Null),
            _ => Err(self.err("a value")),
        }
    }

    /// The comma-separated entries of an array or object, from its opening
    /// bracket through `close`; a trailing comma fails inside `entry`.
    fn entries<T>(
        &mut self,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(entry(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.err(&format!("`,` or `{}`", char::from(close))));
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as
    /// text.  A leading zero ends the integer part, so `01` fails at the
    /// `1` in whatever container holds it.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("a digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("a fraction digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.err("an exponent digit"));
            }
        }
        Ok(Value::Num(self.text[start..self.at].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("`\"`"));
        }
        let mut out = String::new();
        loop {
            // Stops only at ASCII bytes, so the slice ends on a char
            // boundary.
            let start = self.at;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.at += 1;
            }
            out.push_str(&self.text[start..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.text.as_bytes().get(self.at + 1).copied();
                    self.at += 2;
                    out.push(match escaped {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode()?,
                        _ => return Err(self.err("an escape")),
                    });
                }
                _ => return Err(self.err("a closing `\"`")),
            }
        }
    }

    /// The character of `XXXX` after `\u`, joining a surrogate pair.
    fn unicode(&mut self) -> Result<char, String> {
        let mut units = vec![self.hex4()?];
        if (0xd800..0xdc00).contains(&units[0]) && self.eat(b'\\') && self.eat(b'u') {
            units.push(self.hex4()?);
        }
        let mut chars = char::decode_utf16(units);
        match (chars.next(), chars.next()) {
            (Some(Ok(c)), None) => Ok(c),
            _ => Err(self.err("a paired surrogate")),
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let hex = self.text.get(self.at..self.at + 4);
        let v = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u16::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("four hex digits"))?;
        self.at += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_prints_numbers_and_escapes_byte_for_byte() {
        assert_eq!(Value::from("plain").to_string(), "\"plain\"");
        assert_eq!(Value::from("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Value::from("a\\b").to_string(), "\"a\\\\b\"");
        assert_eq!(Value::from("a\nb").to_string(), "\"a\\nb\"");
        assert_eq!(Value::from("t\tb\u{7}").to_string(), "\"t\\u0009b\\u0007\"");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::from(u64::MAX).to_string(), "18446744073709551615");
        let doc = Value::obj([
            ("a", Value::Arr(vec![1u8.into(), Value::Arr(vec![])])),
            ("b", Value::obj([])),
            ("c", true.into()),
        ]);
        assert_eq!(doc.to_string(), r#"{"a":[1,[]],"b":{},"c":true}"#);
    }

    #[test]
    fn parses_what_it_writes_and_foreign_formatting() {
        let nasty = "quote\" back\\slash \n\r\t bell\u{7} nul\u{0} caf\u{e9} \u{1F600}";
        let doc = Value::obj([
            ("s", nasty.into()),
            ("n", Value::Num("-12.5e-3".into())),
            ("big", u64::MAX.into()),
            ("z", Value::Null),
            (
                "a",
                Value::Arr(vec![false.into(), Value::obj([("k", 0u8.into())])]),
            ),
        ]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
        let v = parse(" { \"a\" : [ 1E+3 , -0.5 ] ,\n \"b\" : \"x\\/y\\u00e9\\ud83d\\ude00\" } \n")
            .unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[0].as_num(),
            Some(1000.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x/y\u{e9}\u{1F600}"));
        assert_eq!(parse("17").unwrap().as_num::<u64>(), Some(17));
        assert_eq!(parse("-1").unwrap().as_num::<u64>(), None);
        assert_eq!(parse("1.5").unwrap().as_num::<u64>(), None);
    }

    #[test]
    fn first_difference_names_the_member_path() {
        let doc = parse(r#"{"seed":17,"chip":{"l2":{"sets":8}},"w":[1,2],"k":null}"#).unwrap();
        let row = |other: &str| first_difference(&doc, &parse(other).unwrap(), "there", "here");
        for (other, want) in [
            (doc.to_string().as_str(), None),
            (
                r#"{"seed":17,"chip":{"l2":{"sets":4}},"w":[1,2],"k":null}"#,
                Some("`chip.l2.sets` is 8 there, 4 here"),
            ),
            (
                r#"{"seed":17,"chip":{"l2":{"sets":8}},"w":[1,3],"k":null}"#,
                Some("`w[1]` is 2 there, 3 here"),
            ),
            (
                r#"{"seed":17,"chip":{"l2":{"sets":8}},"w":[1],"k":null}"#,
                Some("`w[1]` is 2 there, absent here"),
            ),
            (
                r#"{"seed":17,"chip":{"l2":{"sets":8}},"w":[1,2],"k":null,"x":"y"}"#,
                Some("`x` is absent there, \"y\" here"),
            ),
            // The first difference in member order.
            (
                r#"{"seed":18,"chip":{},"w":[1,2],"k":null}"#,
                Some("`seed` is 17 there, 18 here"),
            ),
        ] {
            assert_eq!(row(other).as_deref(), want, "{other}");
        }
        // Equal members in another order differ as a whole.
        let reordered = row(r#"{"chip":{"l2":{"sets":8}},"seed":17,"w":[1,2],"k":null}"#);
        assert!(reordered.unwrap().starts_with("`` is {"));
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep = "[".repeat(100_000);
        let just_too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let just_deep_enough = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&just_deep_enough).is_ok());
        for bad in [
            "",
            " ",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1,]",
            "[,]",
            "{,}",
            "{\"a\":1}}",
            "{\"a\":1} x",
            "{\"a\":1}{}",
            "\"open",
            "tru",
            "nul",
            "True",
            "1 2",
            "01",
            "[00]",
            "-01",
            "-",
            "1.",
            ".5",
            "1e",
            "1e+",
            "+1",
            "0x10",
            "NaN",
            "[1 2]",
            "{1:2}",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\ud800x\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"\\udc00\\ud800\"",
            "\"tab\there\"",
            "\"nl\nhere\"",
            &deep,
            &just_too_deep,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
