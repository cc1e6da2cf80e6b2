//! The workspace's JSON codec: [`JsonValue::parse`] reads every document
//! the program reads, and [`JsonWriter`] writes every document it emits
//! (serve reply lines, Chrome traces, `/snapshot`, `/requests`, the health
//! probes, log lines and the bench gate's metrics file).
//!
//! The output policy lives here and nowhere else:
//! - compact `"key":value` text, with the separators placed by the writer;
//! - strings escaped so a literal never spans a line: quotes, backslashes
//!   and every control character;
//! - integers written as integers; a finite `f64` written as `{:?}`, the
//!   shortest text that parses back to the same bits; a non-finite `f64`
//!   written as `null`, since JSON has no token for it.
//!
//! The parser reads strict JSON numbers (no `NaN`, `inf`, `+1`, `.5` or
//! `5.`), scans each string once, and refuses nesting deeper than
//! [`MAX_DEPTH`], so no input line can exhaust the stack of the thread that
//! parses it. A `\u` escape of a lone UTF-16 surrogate is refused.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`JsonValue::parse`] accepts. The
/// deepest document the program writes nests 5 levels (`/snapshot`,
/// `/requests`); each level costs the recursive parser a few stack frames,
/// so the bound keeps a line of `[`s from overflowing a 2 MiB thread stack.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser::new(s);
        let v = p.value()?;
        p.skip_ws();
        if p.i != s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A streaming JSON writer. A document is one object or array, and so is
/// each nested value: a closure writes its members, so it always closes.
/// Keys and values are separated by the writer.
///
/// ```
/// use mf_telemetry::JsonWriter;
/// let doc = JsonWriter::object(|w| {
///     w.field("id", 7u64).field("mean", f64::NAN).field("ok", true);
///     w.key("xs").arr(|w| {
///         w.val(0.5).val(-0.0).val("a\"b");
///     });
/// });
/// assert_eq!(doc, r#"{"id":7,"mean":null,"ok":true,"xs":[0.5,-0.0,"a\"b"]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The next key or value follows a sibling, so a comma goes first.
    sep: bool,
}

impl JsonWriter {
    /// The object `body` writes the members of.
    pub fn object(body: impl FnOnce(&mut Self)) -> String {
        let mut w = Self::default();
        w.obj(body);
        w.out
    }

    /// The array `body` writes the elements of.
    pub fn array(body: impl FnOnce(&mut Self)) -> String {
        let mut w = Self::default();
        w.arr(body);
        w.out
    }

    /// Append one token (a scalar, or the text opening a member),
    /// preceded by a comma when a sibling came before it.
    fn token(&mut self, write: impl FnOnce(&mut String), value: bool) -> &mut Self {
        if self.sep {
            self.out.push(',');
        }
        write(&mut self.out);
        self.sep = value;
        self
    }

    fn nest(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) -> &mut Self {
        self.token(|out| out.push(open), false);
        body(self);
        self.out.push(close);
        self.sep = true;
        self
    }

    /// Write an object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', body, '}')
    }

    /// Write an array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', body, ']')
    }

    /// Write an object member's key; the next value written is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        let open = |out: &mut String| {
            k.write_json(out);
            out.push(':');
        };
        self.token(open, false)
    }

    /// Write one scalar value.
    pub fn val(&mut self, v: impl JsonScalar) -> &mut Self {
        self.token(|out| v.write_json(out), true)
    }

    /// Write an object member: `key` and then `v`.
    pub fn field(&mut self, key: &str, v: impl JsonScalar) -> &mut Self {
        self.key(key).val(v)
    }

    /// Write `text` bare when it is one finite number in the parser's own
    /// grammar, and as a string otherwise: how a log field's `Display`
    /// text keeps its type.
    pub(crate) fn num_or_str(&mut self, text: &str) -> &mut Self {
        let mut p = Parser::new(text);
        match p.number() {
            Ok(JsonValue::Num(v)) if v.is_finite() && p.i == text.len() => {
                self.token(|out| out.push_str(text), true)
            }
            _ => self.val(text),
        }
    }
}

/// A value [`JsonWriter::val`] writes as one JSON token.
pub trait JsonScalar {
    /// Append the token to `out`.
    fn write_json(self, out: &mut String);
}

impl JsonScalar for f64 {
    fn write_json(self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

/// Integers and booleans: their `Display` text is their JSON token.
macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn write_json(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalars!(bool, u32, u64, usize, i64);

/// A string literal: quotes, backslashes and every control character are
/// escaped, so the literal never spans a line.
impl JsonScalar for &str {
    fn write_json(self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { s, i: 0, depth: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.i
                    ));
                }
                self.depth += 1;
                self.i += 1;
                let v = if b == b'[' {
                    let mut items = Vec::new();
                    self.items(b']', |p| p.value().map(|v| items.push(v)))?;
                    JsonValue::Arr(items)
                } else {
                    let mut members = Vec::new();
                    self.items(b'}', |p| {
                        p.skip_ws();
                        let key = p.string()?;
                        p.skip_ws();
                        p.expect(b':')?;
                        p.value().map(|v| members.push((key, v)))
                    })?;
                    JsonValue::Obj(members)
                };
                self.depth -= 1;
                Ok(v)
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// The comma-separated items of an array or object, after its opening
    /// bracket and through its `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, and nothing else.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        self.eat(b'-');
        let int = self.i;
        let mut ok = self.digits() > 0 && (self.i == int + 1 || self.s.as_bytes()[int] != b'0');
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        match self.s[start..self.i].parse() {
            Ok(v) if ok => Ok(JsonValue::Num(v)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step:
            // both are ASCII, so the run ends on a char boundary.
            let run = self.i;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.i += 1;
            }
            out.push_str(&self.s[run..self.i]);
            if self.eat(b'"') {
                return Ok(out);
            }
            self.expect(b'\\').map_err(|_| "unterminated string")?;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'u') => {
                    let hex = self.s.get(self.i + 1..self.i + 5);
                    let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    let c = hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?));
                    out.push(c.ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?);
                    self.i += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.i)),
            }
            self.i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(r#"{"name":"a\"b","n":-1.5e2,"ok":true,"xs":[1,2,{"y":null}]}"#)
            .unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        let xs = v.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].get("y"), Some(&JsonValue::Null));
    }

    #[test]
    fn written_strings_round_trip_through_parse() {
        let raw = "line1\nta\tb \"q\" back\\slash \u{1}\u{8}\u{1f} µ→😀";
        let doc = JsonWriter::object(|w| {
            w.field("s", raw);
        });
        assert!(!doc.contains('\n'));
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(raw));
    }

    #[test]
    fn numbers_follow_one_rule() {
        let doc = JsonWriter::array(|w| {
            for v in [-0.0, 5e-324, f64::MAX, 1e20, 0.1, 3.0] {
                w.val(v);
            }
            w.val(f64::NAN).val(f64::INFINITY).val(f64::NEG_INFINITY);
            w.val(u64::MAX).val(-3i64);
        });
        assert_eq!(
            doc,
            "[-0.0,5e-324,1.7976931348623157e308,1e20,0.1,3.0,null,null,null,18446744073709551615,-3]"
        );
        let back = JsonValue::parse(&doc).unwrap();
        let back = back.as_arr().unwrap();
        for (v, b) in [-0.0, 5e-324, f64::MAX, 1e20, 0.1, 3.0].iter().zip(back) {
            assert_eq!(b.as_f64().map(f64::to_bits), Some(v.to_bits()));
        }
        assert_eq!(back[6], JsonValue::Null);
    }

    #[test]
    fn log_text_is_bare_only_when_it_is_a_finite_json_number() {
        for (text, bare) in [
            ("3", true),
            ("-0.5e-3", true),
            ("1e999", false),
            ("NaN", false),
            ("inf", false),
            ("+1", false),
            (".5", false),
            ("5.", false),
            ("01", false),
            (" 3", false),
            ("", false),
        ] {
            let doc = JsonWriter::array(|w| {
                w.num_or_str(text);
            });
            let v = JsonValue::parse(&doc).unwrap_or_else(|e| panic!("{text:?} → {doc}: {e}"));
            let v = &v.as_arr().unwrap()[0];
            assert_eq!(matches!(v, JsonValue::Num(_)), bare, "{text:?} → {doc}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,]",
            "12 34",
            "\"open",
            "+1",
            ".5",
            "5.",
            "1e",
            "-",
            "01",
            "NaN",
            "inf",
            "Infinity",
            "-Infinity",
            "[1.2.3]",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\x\"",
            "\u{c}1",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            JsonValue::parse("1e999").unwrap().as_f64(),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
        assert!(JsonValue::parse(&"{\"a\":".repeat(100_000)).is_err());
    }
}
