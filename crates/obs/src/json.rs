//! A minimal, deterministic JSON value: writer and parser.
//!
//! The workspace builds in a container with no registry access, so there
//! is no serde; the observability layer needs exactly two things from
//! JSON — a *deterministic* writer (same data ⇒ byte-identical output,
//! so exported traces and reports diff cleanly) and a small
//! parser so tests, examples, and CI can validate what was emitted
//! without shelling out. Objects preserve insertion order (they are a
//! `Vec` of pairs, not a map), which is what makes the writer
//! deterministic by construction.

use std::fmt::Write as _;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like browsers do). Non-finite
    /// values serialize as `null` — JSON has no NaN/∞.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Num(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Num(v as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl<V: Into<JsonValue>> FromIterator<V> for JsonValue {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        JsonValue::Arr(iter.into_iter().map(Into::into).collect())
    }
}

impl JsonValue {
    /// An empty object.
    pub fn obj() -> Self {
        JsonValue::Obj(Vec::new())
    }

    /// Sets `key` on an object (replacing an existing entry in place,
    /// appending otherwise) and returns `self` for chaining.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        let JsonValue::Obj(pairs) = &mut self else { panic!("JsonValue::set on a non-object") };
        let value = value.into();
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_string(), value)),
        }
        self
    }

    /// Looks a key up on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline — the committed-artifact format.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => out.push_str(&format_number(*v)),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the writer's counterpart; accepts any
    /// standard JSON, not just what the writer emits).
    ///
    /// # Errors
    /// A message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Shortest round-trip decimal for a finite `f64`; integers within the
/// exact range print without a fractional part.
fn format_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        // `{:?}` is Rust's shortest representation that parses back to
        // the same bits — exactly the round-trip property a trace needs.
        format!("{v:?}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not reassembled — the
                            // writer never emits them (it escapes only
                            // control characters).
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_is_deterministic_and_ordered() {
        let v = JsonValue::obj()
            .set("b", 1u64)
            .set("a", 2u64)
            .set("list", [1u64, 2, 3].into_iter().collect::<JsonValue>());
        // Insertion order, not alphabetical — determinism by construction.
        assert_eq!(v.to_json(), r#"{"b":1,"a":2,"list":[1,2,3]}"#);
        assert_eq!(v.to_json(), v.clone().to_json());
    }

    #[test]
    fn set_replaces_in_place() {
        let v = JsonValue::obj().set("a", 1u64).set("b", 2u64).set("a", 3u64);
        assert_eq!(v.to_json(), r#"{"a":3,"b":2}"#);
    }

    #[test]
    fn round_trip_through_parser() {
        let v = JsonValue::obj()
            .set("name", "Gemm(0,1)@r2")
            .set("pi", 3.25)
            .set("neg", JsonValue::Num(-1.5e-3))
            .set("flag", true)
            .set("nested", JsonValue::obj().set("x", JsonValue::Null))
            .set("arr", ["a", "b"].into_iter().collect::<JsonValue>());
        for text in [v.to_json(), v.pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn parser_accepts_escapes_and_unicode() {
        let v = JsonValue::parse(r#"{"s": "a\"b\\c\ndA", "t": [1e3, -2.5E-1]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\ndA");
        let arr = v.get("t").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1000.0));
        assert_eq!(arr[1].as_f64(), Some(-0.25));
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode λ";
        let v = JsonValue::obj().set("s", nasty);
        let back = JsonValue::parse(&v.to_json()).unwrap();
        assert_eq!(back.get("s").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn parser_rejects_malformed() {
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn numbers_format_cleanly() {
        assert_eq!(JsonValue::Num(3.0).to_json(), "3");
        assert_eq!(JsonValue::Num(-17.0).to_json(), "-17");
        assert_eq!(JsonValue::Num(0.1).to_json(), "0.1");
        assert_eq!(JsonValue::Num(f64::NAN).to_json(), "null");
        // Round trip of a representative shortest repr.
        let x = 1.0 / 3.0;
        let parsed = JsonValue::parse(&JsonValue::Num(x).to_json()).unwrap();
        assert_eq!(parsed.as_f64(), Some(x));
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"n": 4, "s": "x", "b": false, "a": [], "o": {}}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert!(v.get("a").unwrap().as_array().unwrap().is_empty());
        assert!(v.get("o").unwrap().as_object().unwrap().is_empty());
        assert!(v.get("missing").is_none());
        assert_eq!(JsonValue::Num(1.5).as_u64(), None);
    }
}
