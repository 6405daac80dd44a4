//! Vendored minimal stand-in for `serde_json` (offline build).
//!
//! Renders the [`serde::Value`] tree produced by the vendored `serde`
//! crate as JSON text. Output is deterministic: struct fields appear in
//! declaration order and floats use Rust's shortest round-trip formatting.
//! [`from_str`] parses JSON text back into a [`Value`] tree (used by the
//! SchedScope trace round-trip tests).

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;

/// Serialization error. The vendored serializer is infallible in practice;
/// the type exists so call sites keep serde_json's `Result` shape.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: ?Sized + serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None, 0);
    Ok(out)
}

/// Serialize `value` as pretty-printed JSON (two-space indentation).
pub fn to_string_pretty<T: ?Sized + serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some(2), 0);
    Ok(out)
}

/// How deep arrays and objects may nest: the upstream crate's default
/// recursion limit. The parser recurses once per level, so without a limit
/// a few hundred kilobytes of `[` overflow the stack instead of failing.
pub const MAX_DEPTH: usize = 128;

/// Parse JSON text into a [`Value`] tree.
///
/// Supports the full JSON grammar (objects, arrays, strings with escapes
/// including `\uXXXX` surrogate pairs, numbers, booleans, null). Numbers
/// without a fraction/exponent parse as `UInt`/`Int`; everything else as
/// `Float`. An object that repeats a key is an error naming the key and
/// its byte offset, as the scenario TOML parser rejects one, and so is an
/// array or object nested deeper than [`MAX_DEPTH`] levels.
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Parse one value; `depth` counts the arrays and objects around it.
    fn value(&mut self, depth: usize) -> Result<Value> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err(&format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            ))),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(Error(format!("duplicate key `{key}` at byte {at}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let n = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(n)
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // Combine a UTF-16 surrogate pair.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x80 => {
                    if c < 0x20 {
                        return Err(self.err("control character in string"));
                    }
                    out.push(c as char);
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<i64>().map(|v| -v) {
                    return Ok(Value::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("bad number"))
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // `{:?}` is Rust's shortest round-trip float formatting
                // (e.g. `1.0`, not `1`), which is what JSON needs.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
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
                write_value(out, item, indent, depth + 1);
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
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_render() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("fibo".into())),
            (
                "xs".into(),
                Value::Array(vec![Value::UInt(1), Value::Float(2.5)]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"name":"fibo","xs":[1,2.5],"empty":[]}"#
        );
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.starts_with("{\n  \"name\": \"fibo\",\n  \"xs\": [\n    1,"));
    }

    #[test]
    fn a_repeated_key_is_rejected_with_its_offset() {
        let err = from_str(r#"{"a": 1, "b": {"a": 2, "a": 3}}"#).unwrap_err();
        assert_eq!(err.to_string(), "json error: duplicate key `a` at byte 23");
        // The same key in sibling or nested objects is fine.
        from_str(r#"{"a": {"a": 1}, "b": [{"a": 1}, {"a": 2}]}"#).unwrap();
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string(&"a\"b\\c\nd").unwrap(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn floats_round_trip() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parse_round_trips_renderer_output() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("fi\"bo\n".into())),
            (
                "xs".into(),
                Value::Array(vec![Value::UInt(1), Value::Float(2.5), Value::Int(-3)]),
            ),
            ("none".into(), Value::Null),
            ("ok".into(), Value::Bool(true)),
            ("empty".into(), Value::Object(vec![])),
        ]);
        assert_eq!(from_str(&to_string(&v).unwrap()).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn parse_escapes_and_numbers() {
        let v = from_str(r#"{"s":"aé😀\t/","n":-4.5e2}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("aé😀\t/"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-450.0));
        assert_eq!(from_str("17").unwrap().as_u64(), Some(17));
        // \uXXXX escapes, including a UTF-16 surrogate pair.
        assert_eq!(
            from_str("\"\\u0041\\ud83d\\ude00\"").unwrap().as_str(),
            Some("A😀")
        );
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        from_str(&nested(MAX_DEPTH)).unwrap();
        let err = from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "json error: arrays and objects nest deeper than 128 levels at byte 128"
        );
        // Objects count as levels too.
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str(&objects)
            .unwrap_err()
            .to_string()
            .contains("nest deeper than 128 levels"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("true false").is_err());
        assert!(from_str(r#""unterminated"#).is_err());
    }
}
