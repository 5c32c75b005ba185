//! A minimal JSON value, renderer and parser.
//!
//! The report writer needs deterministic, dependency-free JSON output:
//! object keys stay in insertion order, floats render via Rust's
//! shortest round-trip `Display`, and the 2-space pretty printer always
//! produces the same bytes for the same value — that is what makes the
//! byte-identical report contract checkable with `cmp`. The parser
//! exists for the `esram report` subcommand and for tests that want to
//! read fields back out of a written report.

use crate::MAX_NESTING;
use std::fmt;

/// A JSON value. Objects preserve insertion order — no sorting, no
/// hashing — so rendering is deterministic by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from floats so counts render without
    /// a decimal point).
    Int(i128),
    /// A float, rendered via Rust's shortest round-trip `Display`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as 2-space-indented pretty JSON with a
    /// trailing newline. Same value, same bytes — always.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed input.
    pub fn parse(source: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: source.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing garbage at byte {}", parser.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, value: f64) {
    if value.is_finite() {
        let repr = value.to_string();
        out.push_str(&repr);
        // JSON has no distinct integer type, but a bare `12` written
        // where a float lives would reparse as Json::Int and break
        // value round-trips; keep the decimal point.
        if !repr.contains('.') && !repr.contains('e') && !repr.contains('E') {
            out.push_str(".0");
        }
    } else {
        // JSON cannot represent non-finite numbers.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, raw: &str) {
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects enclosing the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    /// Parses the value at `pos`, rejecting arrays and objects nested
    /// deeper than [`MAX_NESTING`] before they can exhaust the stack.
    fn value(&mut self) -> Result<Json, String> {
        if !matches!(self.bytes.get(self.pos), Some(b'[' | b'{')) {
            return self.unnested_value();
        }
        if self.depth == MAX_NESTING {
            return Err(format!(
                "arrays and objects nested more than {MAX_NESTING} deep at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = self.unnested_value();
        self.depth -= 1;
        value
    }

    /// Parses the value at `pos`; the values inside an array or object
    /// go back through [`Parser::value`].
    fn unnested_value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_whitespace();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    self.skip_whitespace();
                    items.push(self.value()?);
                    self.skip_whitespace();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_whitespace();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                loop {
                    self.skip_whitespace();
                    let key = self.string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    self.skip_whitespace();
                    let value = self.value()?;
                    pairs.push((key, value));
                    self.skip_whitespace();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&escape) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?,
                            );
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-walk from the byte we consumed so multi-byte
                    // UTF-8 sequences stay intact.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().expect("non-empty by construction");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII by construction");
        if token.contains('.') || token.contains('e') || token.contains('E') {
            token
                .parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("invalid number '{token}'"))
        } else {
            token
                .parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("invalid number '{token}'"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministic_pretty_json() {
        let value = Json::object(vec![
            ("name", Json::Str("case".to_string())),
            ("count", Json::Int(3)),
            ("rate", Json::Float(0.01)),
            ("whole", Json::Float(2.0)),
            ("ok", Json::Bool(true)),
            ("items", Json::Array(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Array(vec![])),
            ("nothing", Json::Null),
        ]);
        let rendered = value.render();
        assert_eq!(
            rendered,
            concat!(
                "{\n",
                "  \"name\": \"case\",\n",
                "  \"count\": 3,\n",
                "  \"rate\": 0.01,\n",
                "  \"whole\": 2.0,\n",
                "  \"ok\": true,\n",
                "  \"items\": [\n",
                "    1,\n",
                "    2\n",
                "  ],\n",
                "  \"empty\": [],\n",
                "  \"nothing\": null\n",
                "}\n",
            )
        );
        assert_eq!(value.render(), rendered);
    }

    #[test]
    fn parse_inverts_render() {
        let value = Json::object(vec![
            ("s", Json::Str("a \"b\"\n\\ ~\u{1F600}".to_string())),
            ("neg", Json::Int(-42)),
            ("f", Json::Float(1.5e-3)),
            ("whole", Json::Float(10.0)),
            (
                "nested",
                Json::Array(vec![Json::object(vec![("x", Json::Bool(false))])]),
            ),
        ]);
        assert_eq!(Json::parse(&value.render()).unwrap(), value);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn arrays_and_objects_nest_up_to_the_cap_and_no_deeper() {
        let nested = |depth: usize| {
            (0..depth).fold("1".to_string(), |inner, level| {
                if level % 2 == 0 {
                    format!("[{inner}]")
                } else {
                    format!("{{\"a\":{inner}}}")
                }
            })
        };
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        let error = Json::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(error.contains("nested more than"), "{error}");
    }

    #[test]
    fn lookup_helpers_read_fields_back() {
        let value = Json::parse("{\"a\": 1, \"b\": \"x\", \"c\": [true]}").unwrap();
        assert_eq!(value.get("a").and_then(Json::as_int), Some(1));
        assert_eq!(value.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(value.get("c").and_then(Json::as_array).map(|a| a.len()), Some(1));
        assert_eq!(
            value.get("c").unwrap().as_array().unwrap()[0].as_bool(),
            Some(true)
        );
        assert_eq!(value.get("missing"), None);
    }
}
