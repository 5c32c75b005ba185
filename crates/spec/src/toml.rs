//! A hand-rolled, dependency-free parser for the TOML subset the
//! scenario specs use.
//!
//! The build environment has no crates.io access, so instead of pulling
//! in a TOML crate the spec compiler parses exactly the grammar its
//! schema needs — and nothing more, so every rejection can carry a
//! precise [`Span`]:
//!
//! * `[section]` tables and `[[section]]` arrays of tables (one level,
//!   no dotted headers),
//! * `key = value` pairs with bare (`[A-Za-z0-9_-]+`) or basic-quoted
//!   keys,
//! * basic strings with `\"`, `\\`, `\n`, `\t` escapes, integers
//!   (optional sign, `_` separators), floats (decimal point and/or
//!   exponent), booleans, and single-line arrays,
//! * `#` comments and blank lines.
//!
//! Arrays nest at most [`MAX_NESTING`] levels deep.
//!
//! Anything outside the subset — multi-line strings, dotted keys,
//! inline tables, dates — is rejected with a span instead of silently
//! misparsed. Duplicate keys and duplicate `[section]` headers are
//! errors; repeated `[[section]]` headers append, which is what makes
//! the `[[memory]]` groups work.

use crate::error::{SpecError, SpecErrorKind};
use crate::MAX_NESTING;
use std::fmt;

/// A 1-based (line, column) position in the spec source, carried by
/// every parsed value and every error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (in characters, not bytes).
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.col)
    }
}

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    String(String),
    /// An integer.
    Integer(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array of values.
    Array(Vec<Spanned<TomlValue>>),
}

impl TomlValue {
    /// Human-readable name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::String(_) => "string",
            TomlValue::Integer(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
        }
    }
}

/// A value (or key) together with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<T> {
    /// The parsed value.
    pub value: T,
    /// Where it starts in the source.
    pub span: Span,
}

/// An ordered `key = value` table (the body of one `[section]` or one
/// `[[section]]` entry, or the keys before the first header).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlTable {
    entries: Vec<(Spanned<String>, Spanned<TomlValue>)>,
}

impl TomlTable {
    /// The table's entries in source order.
    pub fn entries(&self) -> &[(Spanned<String>, Spanned<TomlValue>)] {
        &self.entries
    }

    /// Looks up a key's value.
    pub fn get(&self, key: &str) -> Option<&Spanned<TomlValue>> {
        self.entries.iter().find(|(k, _)| k.value == key).map(|(_, v)| v)
    }

    fn insert(&mut self, key: Spanned<String>, value: Spanned<TomlValue>) -> Result<(), SpecError> {
        if self.entries.iter().any(|(k, _)| k.value == key.value) {
            return Err(SpecError::new(SpecErrorKind::DuplicateKey(key.value), key.span));
        }
        self.entries.push((key, value));
        Ok(())
    }
}

/// A whole parsed spec file: root keys (rejected later by the schema),
/// `[section]` tables and `[[section]]` arrays of tables, in source
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlDocument {
    /// Keys appearing before any `[section]` header.
    pub root: TomlTable,
    /// `[section]` tables, in source order.
    pub tables: Vec<(Spanned<String>, TomlTable)>,
    /// `[[section]]` arrays of tables; each header occurrence appends
    /// one entry.
    pub arrays: Vec<(String, Vec<(Span, TomlTable)>)>,
}

impl TomlDocument {
    /// Looks up a `[section]` table by name.
    pub fn table(&self, name: &str) -> Option<&TomlTable> {
        self.tables
            .iter()
            .find(|(header, _)| header.value == name)
            .map(|(_, table)| table)
    }

    /// Looks up a `[[section]]` array of tables by name.
    pub fn array(&self, name: &str) -> Option<&[(Span, TomlTable)]> {
        self.arrays
            .iter()
            .find(|(header, _)| header == name)
            .map(|(_, entries)| entries.as_slice())
    }
}

/// Where parsed keys are being inserted while walking the file.
enum Target {
    Root,
    Table(usize),
    ArrayEntry(usize),
}

/// Parses a spec source into a [`TomlDocument`].
///
/// # Errors
///
/// Returns a span-bearing [`SpecError`] on the first line that falls
/// outside the supported subset.
pub fn parse(source: &str) -> Result<TomlDocument, SpecError> {
    let mut doc = TomlDocument::default();
    let mut target = Target::Root;

    for (index, raw_line) in source.lines().enumerate() {
        let line_no = index + 1;
        let mut cursor = Cursor::new(raw_line, line_no);
        cursor.skip_whitespace();
        if cursor.at_end_or_comment() {
            continue;
        }

        if cursor.peek() == Some('[') {
            target = parse_header(&mut cursor, &mut doc)?;
            continue;
        }

        let key = parse_key(&mut cursor)?;
        cursor.skip_whitespace();
        if cursor.peek() != Some('=') {
            return Err(SpecError::new(SpecErrorKind::ExpectedEquals, cursor.span()));
        }
        cursor.advance();
        cursor.skip_whitespace();
        let value = parse_value(&mut cursor, 0)?;
        cursor.skip_whitespace();
        if !cursor.at_end_or_comment() {
            return Err(SpecError::new(SpecErrorKind::TrailingGarbage, cursor.span()));
        }

        let table = match target {
            Target::Root => &mut doc.root,
            Target::Table(index) => &mut doc.tables[index].1,
            Target::ArrayEntry(index) => {
                let entries = &mut doc.arrays[index].1;
                &mut entries.last_mut().expect("array headers push an entry").1
            }
        };
        table.insert(key, value)?;
    }

    Ok(doc)
}

fn parse_header(cursor: &mut Cursor<'_>, doc: &mut TomlDocument) -> Result<Target, SpecError> {
    let span = cursor.span();
    cursor.advance(); // consume '['
    let is_array = cursor.peek() == Some('[');
    if is_array {
        cursor.advance();
    }
    cursor.skip_whitespace();
    let name = parse_key(cursor)?;
    cursor.skip_whitespace();
    for _ in 0..if is_array { 2 } else { 1 } {
        if cursor.peek() != Some(']') {
            return Err(SpecError::new(SpecErrorKind::UnterminatedHeader, span));
        }
        cursor.advance();
    }
    cursor.skip_whitespace();
    if !cursor.at_end_or_comment() {
        return Err(SpecError::new(SpecErrorKind::TrailingGarbage, cursor.span()));
    }

    if is_array {
        let index = match doc.arrays.iter().position(|(header, _)| *header == name.value) {
            Some(index) => index,
            None => {
                doc.arrays.push((name.value.clone(), Vec::new()));
                doc.arrays.len() - 1
            }
        };
        doc.arrays[index].1.push((name.span, TomlTable::default()));
        Ok(Target::ArrayEntry(index))
    } else {
        if doc.tables.iter().any(|(header, _)| header.value == name.value) {
            return Err(SpecError::new(
                SpecErrorKind::DuplicateSection(name.value),
                name.span,
            ));
        }
        doc.tables.push((name, TomlTable::default()));
        Ok(Target::Table(doc.tables.len() - 1))
    }
}

fn parse_key(cursor: &mut Cursor<'_>) -> Result<Spanned<String>, SpecError> {
    let span = cursor.span();
    if cursor.peek() == Some('"') {
        let value = parse_basic_string(cursor)?;
        return Ok(Spanned { value, span });
    }
    let mut key = String::new();
    while let Some(c) = cursor.peek() {
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
            key.push(c);
            cursor.advance();
        } else {
            break;
        }
    }
    if key.is_empty() {
        return Err(SpecError::new(SpecErrorKind::ExpectedKey, span));
    }
    Ok(Spanned { value: key, span })
}

/// Parses one value; `depth` counts the arrays enclosing it, so nesting
/// deeper than [`MAX_NESTING`] is rejected before it can exhaust the
/// stack.
fn parse_value(cursor: &mut Cursor<'_>, depth: usize) -> Result<Spanned<TomlValue>, SpecError> {
    let span = cursor.span();
    let value = match cursor.peek() {
        None => return Err(SpecError::new(SpecErrorKind::ExpectedValue, span)),
        Some('"') => TomlValue::String(parse_basic_string(cursor)?),
        Some('[') => {
            if depth == MAX_NESTING {
                return Err(SpecError::new(SpecErrorKind::NestingTooDeep, span));
            }
            cursor.advance();
            let mut items = Vec::new();
            loop {
                cursor.skip_whitespace();
                match cursor.peek() {
                    None | Some('#') => {
                        return Err(SpecError::new(SpecErrorKind::UnterminatedArray, span));
                    }
                    Some(']') => {
                        cursor.advance();
                        break;
                    }
                    Some(',') if !items.is_empty() => {
                        cursor.advance();
                        cursor.skip_whitespace();
                        // A trailing comma before the closing bracket is
                        // fine (TOML allows it).
                        if cursor.peek() == Some(']') {
                            cursor.advance();
                            break;
                        }
                        items.push(parse_value(cursor, depth + 1)?);
                    }
                    Some(_) if items.is_empty() => items.push(parse_value(cursor, depth + 1)?),
                    Some(_) => {
                        return Err(SpecError::new(SpecErrorKind::TrailingGarbage, cursor.span()));
                    }
                }
            }
            TomlValue::Array(items)
        }
        Some(_) => parse_scalar(cursor)?,
    };
    Ok(Spanned { value, span })
}

fn parse_basic_string(cursor: &mut Cursor<'_>) -> Result<String, SpecError> {
    let span = cursor.span();
    cursor.advance(); // consume the opening quote
    let mut out = String::new();
    loop {
        match cursor.peek() {
            None => return Err(SpecError::new(SpecErrorKind::UnterminatedString, span)),
            Some('"') => {
                cursor.advance();
                return Ok(out);
            }
            Some('\\') => {
                let escape_span = cursor.span();
                cursor.advance();
                match cursor.peek() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    _ => return Err(SpecError::new(SpecErrorKind::InvalidEscape, escape_span)),
                }
                cursor.advance();
            }
            Some(c) => {
                out.push(c);
                cursor.advance();
            }
        }
    }
}

fn parse_scalar(cursor: &mut Cursor<'_>) -> Result<TomlValue, SpecError> {
    let span = cursor.span();
    let mut token = String::new();
    while let Some(c) = cursor.peek() {
        if c.is_whitespace() || c == ',' || c == ']' || c == '#' {
            break;
        }
        token.push(c);
        cursor.advance();
    }
    match token.as_str() {
        "" => return Err(SpecError::new(SpecErrorKind::ExpectedValue, span)),
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let digits: String = token.chars().filter(|&c| c != '_').collect();
    if digits.contains('.') || digits.contains('e') || digits.contains('E') {
        if let Ok(value) = digits.parse::<f64>() {
            if value.is_finite() {
                return Ok(TomlValue::Float(value));
            }
        }
    } else if let Ok(value) = digits.parse::<i64>() {
        return Ok(TomlValue::Integer(value));
    }
    Err(SpecError::new(SpecErrorKind::InvalidValue(token), span))
}

/// Character cursor over one source line, tracking the column.
struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str, line_no: usize) -> Self {
        Cursor {
            chars: line.chars().peekable(),
            line: line_no,
            col: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn advance(&mut self) {
        if self.chars.next().is_some() {
            self.col += 1;
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.advance();
        }
    }

    fn at_end_or_comment(&mut self) -> bool {
        matches!(self.peek(), None | Some('#'))
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_at(source: &str) -> (SpecErrorKind, Span) {
        let error = parse(source).expect_err("source must be rejected");
        (error.kind, error.span)
    }

    #[test]
    fn parses_tables_arrays_and_every_scalar_type() {
        let doc = parse(concat!(
            "# a comment\n",
            "[scenario]\n",
            "name = \"case\" # trailing comment\n",
            "seed = 42\n",
            "negative = -7\n",
            "big = 1_000_000\n",
            "rate = 0.01\n",
            "exp = 1e-3\n",
            "flag = true\n",
            "off = false\n",
            "rates = [0.001, 0.01, 0.1]\n",
            "empty = []\n",
            "trailing = [1, 2,]\n",
            "\n",
            "[[memory]]\n",
            "words = 512\n",
            "[[memory]]\n",
            "words = 64\n",
        ))
        .expect("well-formed subset parses");
        let scenario = doc.table("scenario").expect("scenario table");
        assert_eq!(
            scenario.get("name").unwrap().value,
            TomlValue::String("case".to_string())
        );
        assert_eq!(scenario.get("seed").unwrap().value, TomlValue::Integer(42));
        assert_eq!(scenario.get("negative").unwrap().value, TomlValue::Integer(-7));
        assert_eq!(scenario.get("big").unwrap().value, TomlValue::Integer(1_000_000));
        assert_eq!(scenario.get("rate").unwrap().value, TomlValue::Float(0.01));
        assert_eq!(scenario.get("exp").unwrap().value, TomlValue::Float(1e-3));
        assert_eq!(scenario.get("flag").unwrap().value, TomlValue::Bool(true));
        assert_eq!(scenario.get("off").unwrap().value, TomlValue::Bool(false));
        let TomlValue::Array(rates) = &scenario.get("rates").unwrap().value else {
            panic!("rates must parse as an array");
        };
        assert_eq!(rates.len(), 3);
        assert_eq!(rates[1].value, TomlValue::Float(0.01));
        let TomlValue::Array(empty) = &scenario.get("empty").unwrap().value else {
            panic!("empty array");
        };
        assert!(empty.is_empty());
        let TomlValue::Array(trailing) = &scenario.get("trailing").unwrap().value else {
            panic!("trailing-comma array");
        };
        assert_eq!(trailing.len(), 2);
        let memories = doc.array("memory").expect("memory array");
        assert_eq!(memories.len(), 2);
        assert_eq!(memories[0].1.get("words").unwrap().value, TomlValue::Integer(512));
        assert_eq!(memories[1].1.get("words").unwrap().value, TomlValue::Integer(64));
    }

    #[test]
    fn values_carry_their_source_span() {
        let doc = parse("[a]\nkey = \"value\"\n").unwrap();
        let value = doc.table("a").unwrap().get("key").unwrap();
        assert_eq!(value.span, Span { line: 2, col: 7 });
        assert_eq!(value.span.to_string(), "line 2, column 7");
    }

    #[test]
    fn quoted_keys_and_escapes_round_trip() {
        let doc = parse("[t]\n\"a b\" = \"x\\n\\t\\\\\\\"y\"\n").unwrap();
        assert_eq!(
            doc.table("t").unwrap().get("a b").unwrap().value,
            TomlValue::String("x\n\t\\\"y".to_string())
        );
    }

    #[test]
    fn trailing_garbage_is_rejected_with_its_position() {
        let (kind, span) = kind_at("[a]\nrate = 0.01 garbage\n");
        assert_eq!(kind, SpecErrorKind::TrailingGarbage);
        assert_eq!(span, Span { line: 2, col: 13 });
        let (kind, _) = kind_at("[a] garbage\n");
        assert_eq!(kind, SpecErrorKind::TrailingGarbage);
    }

    #[test]
    fn syntax_errors_name_the_failure() {
        assert!(matches!(kind_at("[a]\nkey 5\n").0, SpecErrorKind::ExpectedEquals));
        assert!(matches!(kind_at("[a]\n= 5\n").0, SpecErrorKind::ExpectedKey));
        assert!(matches!(kind_at("[a]\nkey =\n").0, SpecErrorKind::ExpectedValue));
        assert!(matches!(
            kind_at("[a]\nkey = \"open\n").0,
            SpecErrorKind::UnterminatedString
        ));
        assert!(matches!(
            kind_at("[a]\nkey = \"bad\\q\"\n").0,
            SpecErrorKind::InvalidEscape
        ));
        assert!(matches!(
            kind_at("[a\nkey = 5\n").0,
            SpecErrorKind::UnterminatedHeader
        ));
        assert!(matches!(
            kind_at("[[a]\nkey = 5\n").0,
            SpecErrorKind::UnterminatedHeader
        ));
        assert!(matches!(
            kind_at("[a]\nkey = [1, 2\n").0,
            SpecErrorKind::UnterminatedArray
        ));
        assert!(matches!(
            kind_at("[a]\nkey = 2005-01-01\n").0,
            SpecErrorKind::InvalidValue(_)
        ));
        assert!(matches!(
            kind_at("[a]\nkey = [1 2]\n").0,
            SpecErrorKind::TrailingGarbage
        ));
    }

    #[test]
    fn duplicates_are_rejected() {
        assert!(matches!(
            kind_at("[a]\nk = 1\nk = 2\n").0,
            SpecErrorKind::DuplicateKey(key) if key == "k"
        ));
        assert!(matches!(
            kind_at("[a]\n[b]\n[a]\n").0,
            SpecErrorKind::DuplicateSection(name) if name == "a"
        ));
    }

    #[test]
    fn root_keys_are_collected_for_the_schema_to_reject() {
        let doc = parse("stray = 1\n[a]\n").unwrap();
        assert_eq!(doc.root.entries().len(), 1);
        assert_eq!(doc.root.get("stray").unwrap().value, TomlValue::Integer(1));
    }
}
