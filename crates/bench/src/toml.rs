//! A self-contained TOML subset for scenario files.
//!
//! The build environment is offline, so no `toml` crate: this module
//! parses and renders the slice of TOML the scenario layer needs, going
//! through the vendored [`serde::Value`] tree (exactly as `serde_json`
//! does for JSON), so any `Serialize`/`Deserialize` type — in particular
//! [`divrel_bench::scenario::Scenario`](crate::scenario::Scenario) —
//! works with both syntaxes.
//!
//! Supported: `[table.headers]`, `[[arrays.of.tables]]`, dotted and
//! quoted keys, basic (`"…"` with escapes) and literal (`'…'`) strings,
//! integers (with `_` separators), floats, booleans, arrays (multi-line,
//! trailing commas), inline tables, and `#` comments. Not supported (the
//! scenario layer never produces them): dates, `+inf`/`nan`, multi-line
//! strings.
//!
//! Rendering notes: key order inside a table is normalised (scalars and
//! inline arrays first, then sub-tables, then arrays of tables) as TOML
//! requires; `Null` map entries are skipped, matching the parser's
//! missing-field ⇒ `None` semantics. Typed round-trips
//! (`T → to_toml → parse → T`) are exact; `Value`-level round-trips may
//! reorder map entries.

use serde::Value;
use std::fmt;

/// A TOML parse or render error: a message plus the byte offset where
/// parsing stopped (0 for render errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    msg: String,
    at: usize,
}

impl TomlError {
    fn new(msg: impl Into<String>, at: usize) -> Self {
        TomlError {
            msg: msg.into(),
            at,
        }
    }
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for TomlError {}

/// Parses TOML text into any deserialisable type.
///
/// # Errors
///
/// [`TomlError`] for unsupported or malformed syntax;
/// [`serde::DeError`] (wrapped) for a shape mismatch.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, TomlError> {
    let v = parse(s)?;
    T::from_value(&v).map_err(|e| TomlError::new(e.0, 0))
}

/// Serialises a value as a TOML document (the value must serialise to a
/// map — scalars and bare arrays have no TOML document form).
///
/// # Errors
///
/// [`TomlError`] for non-map roots, non-finite numbers, or `Null` inside
/// arrays.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, TomlError> {
    let v = value.to_value();
    let Value::Map(entries) = &v else {
        return Err(TomlError::new("TOML document root must be a table", 0));
    };
    let mut out = String::new();
    render_table(&mut out, &[], entries)?;
    Ok(out)
}

/// Parses TOML text into a [`Value`] tree (always a `Value::Map` at the
/// root).
///
/// # Errors
///
/// [`TomlError`] for unsupported or malformed syntax.
pub fn parse(s: &str) -> Result<Value, TomlError> {
    Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    }
    .parse_document()
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// The deepest nesting the parser accepts. A key path's segments each
/// count one level, and so does each inline array or table in the value
/// the key names.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Nesting levels open at the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn parse_document(mut self) -> Result<Value, TomlError> {
        let mut root = Value::Map(Vec::new());
        // The path of the table statements currently append into.
        let mut cursor: Vec<String> = Vec::new();
        loop {
            self.skip_blank();
            let Some(b) = self.peek() else { break };
            if b == b'[' {
                self.pos += 1;
                let array_of_tables = self.peek() == Some(b'[');
                if array_of_tables {
                    self.pos += 1;
                }
                self.skip_inline_ws();
                let path = self.parse_key_path()?;
                self.skip_inline_ws();
                self.expect(b']')?;
                if array_of_tables {
                    self.expect(b']')?;
                }
                self.expect_line_end()?;
                if array_of_tables {
                    append_table_array(&mut root, &path, self.pos)?;
                } else {
                    // Creating the table now also catches duplicates.
                    navigate(&mut root, &path, self.pos)?;
                }
                cursor = path;
            } else {
                let path = self.parse_key_path()?;
                self.skip_inline_ws();
                self.expect(b'=')?;
                self.skip_inline_ws();
                let value = self.nested(path.len(), Self::parse_value)?;
                self.expect_line_end()?;
                let full: Vec<String> = cursor.iter().chain(path.iter()).cloned().collect();
                insert(&mut root, &full, value, self.pos)?;
            }
        }
        Ok(root)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), TomlError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(TomlError::new(
                format!("expected '{}'", b as char),
                self.pos,
            ))
        }
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, newlines and comments (between statements and
    /// inside arrays).
    fn skip_blank(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') => self.pos += 1,
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Consumes trailing whitespace, an optional comment, and the line
    /// terminator (or EOF) after a statement.
    fn expect_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.pos += 1;
                Ok(())
            }
            Some(b'\r') if self.bytes.get(self.pos + 1) == Some(&b'\n') => {
                self.pos += 2;
                Ok(())
            }
            Some(c) => Err(TomlError::new(
                format!("expected end of line, found '{}'", c as char),
                self.pos,
            )),
        }
    }

    /// A dotted key path: `a.b."c d"`. Each segment nests the value it
    /// names one table deeper, so segments count toward `MAX_DEPTH`.
    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut path = vec![self.parse_key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() != Some(b'.') {
                return Ok(path);
            }
            if self.depth + path.len() == MAX_DEPTH {
                return Err(self.too_deep());
            }
            self.pos += 1;
            self.skip_inline_ws();
            path.push(self.parse_key()?);
        }
    }

    fn parse_key(&mut self) -> Result<String, TomlError> {
        match self.peek() {
            Some(b'"') => self.parse_basic_string(),
            Some(b'\'') => self.parse_literal_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
                {
                    self.pos += 1;
                }
                Ok(std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("ASCII key bytes")
                    .to_string())
            }
            _ => Err(TomlError::new("expected a key", self.pos)),
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_basic_string()?)),
            Some(b'\'') => Ok(Value::Str(self.parse_literal_string()?)),
            Some(b'[') => self.nested(1, Self::parse_array),
            Some(b'{') => self.nested(1, Self::parse_inline_table),
            Some(b't') | Some(b'f') => {
                if self.bytes[self.pos..].starts_with(b"true") {
                    self.pos += 4;
                    Ok(Value::Bool(true))
                } else if self.bytes[self.pos..].starts_with(b"false") {
                    self.pos += 5;
                    Ok(Value::Bool(false))
                } else {
                    Err(TomlError::new("invalid literal", self.pos))
                }
            }
            Some(c) if c == b'+' || c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(TomlError::new("expected a value", self.pos)),
        }
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || b"+-._eE".contains(&c)
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| TomlError::new("invalid number bytes", start))?;
        // TOML permits `_` only between two digits: `1_000` is legal,
        // `1__2`, `_1`, and `1_` are not (and `1_.5` / `1_e3` fail the
        // digit-on-both-sides rule too).
        let bytes = raw.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'_' {
                let between_digits = i > 0
                    && bytes[i - 1].is_ascii_digit()
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                if !between_digits {
                    return Err(TomlError::new(
                        format!("misplaced underscore in number {raw:?}"),
                        start,
                    ));
                }
            }
        }
        let cleaned: String = raw.chars().filter(|&c| c != '_').collect();
        // Integer literals stay lossless across the full i64..=u64 span
        // (sweep seeds are u64); wider integers and anything with a
        // fractional or exponent part are carried as f64.
        if !cleaned.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            if let Ok(i) = cleaned.parse::<i128>() {
                if (i64::MIN as i128..=u64::MAX as i128).contains(&i) {
                    return Ok(Value::Int(i));
                }
            }
        }
        cleaned
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| TomlError::new(format!("invalid number {raw:?}"), start))
    }

    fn parse_basic_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') | Some(b'U') => {
                            let len = if esc == Some(b'u') { 4 } else { 8 };
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + len)
                                .ok_or_else(|| TomlError::new("truncated \\u escape", self.pos))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| TomlError::new("bad \\u escape", self.pos))?,
                                16,
                            )
                            .map_err(|_| TomlError::new("bad \\u escape", self.pos))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| TomlError::new("bad code point", self.pos))?,
                            );
                            self.pos += len;
                        }
                        _ => return Err(TomlError::new("unsupported escape", self.pos)),
                    }
                }
                Some(b'\n') | None => return Err(TomlError::new("unterminated string", self.pos)),
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'"') | Some(b'\\') | Some(b'\n') | None) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| TomlError::new("invalid UTF-8 in string", start))?,
                    );
                }
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'\'')?;
        let start = self.pos;
        while !matches!(self.peek(), Some(b'\'') | Some(b'\n') | None) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| TomlError::new("invalid UTF-8 in string", start))?
            .to_string();
        self.expect(b'\'')
            .map_err(|_| TomlError::new("unterminated literal string", self.pos))?;
        Ok(s)
    }

    /// Runs `parse` `levels` nesting levels down, refusing to nest
    /// deeper than `MAX_DEPTH` so hostile input cannot exhaust the stack.
    fn nested(
        &mut self,
        levels: usize,
        parse: fn(&mut Self) -> Result<Value, TomlError>,
    ) -> Result<Value, TomlError> {
        if self.depth + levels > MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += levels;
        let value = parse(self);
        self.depth -= levels;
        value
    }

    fn too_deep(&self) -> TomlError {
        TomlError::new(format!("nesting deeper than {MAX_DEPTH} levels"), self.pos)
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_blank();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            items.push(self.parse_value()?);
            self.skip_blank();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(TomlError::new("expected ',' or ']' in array", self.pos)),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, TomlError> {
        self.expect(b'{')?;
        let mut table = Value::Map(Vec::new());
        self.skip_blank();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(table);
        }
        loop {
            self.skip_blank();
            let path = self.parse_key_path()?;
            self.skip_inline_ws();
            self.expect(b'=')?;
            self.skip_inline_ws();
            let value = self.nested(path.len(), Self::parse_value)?;
            insert(&mut table, &path, value, self.pos)?;
            self.skip_blank();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(table);
                }
                _ => {
                    return Err(TomlError::new(
                        "expected ',' or '}' in inline table",
                        self.pos,
                    ))
                }
            }
        }
    }
}

/// Descends `path` from `root`, creating empty tables as needed; a path
/// segment landing on an array of tables descends into its **last**
/// element (standard TOML sub-table semantics).
fn navigate<'a>(
    root: &'a mut Value,
    path: &[String],
    at: usize,
) -> Result<&'a mut Value, TomlError> {
    let mut node = root;
    for key in path {
        let Value::Map(entries) = node else {
            return Err(TomlError::new(format!("key {key:?} is not a table"), at));
        };
        let idx = match entries.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                entries.push((key.clone(), Value::Map(Vec::new())));
                entries.len() - 1
            }
        };
        node = match &mut entries[idx].1 {
            Value::Seq(items) => items
                .last_mut()
                .ok_or_else(|| TomlError::new(format!("empty table array {key:?}"), at))?,
            other => other,
        };
    }
    Ok(node)
}

/// Appends a fresh table to the array of tables at `path`.
fn append_table_array(root: &mut Value, path: &[String], at: usize) -> Result<(), TomlError> {
    let (last, parents) = path.split_last().expect("non-empty header path");
    let parent = navigate(root, parents, at)?;
    let Value::Map(entries) = parent else {
        return Err(TomlError::new("parent is not a table", at));
    };
    match entries.iter_mut().find(|(k, _)| k == last) {
        Some((_, Value::Seq(items))) => {
            items.push(Value::Map(Vec::new()));
        }
        Some(_) => {
            return Err(TomlError::new(
                format!("key {last:?} is not an array of tables"),
                at,
            ))
        }
        None => entries.push((last.clone(), Value::Seq(vec![Value::Map(Vec::new())]))),
    }
    Ok(())
}

/// Inserts `value` at the dotted `path`, erroring on duplicate keys.
fn insert(root: &mut Value, path: &[String], value: Value, at: usize) -> Result<(), TomlError> {
    let (last, parents) = path.split_last().expect("non-empty key path");
    let parent = navigate(root, parents, at)?;
    let Value::Map(entries) = parent else {
        return Err(TomlError::new("parent is not a table", at));
    };
    if entries.iter().any(|(k, _)| k == last) {
        return Err(TomlError::new(format!("duplicate key {last:?}"), at));
    }
    entries.push((last.clone(), value));
    Ok(())
}

// ---------------------------------------------------------------------
// Renderer
// ---------------------------------------------------------------------

/// Emits one table body: scalar entries first, then sub-tables and
/// arrays of tables with full-path headers.
fn render_table(
    out: &mut String,
    path: &[String],
    entries: &[(String, Value)],
) -> Result<(), TomlError> {
    let mut deferred: Vec<(&String, &Value)> = Vec::new();
    for (key, value) in entries {
        match value {
            Value::Null => {} // absent key ⇒ None on re-parse
            Value::Map(_) => deferred.push((key, value)),
            Value::Seq(items) if !items.is_empty() && items.iter().all(is_map) => {
                deferred.push((key, value));
            }
            _ => {
                out.push_str(&format!("{} = ", render_key(key)));
                render_inline(out, value)?;
                out.push('\n');
            }
        }
    }
    for (key, value) in deferred {
        let mut sub: Vec<String> = path.to_vec();
        sub.push(key.clone());
        let header: Vec<String> = sub.iter().map(|k| render_key(k)).collect();
        match value {
            Value::Map(inner) => {
                out.push_str(&format!("\n[{}]\n", header.join(".")));
                render_table(out, &sub, inner)?;
            }
            Value::Seq(items) => {
                for item in items {
                    let Value::Map(inner) = item else {
                        unreachable!("deferred arrays contain only maps")
                    };
                    out.push_str(&format!("\n[[{}]]\n", header.join(".")));
                    render_table(out, &sub, inner)?;
                }
            }
            _ => unreachable!("only tables are deferred"),
        }
    }
    Ok(())
}

fn is_map(v: &Value) -> bool {
    matches!(v, Value::Map(_))
}

fn render_key(key: &str) -> String {
    if !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        key.to_string()
    } else {
        render_string(key)
    }
}

fn render_string(s: &str) -> String {
    let mut out = String::from("\"");
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
    out
}

/// Renders a value in inline position (inside arrays, inline tables, or
/// after `key =`).
fn render_inline(out: &mut String, v: &Value) -> Result<(), TomlError> {
    match v {
        Value::Null => return Err(TomlError::new("TOML cannot represent null here", 0)),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            if !n.is_finite() {
                return Err(TomlError::new(format!("non-finite number {n}"), 0));
            }
            // `{:?}` is the shortest round-trip form and always keeps
            // float syntax (a dot or an exponent), so an integral float
            // reparses as a float — TOML keeps the two types apart, and
            // `Value::Int` covers the genuinely integer case.
            out.push_str(&format!("{n:?}"));
        }
        Value::Int(i) => out.push_str(&format!("{i}")),
        Value::Str(s) => out.push_str(&render_string(s)),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_inline(out, item)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            let mut first = true;
            for (k, v) in entries {
                if matches!(v, Value::Null) {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("{} = ", render_key(k)));
                render_inline(out, v)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn parses_scalars_tables_and_comments() {
        let doc = r#"
# a scenario
name = "demo" # trailing comment
count = 1_000
ratio = 0.25
on = true

[nested.inner]
x = -3
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v["name"], "demo");
        assert_eq!(v["count"], 1000.0);
        assert_eq!(v["ratio"], 0.25);
        assert_eq!(v["on"], Value::Bool(true));
        assert_eq!(v["nested"]["inner"]["x"], -3.0);
    }

    #[test]
    fn parses_arrays_inline_tables_and_arrays_of_tables() {
        let doc = r#"
ps = [0.1, 0.2,
      0.3]  # multi-line with trailing entries
point = { x = 1, y = 2 }

[[regions]]
kind = "rect"

[[regions]]
kind = "lattice"

[regions.params]
count = 5
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v["ps"].as_seq().unwrap().len(), 3);
        assert_eq!(v["point"]["y"], 2.0);
        let regions = v["regions"].as_seq().unwrap();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0]["kind"], "rect");
        // The sub-table header lands in the LAST array element.
        assert_eq!(regions[1]["params"]["count"], 5.0);
    }

    #[test]
    fn parses_string_flavours_and_dotted_keys() {
        let doc = "a.b = \"x\\n\\\"y\\\"\"\nlit = 'no \\ escapes'\n\"quoted key\" = 7\n";
        let v = parse(doc).unwrap();
        assert_eq!(v["a"]["b"], "x\n\"y\"");
        assert_eq!(v["lit"], "no \\ escapes");
        assert_eq!(v["quoted key"], 7.0);
    }

    #[test]
    fn rejects_duplicates_and_junk() {
        assert!(parse("a = 1\na = 2\n").is_err());
        assert!(parse("a = 1 garbage\n").is_err());
        assert!(parse("a = \"unterminated\n").is_err());
        assert!(parse("[t]\n[t]\nx = 1\n").is_ok()); // re-entering a table is allowed
        assert!(parse("= 3\n").is_err());
        assert!(parse("a = [1, \n").is_err());
    }

    #[test]
    fn renders_and_reparses_nested_structure() {
        let doc = map(vec![
            ("name", Value::Str("three channel".into())),
            ("steps", Value::Num(400_000.0)),
            (
                "plant",
                map(vec![(
                    "MarkovWalk",
                    map(vec![
                        ("step", Value::Num(2.0)),
                        ("move_prob", Value::Num(0.01)),
                    ]),
                )]),
            ),
            (
                "systems",
                Value::Seq(vec![
                    map(vec![("label", Value::Str("1oo2".into()))]),
                    map(vec![("label", Value::Str("2oo3".into()))]),
                ]),
            ),
            (
                "processes",
                Value::Seq(vec![
                    Value::Seq(vec![Value::Num(0.25), Value::Num(0.5)]),
                    Value::Seq(vec![Value::Num(0.1), Value::Num(0.2)]),
                ]),
            ),
            ("missing", Value::Null),
        ]);
        let text = to_string(&doc).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back["name"], "three channel");
        assert_eq!(back["steps"], 400_000.0);
        assert_eq!(back["plant"]["MarkovWalk"]["move_prob"], 0.01);
        assert_eq!(back["systems"].as_seq().unwrap().len(), 2);
        assert_eq!(back["processes"][1][0], 0.1);
        // Null entries vanish: absent key semantics.
        assert_eq!(back["missing"], Value::Null);
        assert!(!text.contains("missing"));
    }

    #[test]
    fn float_text_round_trip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 2.5e-17, 123456.789, f64::MIN_POSITIVE] {
            let doc = map(vec![("x", Value::Num(x))]);
            let text = to_string(&doc).unwrap();
            let back = parse(&text).unwrap();
            assert_eq!(back["x"].as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn integers_are_lossless_across_the_u64_range() {
        // 2^53 + 1 is the first integer f64 cannot represent; u64::MAX
        // is what a sweep seed can actually be.
        for seed in [(1u64 << 53) + 1, u64::MAX, 1 << 63] {
            let v = parse(&format!("seed = {seed}\n")).unwrap();
            assert_eq!(v["seed"], Value::Int(seed as i128));
            let text = to_string(&v).unwrap();
            assert_eq!(text, format!("seed = {seed}\n"));
        }
        let v = parse(&format!("low = {}\n", i64::MIN)).unwrap();
        assert_eq!(v["low"], Value::Int(i64::MIN as i128));
        // Underscore grouping still parses (and is normalised away).
        assert_eq!(
            parse("n = 1_000_000\n").unwrap()["n"],
            Value::Int(1_000_000)
        );
        // Floats keep their representation: exponents and fractions
        // never collapse into Int.
        assert_eq!(parse("x = 1e3\n").unwrap()["x"], Value::Num(1000.0));
        assert_eq!(parse("x = 5.0\n").unwrap()["x"], Value::Num(5.0));
    }

    #[test]
    fn rejects_misplaced_underscores() {
        for doc in [
            "a = 1__2\n",
            "a = _1\n",
            "a = 1_\n",
            "a = 1_.5\n",
            "a = 1._5\n",
            "a = 1_e3\n",
            "a = 1e_3\n",
            "a = -_1\n",
        ] {
            assert!(parse(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn rejects_unrepresentable_documents() {
        assert!(to_string(&Value::Num(3.0)).is_err());
        assert!(to_string(&map(vec![("x", Value::Num(f64::INFINITY))])).is_err());
        assert!(to_string(&map(vec![("xs", Value::Seq(vec![Value::Null]))])).is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // The key `x` is the first level, its arrays the rest.
        let nest = |depth: usize| format!("x = {}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH - 1)).is_ok());
        let err = parse(&nest(MAX_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert!(parse(&format!("x = {}", "{ a = ".repeat(MAX_DEPTH + 1))).is_err());
        // Unclosed input a hundred thousand levels deep: an error, not a
        // stack overflow.
        assert!(parse(&format!("x = {}", "[".repeat(100_000))).is_err());
        assert!(parse(&format!("x = {}", "{ a = [".repeat(50_000))).is_err());
        assert!(from_str::<Value>(&format!("x = {}", "[".repeat(100_000))).is_err());
    }

    #[test]
    fn dotted_keys_count_toward_the_depth_cap() {
        let key = |segments: usize| vec!["a"; segments].join(".");
        assert!(parse(&format!("{} = 1", key(MAX_DEPTH - 1))).is_ok());
        assert!(parse(&format!("[{}]\nx = 1", key(MAX_DEPTH))).is_ok());
        assert!(parse(&format!("{} = [1]", key(MAX_DEPTH))).is_err());
        assert!(parse(&format!("x = {{ {} = 1 }}", key(MAX_DEPTH))).is_err());
        // A hundred thousand segments would nest the value as deep.
        assert!(parse(&format!("{} = 1", key(100_000))).is_err());
        assert!(parse(&format!("[{}]", key(100_000))).is_err());
        let inline = format!("{{ {} = ", key(MAX_DEPTH / 2));
        assert!(parse(&format!("x = {}", inline.repeat(MAX_DEPTH))).is_err());
    }

    #[test]
    fn quoted_keys_render_when_needed() {
        let doc = map(vec![("needs quoting", Value::Num(1.0))]);
        let text = to_string(&doc).unwrap();
        assert!(text.contains("\"needs quoting\" = 1"));
        assert_eq!(parse(&text).unwrap()["needs quoting"], 1.0);
    }
}
