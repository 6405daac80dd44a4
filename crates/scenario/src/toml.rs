//! A minimal TOML parser producing [`serde::Value`] trees.
//!
//! The workspace's vendored `serde` serializes but does not deserialize, so
//! the scenario format parses its own input: this module covers the TOML
//! subset the scenario files use — `[table]` headers, `[[array-of-tables]]`
//! headers, dotted and bare keys, basic and literal strings, integers,
//! floats, booleans, arrays (including multi-line) and inline tables —
//! and reports every error with the line it occurred on. The same
//! [`Value`] tree also comes out of `serde_json::from_str`, so a scenario
//! may equally be written as JSON (see [`crate::spec::Scenario::from_value`]).

use serde::Value;

/// A parse failure, pinned to a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TomlError {}

/// How deep arrays and inline tables may nest in one value, and how many
/// parts a dotted key or header may have: the default recursion limit of
/// the upstream `serde_json` crate. The value parser recurses once per
/// level, so without a limit a file of a few hundred kilobytes of `[`
/// overflows the stack instead of failing to parse; a dotted key of a
/// million parts builds a table tree whose drop overflows it.
pub const MAX_DEPTH: usize = 128;

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line,
        msg: msg.into(),
    })
}

/// Parse a TOML document into a [`Value::Object`] tree.
pub fn parse(src: &str) -> Result<Value, TomlError> {
    let mut root = Value::Object(Vec::new());
    // Paths of explicitly-defined `[table]` headers (joined with '\x1f'),
    // to reject a table defined twice.
    let mut defined: Vec<String> = Vec::new();
    // The header path all `key = value` lines currently land under.
    let mut cur: Vec<String> = Vec::new();

    let lines: Vec<&str> = src.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]);
        let t = line.trim();
        i += 1;
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix("[[") {
            let Some(inner) = rest.strip_suffix("]]") else {
                return err(lineno, "unterminated [[table]] header");
            };
            let path = parse_key_path(inner, lineno)?;
            push_array_table(&mut root, &path, lineno)?;
            cur = path;
        } else if let Some(rest) = t.strip_prefix('[') {
            let Some(inner) = rest.strip_suffix(']') else {
                return err(lineno, "unterminated [table] header");
            };
            let path = parse_key_path(inner, lineno)?;
            let joined = path.join("\x1f");
            if defined.contains(&joined) {
                return err(lineno, format!("table [{}] defined twice", path.join(".")));
            }
            defined.push(joined);
            navigate(&mut root, &path, lineno)?;
            cur = path;
        } else {
            // `key = value`, possibly spanning multiple lines (unbalanced
            // brackets/braces continue onto the next line).
            let Some(eq) = find_unquoted(t, '=') else {
                return err(lineno, format!("expected `key = value`, got `{t}`"));
            };
            let key_part = &t[..eq];
            let mut val_part = t[eq + 1..].trim().to_string();
            while !brackets_balanced(&val_part) {
                if i >= lines.len() {
                    return err(lineno, "unterminated array or inline table");
                }
                val_part.push(' ');
                val_part.push_str(strip_comment(lines[i]).trim());
                i += 1;
            }
            let keys = parse_key_path(key_part, lineno)?;
            let (last, parents) = keys.split_last().expect("non-empty key path");
            let mut full = cur.clone();
            full.extend(parents.iter().cloned());
            let table = navigate(&mut root, &full, lineno)?;
            let (value, rest) = parse_value(val_part.trim(), lineno, 0)?;
            if !rest.trim().is_empty() {
                return err(
                    lineno,
                    format!("trailing input after value: `{}`", rest.trim()),
                );
            }
            insert(table, last.clone(), value, lineno)?;
        }
    }
    Ok(root)
}

/// Drop a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_basic = false;
    let mut in_literal = false;
    let mut escaped = false;
    for (idx, c) in line.char_indices() {
        match c {
            '\\' if in_basic && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !in_literal && !escaped => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '#' if !in_basic && !in_literal => return &line[..idx],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Find a character outside quotes; returns its byte index.
fn find_unquoted(s: &str, needle: char) -> Option<usize> {
    let mut in_basic = false;
    let mut in_literal = false;
    for (idx, c) in s.char_indices() {
        match c {
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            c if c == needle && !in_basic && !in_literal => return Some(idx),
            _ => {}
        }
    }
    None
}

/// `true` once every `[`/`{` outside strings has a matching closer.
fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i64;
    let mut in_basic = false;
    let mut in_literal = false;
    let mut escaped = false;
    for c in s.chars() {
        match c {
            '\\' if in_basic && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !in_literal && !escaped => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '[' | '{' if !in_basic && !in_literal => depth += 1,
            ']' | '}' if !in_basic && !in_literal => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth <= 0
}

/// Split a dotted key path into bare-key segments.
fn parse_key_path(s: &str, line: usize) -> Result<Vec<String>, TomlError> {
    let mut out = Vec::new();
    for seg in s.split('.') {
        if out.len() == MAX_DEPTH {
            return err(line, format!("key path has more than {MAX_DEPTH} parts"));
        }
        let seg = seg.trim();
        if seg.is_empty() {
            return err(line, format!("empty key segment in `{s}`"));
        }
        if !seg
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return err(
                line,
                format!("key `{seg}` must be a bare key (letters, digits, `_`, `-`)"),
            );
        }
        out.push(seg.to_string());
    }
    Ok(out)
}

/// Walk (creating as needed) to the table at `path`. An array-of-tables on
/// the way descends into its *last* element, as TOML specifies.
fn navigate<'a>(
    root: &'a mut Value,
    path: &[String],
    line: usize,
) -> Result<&'a mut Value, TomlError> {
    let mut cur = root;
    for seg in path {
        let Value::Object(fields) = cur else {
            return err(line, format!("`{seg}` is not a table"));
        };
        if !fields.iter().any(|(k, _)| k == seg) {
            fields.push((seg.clone(), Value::Object(Vec::new())));
        }
        let slot = &mut fields
            .iter_mut()
            .find(|(k, _)| k == seg)
            .expect("just ensured")
            .1;
        cur = match slot {
            Value::Array(items) => match items.last_mut() {
                Some(last) => last,
                None => return err(line, format!("array `{seg}` has no elements")),
            },
            other => other,
        };
        if !matches!(cur, Value::Object(_)) {
            return err(line, format!("key `{seg}` is not a table"));
        }
    }
    Ok(cur)
}

/// Append a fresh table to the array-of-tables at `path`, creating it.
fn push_array_table(root: &mut Value, path: &[String], line: usize) -> Result<(), TomlError> {
    let (last, parents) = path.split_last().expect("non-empty header");
    let parent = navigate(root, parents, line)?;
    let Value::Object(fields) = parent else {
        return err(line, "parent of [[table]] is not a table");
    };
    if !fields.iter().any(|(k, _)| k == last) {
        fields.push((last.clone(), Value::Array(Vec::new())));
    }
    let slot = &mut fields
        .iter_mut()
        .find(|(k, _)| k == last)
        .expect("just ensured")
        .1;
    match slot {
        Value::Array(items) => {
            items.push(Value::Object(Vec::new()));
            Ok(())
        }
        _ => err(
            line,
            format!("`{last}` already defined as a non-array value"),
        ),
    }
}

/// Insert a key into a table, rejecting duplicates.
fn insert(table: &mut Value, key: String, v: Value, line: usize) -> Result<(), TomlError> {
    let Value::Object(fields) = table else {
        return err(line, "cannot insert into a non-table");
    };
    if fields.iter().any(|(k, _)| *k == key) {
        return err(line, format!("duplicate key `{key}`"));
    }
    fields.push((key, v));
    Ok(())
}

/// Parse one TOML value from the front of `s`; returns the rest. `depth`
/// counts the arrays and inline tables around it.
fn parse_value(s: &str, line: usize, depth: usize) -> Result<(Value, &str), TomlError> {
    let s = s.trim_start();
    let Some(first) = s.chars().next() else {
        return err(line, "missing value");
    };
    match first {
        '"' => parse_basic_string(s, line),
        '\'' => parse_literal_string(s, line),
        '[' | '{' if depth == MAX_DEPTH => err(
            line,
            format!("arrays and inline tables nest deeper than {MAX_DEPTH} levels"),
        ),
        '[' => parse_array(s, line, depth + 1),
        '{' => parse_inline_table(s, line, depth + 1),
        't' | 'f' => {
            if let Some(rest) = s.strip_prefix("true") {
                Ok((Value::Bool(true), rest))
            } else if let Some(rest) = s.strip_prefix("false") {
                Ok((Value::Bool(false), rest))
            } else {
                err(line, format!("bad value `{}`", head(s)))
            }
        }
        c if c == '-' || c == '+' || c.is_ascii_digit() => parse_number(s, line),
        _ => err(line, format!("bad value `{}`", head(s))),
    }
}

fn head(s: &str) -> &str {
    let end = s
        .char_indices()
        .find(|&(_, c)| c == ',' || c == ']' || c == '}' || c.is_whitespace())
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    &s[..end.max(1).min(s.len())]
}

fn parse_basic_string(s: &str, line: usize) -> Result<(Value, &str), TomlError> {
    let mut out = String::new();
    let mut chars = s.char_indices().skip(1);
    while let Some((idx, c)) = chars.next() {
        match c {
            '"' => return Ok((Value::Str(out), &s[idx + 1..])),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => {
                    return err(line, format!("unsupported escape `\\{other}` in string"))
                }
                None => return err(line, "unterminated string escape"),
            },
            other => out.push(other),
        }
    }
    err(line, "unterminated string")
}

fn parse_literal_string(s: &str, line: usize) -> Result<(Value, &str), TomlError> {
    let body = &s[1..];
    match body.find('\'') {
        Some(end) => Ok((Value::Str(body[..end].to_string()), &body[end + 1..])),
        None => err(line, "unterminated literal string"),
    }
}

fn parse_number(s: &str, line: usize) -> Result<(Value, &str), TomlError> {
    let end = s
        .char_indices()
        .find(|&(i, c)| {
            !(c.is_ascii_digit()
                || c == '.'
                || c == '_'
                || c == 'e'
                || c == 'E'
                || ((c == '-' || c == '+') && i == 0)
                || ((c == '-' || c == '+') && s[..i].ends_with(['e', 'E'])))
        })
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    let (tok, rest) = s.split_at(end);
    let clean: String = tok.chars().filter(|&c| c != '_').collect();
    if clean.contains('.') || clean.contains('e') || clean.contains('E') {
        match clean.parse::<f64>() {
            Ok(f) => Ok((Value::Float(f), rest)),
            Err(_) => err(line, format!("bad float `{tok}`")),
        }
    } else if let Some(stripped) = clean.strip_prefix('-') {
        match stripped.parse::<u64>() {
            Ok(_) => match clean.parse::<i64>() {
                Ok(n) => Ok((Value::Int(n), rest)),
                Err(_) => err(line, format!("integer `{tok}` out of range")),
            },
            Err(_) => err(line, format!("bad integer `{tok}`")),
        }
    } else {
        let clean = clean.strip_prefix('+').unwrap_or(&clean);
        match clean.parse::<u64>() {
            Ok(n) => Ok((Value::UInt(n), rest)),
            Err(_) => err(line, format!("bad integer `{tok}`")),
        }
    }
}

fn parse_array(s: &str, line: usize, depth: usize) -> Result<(Value, &str), TomlError> {
    let mut rest = &s[1..];
    let mut items = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), r));
        }
        let (v, r) = parse_value(rest, line, depth)?;
        items.push(v);
        rest = r.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.starts_with(']') {
            return err(line, "expected `,` or `]` in array");
        }
    }
}

fn parse_inline_table(s: &str, line: usize, depth: usize) -> Result<(Value, &str), TomlError> {
    let mut rest = &s[1..];
    let mut table = Value::Object(Vec::new());
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((table, r));
        }
        let Some(eq) = find_unquoted(rest, '=') else {
            return err(line, "expected `key = value` in inline table");
        };
        let keys = parse_key_path(&rest[..eq], line)?;
        if keys.len() != 1 {
            return err(line, "dotted keys are not supported in inline tables");
        }
        let (v, r) = parse_value(rest[eq + 1..].trim_start(), line, depth)?;
        insert(&mut table, keys[0].clone(), v, line)?;
        rest = r.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.starts_with('}') {
            return err(line, "expected `,` or `}` in inline table");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(v: &Value) -> &[(String, Value)] {
        match v {
            Value::Object(f) => f,
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn tables_keys_and_scalars() {
        let v = parse(
            "title = \"demo\"\n\
             count = 42\n\
             neg = -7\n\
             ratio = 1.5\n\
             on = true\n\
             [a.b]\n\
             x = 'lit'\n",
        )
        .unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(42));
        assert_eq!(*v.get("neg").unwrap(), Value::Int(-7));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(1.5));
        assert_eq!(*v.get("on").unwrap(), Value::Bool(true));
        let a = v.get("a").unwrap();
        assert_eq!(a.get("b").unwrap().get("x").unwrap().as_str(), Some("lit"));
    }

    #[test]
    fn array_of_tables_and_inline_tables() {
        let v = parse(
            "[[phase]]\n\
             name = \"one\"\n\
             at = { base_s = 7.0, scale_min = 0.05 }\n\
             [[phase]]\n\
             name = \"two\"\n\
             pin = [0, 1, 2]\n",
        )
        .unwrap();
        let phases = v.get("phase").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("one"));
        assert_eq!(
            phases[0].get("at").unwrap().get("base_s").unwrap().as_f64(),
            Some(7.0)
        );
        let pins = phases[1].get("pin").unwrap().as_array().unwrap();
        assert_eq!(pins.len(), 3);
    }

    #[test]
    fn multiline_arrays_and_comments() {
        let v = parse(
            "# a comment\n\
             threads = [\n\
               { name = \"a\", nice = -5 }, # inline comment\n\
               { name = \"b\" },\n\
             ]\n",
        )
        .unwrap();
        let t = v.get("threads").unwrap().as_array().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(*t[0].get("nice").unwrap(), Value::Int(-5));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("key = value"), "{e}");

        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("duplicate key `a`"), "{e}");

        let e = parse("[t]\nx = 1\n[t]\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("defined twice"), "{e}");

        let e = parse("x = @nope\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("bad value"), "{e}");
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize| format!("a = {}1{}\n", "[".repeat(depth), "]".repeat(depth));
        parse(&nested(MAX_DEPTH)).unwrap();
        let e = parse(&format!("x = 1\n{}", nested(MAX_DEPTH + 1))).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(
            e.msg,
            "arrays and inline tables nest deeper than 128 levels"
        );
        // Inline tables count as levels too, mixed with arrays.
        let mixed = |depth: usize| {
            let open: String = (0..depth)
                .map(|i| if i % 2 == 0 { "{b = " } else { "[" })
                .collect();
            let close: String = (0..depth)
                .rev()
                .map(|i| if i % 2 == 0 { "}" } else { "]" })
                .collect();
            format!("a = {open}1{close}\n")
        };
        parse(&mixed(MAX_DEPTH)).unwrap();
        let e = parse(&mixed(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.msg.contains("nest deeper than 128 levels"), "{e}");
        // Dotted keys and headers nest tables.
        let path = |parts: usize| vec!["k"; parts].join(".");
        parse(&format!("[{}]\n{} = 1\n", path(MAX_DEPTH), path(MAX_DEPTH))).unwrap();
        for doc in [
            format!("{} = 1\n", path(MAX_DEPTH + 1)),
            format!("[{}]\n", path(MAX_DEPTH + 1)),
            format!("[[{}]]\n", path(MAX_DEPTH + 1)),
        ] {
            let e = parse(&doc).unwrap_err();
            assert_eq!(
                (e.line, e.msg.as_str()),
                (1, "key path has more than 128 parts")
            );
        }
    }

    #[test]
    fn dotted_keys_and_hash_in_strings() {
        let v = parse("a.b = 3\ns = \"no # comment\"\n").unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("no # comment"));
    }

    #[test]
    fn header_after_array_of_tables_key() {
        // `[assert]` may add plain keys to a table whose sub-array was
        // created first — the scenario files rely on this.
        let v = parse("[[assert.counter]]\nname = \"x\"\n[assert]\nall = true\n").unwrap();
        let a = v.get("assert").unwrap();
        assert_eq!(*a.get("all").unwrap(), Value::Bool(true));
        assert_eq!(
            obj(&a.get("counter").unwrap().as_array().unwrap()[0]).len(),
            1
        );
    }
}
