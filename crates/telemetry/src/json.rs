//! A minimal JSON reader/writer for the run-log format.
//!
//! The run-log sink writes one JSON object per line; the `summarize` CLI and
//! the integration tests read them back. The workspace is offline and
//! dependency-free, so this module implements just enough of RFC 8259 for
//! those artifacts: objects, arrays, strings (with `\uXXXX` escapes),
//! numbers, booleans and null. It is a strict parser — trailing garbage and
//! malformed literals are errors — because every producer is in this crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (keys are sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if it is a non-negative integer an
    /// `f64` carries exactly, i.e. at most 2^53: `2.5`, `-1` and `1e300`
    /// are `None`, never a rounded or clamped value.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // lint: allow(float-eq) fract()==0.0 is the integrality test
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error,
/// including the byte offset.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes: Vec<char> = input.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], ' ' | '\t' | '\n' | '\r') {
        *pos += 1;
    }
}

fn expect_char(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{c}` at offset {pos}", pos = *pos))
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => parse_object(b, pos),
        Some('[') => parse_array(b, pos),
        Some('"') => parse_string(b, pos).map(Json::Str),
        Some('t') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some('f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some('n') => parse_literal(b, pos, "null", Json::Null),
        Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(b, pos),
        Some(c) => Err(format!("unexpected `{c}` at offset {pos}", pos = *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(b: &[char], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    for c in lit.chars() {
        expect_char(b, pos, c)?;
    }
    Ok(value)
}

fn parse_number(b: &[char], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && (b[*pos].is_ascii_digit() || "+-.eE".contains(b[*pos])) {
        *pos += 1;
    }
    let text: String = b[start..*pos].iter().collect();
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}` at offset {start}: {e}"))
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, String> {
    expect_char(b, pos, '"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(out),
            '\\' => {
                let esc = b
                    .get(*pos)
                    .copied()
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{0008}'),
                    'f' => out.push('\u{000C}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        if *pos + 4 > b.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex: String = b[*pos..*pos + 4].iter().collect();
                        *pos += 4;
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|e| format!("bad \\u escape `{hex}`: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("unknown escape `\\{other}`")),
                }
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(b: &[char], pos: &mut usize) -> Result<Json, String> {
    expect_char(b, pos, '[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(',') => {
                *pos += 1;
            }
            Some(']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[char], pos: &mut usize) -> Result<Json, String> {
    expect_char(b, pos, '{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect_char(b, pos, ':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(',') => {
                *pos += 1;
            }
            Some('}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _unused: std::fmt::Result = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON number to `out`. Non-finite values (which JSON cannot
/// represent) are written as `null`.
pub fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _unused: std::fmt::Result = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"t":"span","ms":1.5,"tags":["a","b"],"ok":true,"none":null,"n":-2e3}"#;
        let v = parse(doc).expect("document parses");
        assert_eq!(v.get("t").and_then(Json::as_str), Some("span"));
        assert_eq!(v.get("ms").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-2000.0));
        assert_eq!(
            v.get("tags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn escapes_roundtrip() {
        let mut line = String::from("{\"s\":");
        push_escaped(&mut line, "a\"b\\c\nd\te\u{1}");
        line.push('}');
        let v = parse(&line).expect("escaped string parses");
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("a\"b\\c\nd\te\u{1}")
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut out = String::new();
        push_num(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out2 = String::new();
        push_num(&mut out2, 2.5);
        assert_eq!(out2, "2.5");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("tru").is_err());
    }

    #[test]
    fn parses_empty_containers() {
        assert_eq!(
            parse("{}").expect("empty object"),
            Json::Obj(BTreeMap::new())
        );
        assert_eq!(parse("[]").expect("empty array"), Json::Arr(Vec::new()));
    }
}
