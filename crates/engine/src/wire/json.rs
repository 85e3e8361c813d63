use std::fmt::Write;

use super::float::read_f64;
use crate::request::{check_cap, Extent};

/// A wire-protocol failure: parse errors and semantic errors, rendered
/// into the `error` response field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

pub(super) fn err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON value model, parser and writer (the workspace builds fully
// offline, so no serde).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(super) fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub(super) fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`WireError`] describing the first syntax problem, or the
/// first array or object nested deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(input: &str) -> Result<Json, WireError> {
    parse_document(input, &mut None)
}

/// Parses one request line as [`parse_json`] does, but stops at the first
/// value past [`MAX_REQUEST_VALUES`]: a line that no decoder cap would
/// let through is refused before its tree outgrows that of the largest
/// line they do let through. Every request front end parses with it:
/// [`parse_request_line`], [`PipelinedSession::submit_line`] and
/// `zeroconf serve`.
///
/// # Errors
///
/// The [`parse_json`] conditions, and a line of more than
/// [`MAX_REQUEST_VALUES`] values.
pub fn parse_request_json(line: &str) -> Result<Json, WireError> {
    parse_document(line, &mut Some(0))
}

/// Parses one document. `values` is `Some(values built so far)` when the
/// parse counts them against [`MAX_REQUEST_VALUES`], `None` when it does
/// not.
fn parse_document(input: &str, values: &mut Option<usize>) -> Result<Json, WireError> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0, values)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(err(format!("trailing input at byte {pos}")));
    }
    Ok(value)
}

pub(super) fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which `depth` arrays and objects enclose,
/// counting it in `values` (see [`parse_document`]).
fn parse_value(
    text: &str,
    pos: &mut usize,
    depth: usize,
    values: &mut Option<usize>,
) -> Result<Json, WireError> {
    if let Some(count) = values {
        *count += 1;
        check_cap(Extent::RequestValues(*count)).map_err(err)?;
    }
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input")),
        Some(b'{') => parse_object(text, pos, depth + 1, values, &mut claim_nothing),
        Some(b'[') => parse_array(text, pos, depth + 1, values),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => read_f64(text, pos).map(Json::Num),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, WireError> {
    if eat(bytes, pos, word) {
        Ok(value)
    } else {
        Err(err(format!("expected `{word}` at byte {pos}", pos = *pos)))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, WireError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Take the run of plain characters up to the next quote or
        // backslash in one step. Both delimiters are ASCII, so the run
        // is a `str` slice: no per-character work, no UTF-8 recheck.
        let start = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        let run = text.get(start..*pos).unwrap_or_default();
        match bytes.get(*pos) {
            None => return Err(err("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                out.push_str(run);
                return Ok(out);
            }
            Some(_) => {
                out.push_str(run);
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if *pos + 5 > bytes.len() {
                            return Err(err("truncated \\u escape"));
                        }
                        let hex = text
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u escape"))?;
                        out.push(char::from_u32(code).ok_or_else(|| err("bad \\u code point"))?);
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape sequence")),
                }
                *pos += 1;
            }
        }
    }
}

/// Parses the array at `pos`, which is nested `depth` levels deep.
fn parse_array(
    text: &str,
    pos: &mut usize,
    depth: usize,
    values: &mut Option<usize>,
) -> Result<Json, WireError> {
    check_cap(Extent::JsonDepth(depth)).map_err(err)?;
    let bytes = text.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth, values)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected `,` or `]` in array")),
        }
    }
}

/// The member hook of a plain object parse: it claims no member.
fn claim_nothing(_key: &str, _text: &str, _pos: &mut usize) -> Result<bool, WireError> {
    Ok(false)
}

/// Parses the object at `pos`, which is nested `depth` levels deep.
/// `claim` is shown each member's key with `pos` at its value; when it
/// returns `true` it has consumed the value itself and the member stays
/// out of the tree. Nested objects claim nothing.
pub(super) fn parse_object<C>(
    text: &str,
    pos: &mut usize,
    depth: usize,
    values: &mut Option<usize>,
    claim: &mut C,
) -> Result<Json, WireError>
where
    C: FnMut(&str, &str, &mut usize) -> Result<bool, WireError>,
{
    check_cap(Extent::JsonDepth(depth)).map_err(err)?;
    let bytes = text.as_bytes();
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected string key in object"));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err("expected `:` after object key"));
        }
        *pos += 1;
        if !claim(&key, text, pos)? {
            let value = parse_value(text, pos, depth, values)?;
            members.push((key, value));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err("expected `,` or `}` in object")),
        }
    }
}

/// Writes `s` as a JSON string literal, quotes included, escaping `"`,
/// `\` and control characters. The one string escaper of the protocol:
/// responses and `zeroconf-client`'s request frames both go through it.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Consumes `expected` if the input holds it at `pos`.
pub(super) fn eat(bytes: &[u8], pos: &mut usize, expected: &str) -> bool {
    let found = bytes
        .get(*pos..)
        .is_some_and(|rest| rest.starts_with(expected.as_bytes()));
    if found {
        *pos += expected.len();
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_basics() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"y","c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").and_then(Json::str), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    /// Inputs and the `{:?}` of what `parse_json` made of them when it
    /// decoded bytes and rechecked UTF-8 for every string run.
    const DECODER_PARITY: [(&str, &str); 31] = [
        (r#"0"#, r#"Ok(Num(0.0))"#),
        (r#"7"#, r#"Ok(Num(7.0))"#),
        (r#"007"#, r#"Ok(Num(7.0))"#),
        (r#"-0"#, r#"Ok(Num(-0.0))"#),
        (r#"-7"#, r#"Ok(Num(-7.0))"#),
        (r#"7.0"#, r#"Ok(Num(7.0))"#),
        (r#"7e0"#, r#"Ok(Num(7.0))"#),
        (r#"+1"#, r#"Ok(Num(1.0))"#),
        (r#"1e5"#, r#"Ok(Num(100000.0))"#),
        (r#"123456789012345"#, r#"Ok(Num(123456789012345.0))"#),
        (r#"999999999999999"#, r#"Ok(Num(999999999999999.0))"#),
        (r#"1234567890123456"#, r#"Ok(Num(1234567890123456.0))"#),
        (r#"9007199254740993"#, r#"Ok(Num(9007199254740992.0))"#),
        (
            r#"12345678901234567890"#,
            r#"Ok(Num(1.2345678901234567e19))"#,
        ),
        (
            r#"[0,7,007,-0,1e5]"#,
            r#"Ok(Arr([Num(0.0), Num(7.0), Num(7.0), Num(-0.0), Num(100000.0)]))"#,
        ),
        (
            r#"{"n":16,"r":0.5}"#,
            r#"Ok(Obj([("n", Num(16.0)), ("r", Num(0.5))]))"#,
        ),
        (
            r#"1-2"#,
            r#"Err(WireError { message: "invalid number `1-2` at byte 0" })"#,
        ),
        (
            r#"-"#,
            r#"Err(WireError { message: "invalid number `-` at byte 0" })"#,
        ),
        (
            r#"1e"#,
            r#"Err(WireError { message: "invalid number `1e` at byte 0" })"#,
        ),
        (
            r#"01.5.5"#,
            r#"Err(WireError { message: "invalid number `01.5.5` at byte 0" })"#,
        ),
        (r#""""#, r#"Ok(Str(""))"#),
        (r#""plain""#, r#"Ok(Str("plain"))"#),
        (r#""é unicode ✓""#, r#"Ok(Str("é unicode ✓"))"#),
        (
            r#""a\"b\\c\/d\n\t\r\b\f\u00e9\u0001""#,
            r#"Ok(Str("a\"b\\c/d\n\t\r\u{8}\u{c}é\u{1}"))"#,
        ),
        (r#""tail\\""#, r#"Ok(Str("tail\\"))"#),
        (
            r#""\u00""#,
            r#"Err(WireError { message: "truncated \\u escape" })"#,
        ),
        (
            r#""\ud800""#,
            r#"Err(WireError { message: "bad \\u code point" })"#,
        ),
        (
            r#""bad \x escape""#,
            r#"Err(WireError { message: "bad escape sequence" })"#,
        ),
        (
            r#""unterminated"#,
            r#"Err(WireError { message: "unterminated string" })"#,
        ),
        (
            r#""unterminated\"#,
            r#"Err(WireError { message: "bad escape sequence" })"#,
        ),
        (
            r#""\u00é""#,
            r#"Err(WireError { message: "bad \\u escape" })"#,
        ),
    ];

    #[test]
    fn decoder_keeps_its_recorded_decodes() {
        for (input, expected) in DECODER_PARITY {
            assert_eq!(format!("{:?}", parse_json(input)), expected, "{input}");
        }
    }
}
