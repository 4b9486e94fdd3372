//! A minimal JSON value type with a parser and a writer.
//!
//! The workspace's external dependencies are vendored no-op stand-ins (see
//! `vendor/README.md`), so the wire protocol cannot lean on serde: requests
//! are parsed and responses rendered through this hand-rolled module
//! instead. The subset is full JSON with two deliberate choices:
//!
//! * objects preserve **insertion order** (they are a `Vec` of pairs, not a
//!   map), so a response renders byte-identically run after run — the
//!   property the PROTOCOL.md transcript-replay test pins;
//! * numbers are `f64` and render integers without a decimal point and
//!   everything else through Rust's shortest-round-trip formatting, so a
//!   metric value parses back to the exact same bits.

use std::fmt;

/// Deepest nesting of arrays and objects a document may have. The parser
/// recurses once per level, so without a cap a line of a few thousand `[`
/// would overflow the stack of the thread that serves requests; the cap also
/// bounds the recursion that drops a parsed value. Protocol requests nest a
/// few levels deep.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; pairs keep insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Builds a number value.
    pub fn num(v: f64) -> Self {
        JsonValue::Num(v)
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an object's pair list, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The value as an array's element list, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key in an object (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parses a JSON document (one complete value with nothing but
    /// whitespace after it).
    ///
    /// # Errors
    ///
    /// Returns a one-line description with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Renders the value into `out` with no whitespace between tokens.
    pub fn render(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(v) => out.push_str(&fmt_num(*v)),
            JsonValue::Str(s) => write_json_string(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.render(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out);
        f.write_str(&out)
    }
}

/// Formats a number the way the protocol writes it: whole numbers without a
/// decimal point, everything else via Rust's shortest-round-trip `{}`.
/// Non-finite values (which valid metrics never produce) render as `null`.
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value nested inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(format!("unexpected end of input at byte {pos}"));
    };
    match b {
        b'n' => parse_literal(bytes, pos, "null", JsonValue::Null),
        b't' => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        b'"' => parse_string(bytes, pos).map(JsonValue::Str),
        b'[' | b'{' if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'{' => parse_object(bytes, pos, depth + 1),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected character `{}` at byte {pos}",
            other as char
        )),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number bytes");
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(format!("unterminated string at byte {pos}"));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(format!("dangling escape at byte {pos}"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let code = parse_hex4(bytes, pos)?;
                        // Combine surrogate pairs; lone surrogates become the
                        // replacement character rather than failing the line.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                let combined =
                                    0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00));
                                char::from_u32(combined).unwrap_or('\u{FFFD}')
                            } else {
                                '\u{FFFD}'
                            }
                        } else {
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        };
                        out.push(c);
                    }
                    other => {
                        return Err(format!(
                            "unsupported escape `\\{}` at byte {pos}",
                            other as char
                        ))
                    }
                }
            }
            _ => {
                // Copy the full UTF-8 sequence starting at this byte.
                let seq_start = *pos - 1;
                let len = utf8_len(b);
                let end = seq_start + len;
                if end > bytes.len() {
                    return Err(format!("truncated UTF-8 sequence at byte {seq_start}"));
                }
                let s = std::str::from_utf8(&bytes[seq_start..end])
                    .map_err(|_| format!("invalid UTF-8 at byte {seq_start}"))?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err(format!("truncated \\u escape at byte {pos}"));
    }
    let text = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| format!("invalid \\u escape at byte {pos}"))?;
    let code =
        u32::from_str_radix(text, 16).map_err(|_| format!("invalid \\u escape at byte {pos}"))?;
    *pos = end;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a quoted key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_render_and_parse() {
        let value = JsonValue::Obj(vec![
            ("id".to_string(), JsonValue::num(7.0)),
            ("ok".to_string(), JsonValue::Bool(true)),
            ("nothing".to_string(), JsonValue::Null),
            (
                "nested".to_string(),
                JsonValue::Arr(vec![
                    JsonValue::str("a \"quoted\" line\n"),
                    JsonValue::num(-0.125),
                    JsonValue::Obj(vec![]),
                ]),
            ),
        ]);
        let text = value.to_string();
        assert_eq!(
            text,
            r#"{"id":7,"ok":true,"nothing":null,"nested":["a \"quoted\" line\n",-0.125,{}]}"#
        );
        assert_eq!(JsonValue::parse(&text).unwrap(), value);
    }

    #[test]
    fn floats_render_shortest_round_trip() {
        assert_eq!(fmt_num(0.1), "0.1");
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(-2.0), "-2");
        assert_eq!(fmt_num(f64::NAN), "null");
        // Bit-exactness: whatever we render parses back to the same f64.
        for v in [0.1, 1.0 / 3.0, -17.125, 1.5e300, 9.007_199_254_740_993e15] {
            let s = fmt_num(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_unicode() {
        let value = JsonValue::parse(
            " { \"k\" : [ 1 , 2.5e-1 , \"\\u0041\\u00e9\\ud83d\\ude00\" , true ] } ",
        )
        .unwrap();
        let arr = value.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(0.25));
        assert_eq!(arr[2].as_str(), Some("Aé😀"));
        assert_eq!(arr[3].as_bool(), Some(true));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for (text, needle) in [
            ("", "end of input"),
            ("{", "expected a quoted key"),
            ("{\"a\" 1}", "expected `:`"),
            ("[1 2]", "expected `,` or `]`"),
            ("\"abc", "unterminated string"),
            ("nul", "expected `null`"),
            ("{\"a\":1} trailing", "trailing content"),
            ("\"\\x\"", "unsupported escape"),
            ("1e+", "invalid number"),
        ] {
            let err = JsonValue::parse(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` -> {err}");
        }
    }

    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        assert!(JsonValue::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nested("{\"k\":", "}", MAX_DEPTH)).is_ok());
        for text in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"k\":", "}", MAX_DEPTH + 1),
            "[".repeat(100_000),
        ] {
            let err = JsonValue::parse(&text).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = JsonValue::parse(r#"{"n":1.5,"s":"x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("k"), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
    }
}
