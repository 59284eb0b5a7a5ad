//! A minimal JSON value with an ordered-key writer and parser.
//!
//! The build environment is offline (no serde), so machine-readable
//! reports are emitted through this hand-rolled writer. Two properties
//! matter for stable, diffable schemas:
//!
//! * **Key order is insertion order** — objects are backed by a
//!   `Vec<(String, Json)>`, so a report renders its fields in the order
//!   the code added them, every run, on every platform.
//! * **No NaN/Inf leakage** — JSON has no encoding for non-finite
//!   numbers; [`Json::f64`] maps them to `null` instead of emitting
//!   text that `jq`/`python` would reject.
//!
//! The parser, [`parse`], is on the serving path as well: it decodes
//! every `flatwalk-serve` request, every result-store entry header,
//! every event line `flatwalk-client` reads and every trace line
//! `flatwalk-trace` reads. Two properties keep any one line cheap,
//! whoever sent it:
//!
//! * **Linear time** — a string is copied run by run between escapes,
//!   so each byte of a string is searched once and UTF-8-validated
//!   once.
//! * **Bounded nesting** — arrays and objects nest at most 128 levels
//!   deep, so a deeply nested line is a [`ParseError`], not a stack
//!   overflow. The deepest documents the repository writes, the
//!   `--json` reports, nest at most 8 levels (`numa_rivals`).

use std::fmt::Write as _;

/// A JSON value. Construct objects with [`Json::obj`] and extend them
/// with [`Json::push`]; numbers via [`Json::f64`]/`From` impls.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (u64 counters dominate this workload's
    /// reports; kept exact rather than rounded through f64).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite float (use [`Json::f64`], which filters non-finite).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Object(Vec::new())
    }

    /// A float value; NaN and ±Inf become `null` (JSON cannot encode
    /// them, and a leaked `NaN` token breaks every downstream parser).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Float(v)
        } else {
            Json::Null
        }
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("push on non-object Json: {other:?}"),
        }
        self
    }

    /// Looks up a key in an object (first match; `None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a u64, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Serializes into `out` (compact, deterministic).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // `{v:?}` round-trips f64 exactly and always carries
                    // a decimal point or exponent, keeping floats
                    // distinguishable from integers after re-parsing.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact, deterministic serialization; `to_string()` comes via
/// `ToString`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::f64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
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

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document in time linear in its length.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, trailing garbage, or
/// arrays and objects nested more than 128 levels deep.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

/// Deepest nesting of arrays and objects [`parse`] accepts. It bounds
/// the parser's recursion far below what a thread's stack holds.
const MAX_DEPTH: usize = 128;

fn err(offset: usize, message: &'static str) -> ParseError {
    ParseError { offset, message }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8, message: &'static str) -> Result<(), ParseError> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, message))
    }
}

/// `depth` counts the arrays and objects enclosing this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(*pos, "nesting too deep")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':'")?;
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next delimiter in one slice. Both
        // delimiters are ASCII, so the run starts and ends on char
        // boundaries of the `&str` input, and each byte is validated
        // once: the parse stays linear in the input.
        let end = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |n| *pos + n);
        let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| err(*pos, "invalid UTF-8"))?;
        out.push_str(run);
        *pos = end;
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash: decode one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are not produced by our writer;
                        // map unpaired ones to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if text.is_empty() || text == "-" {
        return Err(err(start, "expected a value"));
    }
    if !float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::f64)
        .map_err(|_| err(start, "bad number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_insertion_order() {
        let mut o = Json::obj();
        o.push("zebra", 1u64).push("apple", 2u64).push("mid", 3u64);
        assert_eq!(o.to_string(), r#"{"zebra":1,"apple":2,"mid":3}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = Json::obj();
        o.push("nan", f64::NAN)
            .push("inf", f64::INFINITY)
            .push("ninf", f64::NEG_INFINITY)
            .push("ok", 1.5f64);
        let s = o.to_string();
        assert_eq!(s, r#"{"nan":null,"inf":null,"ninf":null,"ok":1.5}"#);
        assert!(!s.contains("NaN") && !s.contains("Infinity"));
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(j.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn round_trips_composite_values() {
        let mut inner = Json::obj();
        inner
            .push("pi", 3.25f64)
            .push("n", u64::MAX)
            .push("neg", -7i64);
        let mut o = Json::obj();
        o.push("name", "walk✓")
            .push("flags", Json::Array(vec![Json::Bool(true), Json::Null]))
            .push("inner", inner);
        let parsed = parse(&o.to_string()).unwrap();
        assert_eq!(parsed, o);
        // And the re-rendered text is byte-identical (stable schema).
        assert_eq!(parsed.to_string(), o.to_string());
    }

    #[test]
    fn parses_whitespace_and_rejects_garbage() {
        let v = parse(" { \"a\" : [ 1 , 2.5 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(parse("{}x").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn float_rendering_round_trips_exactly() {
        for v in [0.1f64, 1e-12, 123456.789, 1.0] {
            let s = Json::f64(v).to_string();
            match parse(&s).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), v.to_bits(), "{s}"),
                other => panic!("expected float from {s}, got {other:?}"),
            }
        }
    }

    /// SplitMix64: the seeded stream behind the generated cases below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A char from ASCII, 2-, 3- or 4-byte UTF-8, the raw control
    /// characters, or the two string delimiters.
    fn random_char(state: &mut u64) -> char {
        let r = splitmix(state);
        let pick = |lo: u64, hi: u64| lo + (r >> 8) % (hi - lo + 1);
        let code = match r % 6 {
            0 => pick(0x20, 0x7e),
            1 => pick(0x80, 0x7ff),
            2 => pick(0x800, 0xffff),
            3 => pick(0x1_0000, 0x10_ffff),
            4 => pick(0x00, 0x1f),
            _ => [u64::from(b'"'), u64::from(b'\\')][(r >> 8) as usize % 2],
        };
        // The 3-byte range holds the surrogates, which are not chars.
        char::from_u32(code as u32).unwrap_or('\u{e000}')
    }

    #[test]
    fn generated_strings_round_trip() {
        let mut state = 14;
        for case in 0..2000 {
            let len = splitmix(&mut state) % 24;
            let mut s: String = (0..len).map(|_| random_char(&mut state)).collect();
            // Escapes first, last and back to back, whatever was drawn.
            match case % 4 {
                0 => s.insert(0, '"'),
                1 => s.push('\\'),
                2 => {
                    let mid = s
                        .char_indices()
                        .nth(len as usize / 2)
                        .map_or(s.len(), |(i, _)| i);
                    s.insert_str(mid, "\\\"\n\u{1}\t");
                }
                _ => {}
            }
            let mut o = Json::obj();
            o.push(&s, Json::Array(vec![Json::Str(s.clone()), Json::Null]));
            let text = o.to_string();
            assert_eq!(parse(&text), Ok(o), "case {case}: {text:?}");
        }
    }

    #[test]
    fn parses_every_escape_and_rejects_bad_ones() {
        let v = parse(r#""\"\\\/\n\r\t\b\fé✓\ud800x""#).unwrap();
        assert_eq!(v, Json::Str("\"\\/\n\r\t\u{8}\u{c}é✓\u{fffd}x".into()));
        for (text, offset, message) in [
            (r#""abc"#, 4, "unterminated string"),
            (r#""a\"#, 3, "bad escape"),
            (r#""a\x""#, 3, "bad escape"),
            (r#""a\u12x""#, 3, "bad \\u escape"),
            (r#""a\u12"#, 3, "truncated \\u escape"),
            (r#"{"k✓":"v"x}"#, 11, "expected ',' or '}'"),
        ] {
            assert_eq!(parse(text), Err(err(offset, message)), "{text}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"k\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for (deep, offset) in [
            (arrays(MAX_DEPTH + 1), MAX_DEPTH),
            (objects(MAX_DEPTH + 1), 5 * MAX_DEPTH),
            // Far deeper than any thread's stack could recurse.
            ("[".repeat(1_000_000), MAX_DEPTH),
        ] {
            assert_eq!(parse(&deep), Err(err(offset, "nesting too deep")));
        }
    }

    #[test]
    fn large_inputs_parse_in_linear_time() {
        let unit = "walk✓ \"hit\"\n";
        let long = Json::Str(unit.repeat((4 << 20) / unit.len() + 1));
        let many = Json::Array((0..100_000).map(|i| Json::Str(format!("c{i}"))).collect());
        let texts = [long.to_string(), many.to_string()];
        // Parse on another thread so a quadratic parser fails the
        // bound instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || {
            let _ = tx.send(texts.map(|text| parse(&text)));
        });
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("4 MiB and 100 000 strings parsed within 2 s");
        parser.join().expect("parser thread");
        assert_eq!(parsed, [Ok(long), Ok(many)]);
    }

    #[test]
    fn accessors() {
        let mut o = Json::obj();
        o.push("n", 3u64);
        assert_eq!(o.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(o.get("missing"), None);
        assert_eq!(Json::Int(5).as_u64(), Some(5));
        assert_eq!(Json::Int(-5).as_u64(), None);
    }
}
