//! A minimal JSON value with an ordered-key writer and parser.
//!
//! The build environment is offline (no serde), so machine-readable
//! reports are emitted through this hand-rolled writer. Two properties
//! matter for stable, diffable schemas:
//!
//! * **Key order is insertion order** — objects are backed by a
//!   `Vec<(Key, Json)>`, so a report renders its fields in the order
//!   the code added them, every run, on every platform. A [`Key`] of
//!   at most [`Key::INLINE`] bytes is stored in place and a longer one
//!   is boxed. Every key of a served `cell` event is short enough; of
//!   the `--json` reports' keys only the `bench.cell_wall.*` ones are
//!   not.
//! * **No NaN/Inf leakage** — JSON has no encoding for non-finite
//!   numbers; [`Json::f64`] maps them to `null` instead of emitting
//!   text that `jq`/`python` would reject.
//!
//! The parser, [`parse`], is on the serving path as well: it decodes
//! every `flatwalk-serve` request, every result-store entry header,
//! every event line `flatwalk-client` reads and every trace line
//! `flatwalk-trace` reads. It allocates once per array, object, string
//! value and boxed key, and nothing per inline key: items and members
//! collect on two scratch stacks, and each container is allocated at
//! its final length when it closes. Two properties keep any one line
//! cheap, whoever sent it:
//!
//! * **Linear time** — each byte is scanned once. A string is sliced
//!   from the `&str` input between its ASCII delimiters, so it needs no
//!   second UTF-8 validation; escapes decode into one reused buffer.
//!   Integers are accumulated while their digits are scanned.
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
    Object(Vec<(Key, Json)>),
}

/// An object key: stored in place up to [`Key::INLINE`] bytes, boxed
/// beyond.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Inline { len: u8, bytes: [u8; Key::INLINE] },
    Boxed(Box<str>),
}

impl Key {
    /// The longest key stored without a heap allocation. It keeps a
    /// key as small as a `String`, so an object member is no larger
    /// than with `String` keys.
    pub const INLINE: usize = 22;

    /// The key's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("an inline key holds a whole str"),
            KeyRepr::Boxed(text) => text,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            KeyRepr::Boxed(text) => text.as_bytes(),
        }
    }
}

impl From<&str> for Key {
    fn from(text: &str) -> Key {
        if text.len() > Key::INLINE {
            return Key(KeyRepr::Boxed(text.into()));
        }
        let mut bytes = [0; Key::INLINE];
        bytes[..text.len()].copy_from_slice(text.as_bytes());
        Key(KeyRepr::Inline {
            len: text.len() as u8,
            bytes,
        })
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
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
            Json::Object(fields) => fields.push((Key::from(key), value.into())),
            other => panic!("push on non-object Json: {other:?}"),
        }
        self
    }

    /// Looks up a key in an object (first match; `None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k.as_bytes() == key.as_bytes())
                .map(|(_, v)| v),
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
                    write_escaped(out, k.as_str());
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
    let mut parser = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        items: Vec::new(),
        members: Vec::new(),
        unescaped: String::new(),
    };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(err(parser.pos, "trailing characters"));
    }
    Ok(value)
}

/// Deepest nesting of arrays and objects [`parse`] accepts. It bounds
/// the parser's recursion far below what a thread's stack holds.
const MAX_DEPTH: usize = 128;

fn err(offset: usize, message: &'static str) -> ParseError {
    ParseError { offset, message }
}

/// One parse: the input, the cursor, and the scratch space every
/// container and escaped string of the document reuses.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Items of the arrays being parsed, innermost array's last.
    items: Vec<Json>,
    /// Members of the objects being parsed, innermost object's last.
    members: Vec<(Key, Json)>,
    /// The decoded text of the last string that held escapes.
    unescaped: String,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8, message: &'static str) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(self.pos, message))
        }
    }

    /// `depth` counts the arrays and objects enclosing this value.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(err(self.pos, "unexpected end of input")),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(self.pos, "nesting too deep")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.to_owned())),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &'static str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(err(self.pos, "invalid literal"))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1;
        let base = self.items.len();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(Vec::new()));
        }
        loop {
            let item = self.value(depth + 1)?;
            self.items.push(item);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(self.items.drain(base..).collect()));
                }
                _ => return Err(err(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1;
        let base = self.members.len();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = Key::from(self.string()?);
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            let value = self.value(depth + 1)?;
            self.members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(self.members.drain(base..).collect()));
                }
                _ => return Err(err(self.pos, "expected ',' or '}'")),
            }
        }
    }

    /// Advances the cursor to the next `"` or `\` (or the end of the
    /// input). Both are ASCII, so the text passed over starts and ends
    /// on char boundaries of the input.
    fn skip_run(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
    }

    /// Parses a string. Text without escapes is a slice of the input;
    /// text with escapes is decoded into the reused buffer.
    fn string(&mut self) -> Result<&str, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let start = self.pos;
        self.skip_run();
        if self.bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(&self.text[start..self.pos - 1]);
        }
        self.unescaped.clear();
        self.unescaped.push_str(&self.text[start..self.pos]);
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(err(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.unescaped);
                }
                Some(_) => {
                    // The run stopped at a backslash: decode one escape.
                    self.pos += 1;
                    let decoded = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let at = self.pos;
                            let hex = self
                                .bytes
                                .get(at + 1..at + 5)
                                .ok_or_else(|| err(at, "truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| err(at, "bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(at, "bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(err(self.pos, "bad escape")),
                    };
                    self.unescaped.push(decoded);
                    self.pos += 1;
                    let start = self.pos;
                    self.skip_run();
                    self.unescaped.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        // The digits' value while it fits a u64; `str::parse` takes
        // floats and integers out of range.
        let mut magnitude = Some(0u64);
        let mut float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(c - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if self.pos == start + usize::from(negative) {
            return Err(err(start, "expected a value"));
        }
        match magnitude {
            Some(v) if !float && !negative => return Ok(Json::UInt(v)),
            Some(v) if !float && v <= 1 << 63 => return Ok(Json::Int((v as i64).wrapping_neg())),
            _ => {}
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::f64)
            .map_err(|_| err(start, "bad number"))
    }
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
        // Containers that close after their siblings were parsed.
        let pair = |a: u64, b: u64| Json::Array(vec![Json::from(a), Json::from(b)]);
        let nested = vec![Json::Null, pair(5, 1577), pair(13, 5812), Json::obj()];
        let mut o = Json::obj();
        o.push("name", "walk✓")
            .push("flags", Json::Array(vec![Json::Bool(true), Json::Null]))
            .push("inner", inner)
            .push("nested", Json::Array(nested));
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
    fn keys_round_trip_on_both_sides_of_the_inline_bound() {
        let inline = "k".repeat(Key::INLINE);
        let boxed = "k".repeat(Key::INLINE + 1);
        assert!(matches!(
            Key::from(inline.as_str()).0,
            KeyRepr::Inline { .. }
        ));
        assert!(matches!(Key::from(boxed.as_str()).0, KeyRepr::Boxed(_)));
        // A 22-byte key of multi-byte chars stays inline and whole.
        let wide = "✓".repeat(7) + "a";
        assert_eq!(wide.len(), Key::INLINE);
        for key in [
            "",
            inline.as_str(),
            boxed.as_str(),
            wide.as_str(),
            "esc\"aped\\key\n",
            "nön-ASCII ✓ кл",
        ] {
            let mut o = Json::obj();
            o.push(key, 1u64);
            let text = o.to_string();
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed, o, "{key:?}");
            assert_eq!(parsed.to_string(), text);
            assert_eq!(parsed.get(key), Some(&Json::UInt(1)), "{key:?}");
        }
        // Escapes in the text decode before the key is stored.
        let parsed = parse(r#"{"a\u0062c":1,"\u00e9\u2713":2}"#).unwrap();
        assert_eq!(parsed.get("abc"), Some(&Json::UInt(1)));
        assert_eq!(parsed.get("é✓"), Some(&Json::UInt(2)));
    }

    #[test]
    fn duplicate_keys_keep_their_order_and_get_returns_the_first() {
        let text = r#"{"k":1,"other":2,"k":3}"#;
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.get("k"), Some(&Json::UInt(1)));
        assert_eq!(parsed.to_string(), text);
        let mut built = Json::obj();
        built.push("k", 1u64).push("other", 2u64).push("k", 3u64);
        assert_eq!(parsed, built);
    }

    #[test]
    fn numbers_decode_as_before() {
        for (text, value) in [
            ("0", Json::UInt(0)),
            ("-0", Json::Int(0)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("18446744073709551616", Json::Float(18446744073709551616.0)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            ("-9223372036854775809", Json::Float(-9223372036854775809.0)),
            ("007", Json::UInt(7)),
            ("2.5e3", Json::Float(2500.0)),
            ("+1", Json::Float(1.0)),
        ] {
            assert_eq!(parse(text), Ok(value), "{text}");
        }
        for (text, offset, message) in [
            ("-", 0, "expected a value"),
            ("[1,]", 3, "expected a value"),
            ("[-x]", 1, "expected a value"),
            ("1-2", 0, "bad number"),
            ("-.", 0, "bad number"),
            ("[1 2]", 3, "expected ',' or ']'"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("{1:2}", 1, "expected '\"'"),
            ("nul", 0, "invalid literal"),
        ] {
            assert_eq!(parse(text), Err(err(offset, message)), "{text}");
        }
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
