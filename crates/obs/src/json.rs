//! A hand-rolled JSON writer *and* minimal reader (no serde — the
//! workspace builds offline).
//!
//! The writer produces deterministic, human-auditable JSON: fields appear
//! in insertion order, numbers are rendered minimally, and strings are
//! escaped per RFC 8259. The reader ([`parse`] → [`JsonValue`]) exists
//! for the consumers of that output — `bench diff` loads `BENCH_*.json`
//! sidecars back, and CI validates exported Chrome traces — so it favors
//! strictness and good error positions over speed.
//!
//! # Examples
//!
//! ```
//! use defender_obs::json::JsonObject;
//!
//! let mut obj = JsonObject::new();
//! obj.field_str("name", "e5");
//! obj.field_u64("pivots", 42);
//! assert_eq!(obj.finish(), r#"{"name": "e5", "pivots": 42}"#);
//! ```

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// surrounding quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as JSON: finite values as decimals, non-finite as
/// `null` (JSON has no NaN/Infinity).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // 17 significant digits round-trip every f64; trim the usual case.
        let s = format!("{v}");
        if s.parse::<f64>() == Ok(v) {
            s
        } else {
            format!("{v:.17}")
        }
    } else {
        "null".to_string()
    }
}

/// An incrementally built JSON object (`{...}`).
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
    }

    /// Appends `"key": "value"` with escaping on both sides.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut JsonObject {
        self.sep();
        self.buf
            .push_str(&format!("\"{}\": \"{}\"", escape(key), escape(value)));
        self
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut JsonObject {
        self.field_raw(key, &value.to_string())
    }

    /// Appends a float field (`null` for NaN/infinities).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut JsonObject {
        self.field_raw(key, &number(value))
    }

    /// Appends a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut JsonObject {
        self.field_raw(key, if value { "true" } else { "false" })
    }

    /// Appends a pre-rendered JSON value (object, array, literal).
    pub fn field_raw(&mut self, key: &str, value: &str) -> &mut JsonObject {
        self.sep();
        self.buf.push_str(&format!("\"{}\": {value}", escape(key)));
        self
    }

    /// Closes the object and returns its JSON text.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// An incrementally built JSON array (`[...]`).
#[derive(Clone, Debug, Default)]
pub struct JsonArray {
    buf: String,
}

impl JsonArray {
    /// An empty array.
    #[must_use]
    pub fn new() -> JsonArray {
        JsonArray::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
    }

    /// Appends an escaped string element.
    pub fn push_str(&mut self, value: &str) -> &mut JsonArray {
        self.sep();
        self.buf.push_str(&format!("\"{}\"", escape(value)));
        self
    }

    /// Appends an unsigned integer element.
    pub fn push_u64(&mut self, value: u64) -> &mut JsonArray {
        self.push_raw(&value.to_string())
    }

    /// Appends a pre-rendered JSON value.
    pub fn push_raw(&mut self, value: &str) -> &mut JsonArray {
        self.sep();
        self.buf.push_str(value);
        self
    }

    /// Closes the array and returns its JSON text.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("[{}]", self.buf)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A parsed JSON value (objects keep field order as written).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always held as `f64`; the workspace's documents
    /// never exceed 2^53 so this is lossless in practice).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match; `None` on non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered object fields, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Maximum container nesting depth [`parse`] accepts. The reader is
/// recursive-descent, so unbounded nesting would turn a hostile document
/// (`[[[[…`) into a stack overflow; 512 levels is far beyond anything the
/// workspace's writers emit while staying well inside the default thread
/// stack.
pub const MAX_DEPTH: usize = 512;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected, container nesting bounded by [`MAX_DEPTH`]).
///
/// # Errors
///
/// Returns a message with the byte offset of the first violation.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    // lint: allow(panic) the scanned range matched ASCII number bytes only
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogates are not produced by our writer; map
                        // them to U+FFFD rather than failing the parse.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next `"` or `\` in one piece. Both
                // are ASCII, so the run ends on a char boundary of the input
                // `&str`, and each byte is scanned once.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("back\\slash"), "back\\\\slash");
        assert_eq!(escape("line\nbreak\ttab\rret"), "line\\nbreak\\ttab\\rret");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("unicode: μ(G) ≤ ν"), "unicode: μ(G) ≤ ν");
    }

    #[test]
    fn numbers_render_and_nan_is_null() {
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        let tricky = 0.1 + 0.2;
        assert_eq!(
            number(tricky).parse::<f64>().unwrap(),
            tricky,
            "round-trips"
        );
    }

    #[test]
    fn object_and_array_compose() {
        let mut inner = JsonArray::new();
        inner.push_u64(1).push_raw(&number(0.5)).push_str("x");
        let mut obj = JsonObject::new();
        obj.field_str("id", "run")
            .field_bool("ok", true)
            .field_raw("xs", &inner.finish());
        assert_eq!(
            obj.finish(),
            r#"{"id": "run", "ok": true, "xs": [1, 0.5, "x"]}"#
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("-2.5e1").unwrap(), JsonValue::Number(-25.0));
        assert_eq!(
            parse(r#""a\nbA μ""#).unwrap(),
            JsonValue::String("a\nbA μ".to_string())
        );
    }

    #[test]
    fn parses_nested_containers() {
        let doc = parse(r#"{"xs": [1, {"y": "z"}], "ok": true}"#).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        let xs = doc.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].get("y").unwrap().as_str(), Some("z"));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"open",
            "{\"a\" 1}",
            "[1] extra",
            "nan",
            "01x",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        // One level under the bound parses; one level over is a clean
        // error, not a recursion crash. Arrays and objects both count.
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep_ok).is_ok(), "depth {MAX_DEPTH} is accepted");
        let deep_bad = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&deep_bad).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // A hostile prefix with no closers must also fail cheaply.
        let unclosed = "[".repeat(100_000);
        assert!(parse(&unclosed).unwrap_err().contains("nesting deeper"));
        let objects = "{\"k\":".repeat(100_000);
        assert!(parse(&objects).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn duplicate_keys_keep_both_and_get_returns_first() {
        let doc = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(doc.get("k").unwrap().as_u64(), Some(1), "first match wins");
        assert_eq!(doc.as_object().unwrap().len(), 2, "both pairs retained");
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        // Unpaired UTF-16 surrogate halves are not valid scalar values;
        // the reader substitutes U+FFFD instead of failing or panicking.
        assert_eq!(
            parse(r#""\ud800""#).unwrap().as_str(),
            Some("\u{fffd}"),
            "lone high surrogate"
        );
        assert_eq!(
            parse(r#""\udfff tail""#).unwrap().as_str(),
            Some("\u{fffd} tail"),
            "lone low surrogate"
        );
    }

    #[test]
    fn malformed_escapes_are_rejected() {
        for bad in [
            r#""\x""#,     // unknown escape letter
            r#""\u12""#,   // truncated hex
            r#""\uzzzz""#, // non-hex digits
            r#""\"#,       // backslash at end of input
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_positioned() {
        let err = parse("{\"a\": 1}  x").unwrap_err();
        assert_eq!(err, "trailing data at byte 10");
        assert!(parse("[1, 2] ,").is_err());
        assert!(parse("null null").is_err());
        // Trailing whitespace alone stays fine.
        assert!(parse("{\"a\": 1}  \n").is_ok());
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut inner = JsonArray::new();
        inner.push_u64(7).push_str("two\nlines");
        let mut obj = JsonObject::new();
        obj.field_str("name", "quo\"ted")
            .field_f64("x", 0.125)
            .field_raw("xs", &inner.finish());
        let doc = parse(&obj.finish()).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("quo\"ted"));
        assert_eq!(doc.get("x").unwrap().as_f64(), Some(0.125));
        let xs = doc.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs[1].as_str(), Some("two\nlines"));
        // A string past 1 MiB mixing ASCII, multibyte characters and
        // escapes: the reader copies unescaped runs whole, so this parses
        // in linear time and round-trips byte for byte.
        let unit = "ascii μ(G) ≤ ν \"q\" back\\slash\ttab\nline 🦀 \u{1} ";
        let big = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(big.len() >= 1 << 20);
        let mut obj = JsonObject::new();
        obj.field_str("big", &big).field_u64("after", 1);
        let doc = parse(&obj.finish()).unwrap();
        assert_eq!(doc.get("big").unwrap().as_str(), Some(big.as_str()));
        assert_eq!(doc.get("after").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn as_u64_guards_range_and_fraction() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
