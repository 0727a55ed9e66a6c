//! A minimal JSON value model, writer, and parser — just enough for the
//! store envelope and the wire protocol, with two properties the
//! standard text round trip cannot give us for free:
//!
//! - **u64 fidelity**: integers are carried as [`Json::U64`]/[`Json::I64`]
//!   and never pass through `f64`, so a 64-bit fingerprint or an
//!   `f64::to_bits` payload survives encode→decode bit-exactly;
//! - **no surprises on floats**: non-finite `f64`s serialize as `null`
//!   (JSON has no spelling for them), and anything that must be
//!   bit-exact is stored as its `to_bits()` integer instead.
//!
//! The figure binaries' hand-rolled JSON writers funnel through
//! [`Json`] too (via `piranha::observe::json`), so there is exactly one
//! escaping/formatting implementation in the workspace.
//!
//! # Examples
//!
//! ```
//! use piranha_serve::json::Json;
//! let v = Json::obj(vec![
//!     ("name".into(), Json::str("p8")),
//!     ("fingerprint".into(), Json::U64(u64::MAX)),
//! ]);
//! let text = v.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("fingerprint").and_then(Json::as_u64), Some(u64::MAX));
//! ```

use std::fmt;

/// A JSON value. Numbers keep their parsed width: an unsigned integer
/// is [`Json::U64`], a negative integer [`Json::I64`], everything else
/// [`Json::F64`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (fits `u64`).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value (convenience over `Json::Str(s.into())`).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(String, Json)>) -> Json {
        Json::Obj(fields)
    }

    /// An array value.
    pub fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`: a `U64`, or a non-negative `I64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `i64` (a `U64` must fit).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(n) => Some(*n),
            Json::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Any numeric value as `f64` (integers convert; precision may drop
    /// past 2^53 — use the integer accessors for bit-exact payloads).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parse one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected). Time is linear in the length of `text`, and
    /// arrays and objects may nest at most [`MAX_DEPTH`] deep, so no
    /// input can make the parse quadratic or overflow the stack.
    ///
    /// # Errors
    ///
    /// Returns a one-line description with the byte offset of the first
    /// problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::I64(n) => write!(f, "{n}"),
            Json::F64(x) => {
                if !x.is_finite() {
                    // JSON cannot spell NaN/inf; bit-exact floats travel
                    // as to_bits() integers instead.
                    return f.write_str("null");
                }
                let s = format!("{x}");
                f.write_str(&s)?;
                if !s.contains(['.', 'e', 'E']) {
                    f.write_str(".0")?;
                }
                Ok(())
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write `s` as a JSON string literal (quotes included). Runs of
/// characters that need no escape are written as one slice; every
/// escaped character is ASCII, so the runs split on char boundaries.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[plain..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        plain = i + 1;
    }
    f.write_str(&s[plain..])?;
    f.write_str("\"")
}

/// Escape `s` into a standalone JSON string literal. Shared helper for
/// callers assembling JSON text outside the [`Json`] tree.
pub fn escape(s: &str) -> String {
    Json::Str(s.to_string()).to_string()
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Store envelopes nest 5 deep and wire messages 3; the bound keeps the
/// recursive parser's stack use small for any input.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The document; `bytes` is the same text viewed as bytes.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Enter one array or object. Errors leave the whole parse, so
    /// only the success paths need [`Parser::leave`].
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.leave();
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.leave();
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.leave();
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.leave();
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next delimiter as one
            // slice. The text is valid UTF-8 and both delimiters are
            // ASCII, so the run starts and ends on char boundaries.
            let start = self.pos;
            let Some(len) = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".into());
            };
            out.push_str(&self.text[start..start + len]);
            self.pos = start + len + 1;
            if self.bytes[start + len] == b'"' {
                return Ok(out);
            }
            // A backslash: one escape sequence.
            let Some(e) = self.peek() else {
                return Err("unterminated escape".into());
            };
            self.pos += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: expect \uXXXX low half.
                        if self.peek() != Some(b'\\') {
                            return Err("lone high surrogate".into());
                        }
                        self.pos += 1;
                        if self.peek() != Some(b'u') {
                            return Err("lone high surrogate".into());
                        }
                        self.pos += 1;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("bad low surrogate".into());
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or_else(|| "bad unicode escape".to_string())?);
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        // Exactly four hex digits (`from_str_radix` alone would also
        // take a sign). Checked as bytes first: `end` may fall inside a
        // multi-byte character.
        if !self.bytes[self.pos..end].iter().all(u8::is_ascii_hexdigit) {
            return Err("bad \\u escape".into());
        }
        let digits = &self.text[self.pos..end];
        self.pos = end;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_extreme_integers() {
        for n in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let text = Json::U64(n).to_string();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n), "{n}");
        }
        let text = Json::I64(i64::MIN).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_i64(), Some(i64::MIN));
    }

    #[test]
    fn round_trips_strings_with_escapes() {
        for s in ["", "plain", "q\"b\\s\nnl\ttab", "unicode Δπ→", "\u{0001}"] {
            let text = Json::str(s).to_string();
            assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,-2,3.5,null,true],"b":{"c":"d"}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_i64(), Some(-2));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert!(a[3].is_null());
        assert_eq!(a[4].as_bool(), Some(true));
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(Json::as_str),
            Some("d")
        );
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap().as_str(), Some("Aé😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn control_characters_escape_as_before() {
        // Stored envelopes and wire lines depend on these exact bytes.
        let s = "a\"b\\c\nd\re\tf\u{0}\u{1f}\u{7f}Δ😀";
        assert_eq!(
            Json::str(s).to_string(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000\\u001f\u{7f}Δ😀\""
        );
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(1 << 16)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(
            Json::parse(&at_limit).is_ok(),
            "{MAX_DEPTH} deep is accepted"
        );
        let past = format!("[{at_limit}]");
        assert!(Json::parse(&past).is_err(), "one more level is not");
        // Closed siblings do not count towards the depth.
        let siblings = format!("[{}[]]", "[],".repeat(4 * MAX_DEPTH));
        assert!(Json::parse(&siblings).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic scan needs tens of seconds for this document even
        // in a release build; a linear one needs milliseconds in a
        // debug build. The 1 s bound leaves a margin of over 20x on
        // either side.
        let body: String = "plain ascii, Δπ→😀 and \\\" escapes "
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let text = format!("{{\"s\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let v = Json::parse(&text).expect("parses");
        let took = start.elapsed();
        let s = v.get("s").and_then(Json::as_str).unwrap();
        assert_eq!(s.len(), body.len() - body.matches('\\').count());
        assert!(
            took < std::time::Duration::from_secs(1),
            "1 MiB string took {took:?}"
        );
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u41""#,
            r#""\u00g1""#,
            "\"\\u00é\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn floats_write_valid_json() {
        assert_eq!(Json::F64(2.0).to_string(), "2.0", "keeps float-ness");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
        let x = 0.1 + 0.2;
        let text = Json::F64(x).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(x));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj(vec![("z".into(), Json::U64(1)), ("a".into(), Json::U64(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }
}
