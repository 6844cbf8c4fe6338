//! A strict, dependency-free JSON syntax validator and value parser.
//!
//! The benchmark binaries hand-render their JSON reports (the workspace
//! builds offline, with no serde), which makes it easy to ship a file
//! with a trailing comma or an unescaped string that every downstream
//! consumer chokes on. [`validate`] checks a byte string against the JSON
//! grammar (RFC 8259) — objects, arrays, strings with escapes, numbers
//! without leading zeros, `true`/`false`/`null`, no trailing commas, no
//! trailing garbage — and reports the byte offset of the first violation.
//! [`parse`] is the one grammar walker: it builds a [`Json`] value tree
//! for the binaries that *consume* hand-rendered reports (`serve_bench
//! --tuned` reading `autotune`'s table), rejects duplicate keys and lone
//! surrogates, and caps nesting at [`MAX_DEPTH`] so no input can overflow
//! the stack; [`validate`] is `parse` with the tree dropped.

/// Validates that `input` is exactly one well-formed JSON value: a
/// [`parse`] whose tree is dropped, so the two can never disagree (it
/// rejects duplicate object keys and lone surrogate escapes too).
///
/// # Errors
/// Returns a message with the byte offset of the first syntax violation.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(drop)
}

/// A parsed JSON value. Object members keep their document order (the
/// hand-rendered reports are deterministic, and parsing must not lose
/// that), and duplicate keys are a parse error rather than a silent
/// last-wins.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the grammar's integers fit f64 exactly up to 2^53,
    /// far beyond any report's counters).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's members in document order (`None` on non-objects).
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The string value (`None` on non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a non-negative integer (`None` on non-numbers,
    /// negatives, and non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// `true` exactly on `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parses `input` as exactly one well-formed JSON value, built into a
/// [`Json`] tree.
///
/// # Errors
/// Returns a message with the byte offset of the first syntax violation,
/// of a duplicate object key, or of the container that would nest deeper
/// than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the top-level value"));
    }
    Ok(value)
}

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level, so an unbounded document (200 000 `[`s in a file handed to
/// `serve_bench --tuned`) would overflow the stack and abort the process;
/// the reports nest 4 deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {}", self.pos, what)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("expected 4 hex digits after \\u")),
                                }
                            }
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                self.number()?;
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("the number grammar is ASCII");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| self.err("unrepresentable number"))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one container a nesting level down, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than the limit of {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members: Vec<(String, Json)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.parse_string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(format!(
                    "invalid JSON at byte {key_at}: duplicate object key `{key}`"
                ));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// Validates a string with [`Parser::string`], then unescapes the
    /// validated interior.
    fn parse_string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.string()?;
        let interior = &self.bytes[start + 1..self.pos - 1];
        unescape(interior).map_err(|what| format!("invalid JSON at byte {start}: {what}"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // integer part: `0` alone, or a nonzero-led digit run
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

/// Unescapes a syntax-validated string interior. `\uXXXX` sequences are
/// decoded (surrogate pairs combined); lone surrogates are an error —
/// the strict stance, matching the validator's.
fn unescape(bytes: &[u8]) -> Result<String, String> {
    let mut out = String::with_capacity(bytes.len());
    let mut i = 0usize;
    let hex4 = |bytes: &[u8], at: usize| -> u32 {
        // four hex digits, guaranteed by the validator
        let text = std::str::from_utf8(&bytes[at..at + 4]).expect("hex digits are ASCII");
        u32::from_str_radix(text, 16).expect("validated hex")
    };
    while i < bytes.len() {
        if bytes[i] != b'\\' {
            // copy the longest escape-free run as one UTF-8 chunk
            let run = bytes[i..]
                .iter()
                .position(|&b| b == b'\\')
                .map_or(bytes.len(), |n| i + n);
            out.push_str(std::str::from_utf8(&bytes[i..run]).map_err(|_| "invalid UTF-8")?);
            i = run;
            continue;
        }
        i += 1;
        match bytes[i] {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let mut code = hex4(bytes, i + 1);
                i += 4;
                if (0xD800..0xDC00).contains(&code) {
                    // a high surrogate must pair with a following \uXXXX low
                    if bytes.get(i + 1) == Some(&b'\\') && bytes.get(i + 2) == Some(&b'u') {
                        let low = hex4(bytes, i + 3);
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err("unpaired surrogate escape".into());
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        i += 6;
                    } else {
                        return Err("unpaired surrogate escape".into());
                    }
                } else if (0xDC00..0xE000).contains(&code) {
                    return Err("unpaired surrogate escape".into());
                }
                out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
            }
            _ => unreachable!("escape validated by Parser::string"),
        }
        i += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+10",
            "0",
            r#""a \"quoted\" é string""#,
            r#"{ "a": [1, 2.5, -3e2], "b": { "c": null }, "d": "x" }"#,
            "  [ {\"k\": [] } , 0.125 ]\n",
        ] {
            assert!(validate(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2,]",        // trailing comma
            r#"{"a": 1,}"#,   // trailing comma
            r#"{"a" 1}"#,     // missing colon
            "{'a': 1}",       // wrong quotes
            "01",             // leading zero
            "1.",             // bare decimal point
            "1e",             // empty exponent
            "nul",            // truncated literal
            "\"unterminated", // unterminated string
            "\"bad \\x escape\"",
            "{} {}",     // trailing garbage
            "[1] extra", // trailing garbage
            "\"ctrl \u{0}char\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn errors_carry_the_byte_offset() {
        let err = validate("[1, ]").unwrap_err();
        assert!(err.contains("byte 4"), "{err}");
    }

    #[test]
    fn parses_a_report_shaped_document() {
        let doc = r#"{ "streams": { "mixed": { "p99": 1079, "cutoff": null,
                      "labels": ["a", "b"], "ratio": -2.5, "on": true } } }"#;
        let parsed = parse(doc).unwrap();
        let mixed = parsed.get("streams").and_then(|s| s.get("mixed")).unwrap();
        assert_eq!(mixed.get("p99").and_then(Json::as_u64), Some(1079));
        assert!(mixed.get("cutoff").unwrap().is_null());
        assert_eq!(
            mixed.get("labels").unwrap(),
            &Json::Arr(vec![Json::Str("a".into()), Json::Str("b".into())])
        );
        assert_eq!(mixed.get("ratio").unwrap(), &Json::Num(-2.5));
        assert_eq!(mixed.get("on").unwrap(), &Json::Bool(true));
        // members keep document order
        let keys: Vec<&str> = mixed
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["p99", "cutoff", "labels", "ratio", "on"]);
    }

    #[test]
    fn parse_unescapes_strings() {
        assert_eq!(
            parse(r#""a \"q\" \n A 😀""#).unwrap(),
            Json::Str("a \"q\" \n A \u{1F600}".into())
        );
        assert!(parse(r#""\uD800 lone""#).is_err());
    }

    #[test]
    fn parse_rejects_what_validate_rejects_plus_duplicate_keys() {
        for bad in ["", "[1, 2,]", "{'a': 1}", "01", "{} {}"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let err = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(err.contains("duplicate object key"), "{err}");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // 200 000 levels would abort the process in an unbounded
        // recursive descent; both container kinds must hit the cap
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let hostile = open.repeat(200_000);
            for err in [
                validate(&hostile).unwrap_err(),
                parse(&hostile).unwrap_err(),
            ] {
                assert!(err.contains("limit of 128"), "{err}");
                assert!(
                    err.contains(&format!("byte {}", MAX_DEPTH * open.len())),
                    "{err}"
                );
            }
            let nested = |n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
            assert!(validate(&nested(100)).is_ok() && parse(&nested(100)).is_ok());
            assert!(validate(&nested(MAX_DEPTH)).is_ok());
            assert!(validate(&nested(MAX_DEPTH + 1)).is_err());
        }
    }

    #[test]
    fn numeric_accessors_are_strict() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
        assert_eq!(parse("\"x\"").unwrap().as_str(), Some("x"));
    }
}
