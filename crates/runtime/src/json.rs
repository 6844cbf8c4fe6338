//! Strict, dependency-free JSON: the one writer the reports are rendered
//! through and the one reader that checks and parses them.
//!
//! The workspace builds offline, with no serde. [`quote`] is the one
//! string escape; [`Members`] closes an object's members or an array's
//! items inline between two bracket strings or as a two-space-indented
//! block, and the bracket text is the only layout choice, so the
//! committed reports keep their exact bytes. [`parse`] is the one grammar
//! walker (RFC 8259, no trailing commas or garbage): it builds a [`Json`]
//! tree, unescaping each string in the walk that validates it, rejects
//! duplicate keys and lone surrogates, caps nesting at [`MAX_DEPTH`] so no
//! input can overflow the stack, and reports the byte offset of the first
//! violation; [`validate`] is `parse` with the tree dropped.

use std::fmt::{Display, Write as _};

/// Quotes `s` (user input, e.g. a custom accelerator name) as a JSON
/// string: `"` and `\` backslash-escaped, control characters as `\u00xx`,
/// the rest verbatim. No raw newline survives, which is what lets
/// [`Members::block`] re-indent a member line by line.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An object's members (`"key": value`) or an array's items, each already
/// rendered, in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Members(Vec<String>);

impl Members {
    /// Appends the member `"key": value`; `value` is rendered JSON (a
    /// number, a [`quote`]d string, or a closed list).
    pub fn member(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.0.push(format!("{}: {value}", quote(key)));
        self
    }

    /// Appends `value` as it is: an array item, or a run of members
    /// closed between empty brackets so they share one line of a block.
    pub fn item(&mut self, value: impl Display) -> &mut Self {
        self.0.push(value.to_string());
        self
    }

    /// Closes the list on one line: `open`, the members separated by
    /// `, `, `close`.
    pub fn inline(&self, open: &str, close: &str) -> String {
        format!("{open}{}{close}", self.0.join(", "))
    }

    /// Closes the list as a block: `open`, one member a line separated by
    /// `,` and indented two spaces (every line of a multi-line member, so
    /// a nested block moves in by its depth), then `close` on a line of
    /// its own.
    pub fn block(&self, open: &str, close: &str) -> String {
        let indented = |m: &String| format!("\n  {}", m.replace('\n', "\n  "));
        let lines: Vec<String> = self.0.iter().map(indented).collect();
        format!("{open}{}\n{close}", lines.join(","))
    }
}

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
    /// Any number (integers are exact below 2^53, far beyond any
    /// report's counters; [`Json::as_u64`] refuses the rest).
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

    /// The number as a non-negative integer: `None` on non-numbers,
    /// negatives, non-integers, and at or above 2^53, where the parsed
    /// `f64` may no longer be the integer that was written
    /// (`9007199254740993` reads as `…992`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
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
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after the top-level value"));
    }
    Ok(value)
}

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level, so an unbounded document (200 000 `[`s in a result file
/// handed to `accfg-benchmark compare`, the repository benchmark's
/// reader of files it did not write) would overflow the stack and abort
/// the process; the reports nest 4 deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {}", self.pos, what)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
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
                self.text[start..self.pos]
                    .parse::<f64>()
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

    /// Parses one string, unescaping it in the walk that validates it.
    fn parse_string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the longest run of plain bytes as one chunk: it stops
            // only at ASCII bytes, so it ends on a character boundary
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape(start)?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash. `\uXXXX` escapes are decoded
    /// with surrogate pairs combined; a lone surrogate is an error at
    /// `string_at`, the opening quote of the string that holds it.
    fn escape(&mut self, string_at: usize) -> Result<char, String> {
        let simple = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                let pair_follows = self.text.as_bytes()[self.pos..].starts_with(b"\\u");
                if (0xD800..0xDC00).contains(&code) && pair_follows {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // a surrogate left unpaired is the one code with no char
                return char::from_u32(code).ok_or_else(|| {
                    format!("invalid JSON at byte {string_at}: unpaired surrogate escape")
                });
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(simple)
    }

    /// Reads exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        (0..4).try_fold(0, |code, _| {
            let digit = self.peek().and_then(|c| char::from(c).to_digit(16));
            let digit = digit.ok_or_else(|| self.err("expected 4 hex digits after \\u"))?;
            self.pos += 1;
            Ok(code * 16 + digit)
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(mixed.get("cutoff").unwrap(), &Json::Null);
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
        // a surrogate pair decodes to the one character it encodes
        assert_eq!(
            parse(r#""\u0041\ud83d\uDE00\/""#).unwrap(),
            Json::Str("A\u{1F600}/".into())
        );
        for lone in [r#""\uD800 lone""#, r#""\uDC00""#, r#""\uD800\u0041""#] {
            let err = parse(lone).unwrap_err();
            assert!(err.contains("byte 0: unpaired surrogate"), "{err}");
        }
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
        // an integer the f64 cannot hold is refused, never rounded: 2^53
        // + 1 reads as 2^53, and 2^64 saturated to u64::MAX
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn quote_escapes_exactly_quotes_backslashes_and_controls() {
        assert_eq!(
            quote("a\"b\\c\nd\u{1f}/\u{2028}\u{1F600}"),
            "\"a\\\"b\\\\c\\u000ad\\u001f/\u{2028}\u{1F600}\""
        );
    }

    /// `parse(&quote(s))` gives back `s`.
    fn round_trips(s: &str) {
        assert_eq!(parse(&quote(s)), Ok(Json::Str(s.to_string())), "{s:?}");
    }

    #[test]
    fn the_reader_reads_back_what_the_writer_quotes() {
        for c in (0u8..0x20)
            .map(char::from)
            .chain(['"', '\\', '/', '\u{2028}', '\u{1F600}'])
        {
            round_trips(&c.to_string());
            round_trips(&format!("a{c}b{c}{c}"));
        }
        round_trips("");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn quoted_strings_parse_back_to_themselves(
            s in "[\u{0}-\u{1f}\"\\\\/a-z\u{7f}\u{e9}\u{2028}\u{1F600}]{0,40}",
            t in ".{0,40}",
        ) {
            round_trips(&s);
            round_trips(&t);
        }
    }

    #[test]
    fn blocks_indent_every_line_of_a_nested_member() {
        let mut inner = Members::default();
        inner.member("a", 1).member("b", "[]");
        let mut outer = Members::default();
        outer
            .member("x", inner.block("{", "}"))
            .item(Members::default().member("c", true).inline("", ""))
            .member("empty", Members::default().block("[", "]"))
            .member("y", Members::default().item(2).item(3).inline("[ ", " ]"));
        let text = outer.block("{", "}");
        assert_eq!(
            text,
            "{\n  \"x\": {\n    \"a\": 1,\n    \"b\": []\n  },\n  \"c\": true,\n  \
             \"empty\": [\n  ],\n  \"y\": [ 2, 3 ]\n}"
        );
        validate(&text).unwrap();
    }
}
