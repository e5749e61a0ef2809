//! Recursive-descent JSON parser (RFC 8259) that writes a tape.
//!
//! Handles the full grammar: nested containers, all escape sequences
//! including `\uXXXX` surrogate pairs, and scientific-notation numbers.
//! Depth is bounded to keep adversarial inputs from blowing the stack — the
//! widget runs inside a browser tab and must never crash the page.
//!
//! Values are appended to the [`JsonValue`] tape as they are read: a
//! container's node goes first and is filled in with its child count and
//! subtree length when it closes, so no value is ever moved. String bytes
//! are copied once, into the tape's string buffer. Integers of at most 15
//! digits, the bulk of a personalization job, convert without `f64`
//! parsing, and a run of them inside an array is read in one tight loop.

use super::{to_u32, JsonValue, Node};
use crate::error::WireError;

/// Maximum container nesting depth accepted by the parser.
const MAX_DEPTH: usize = 256;

/// Longest integer literal the parser converts itself: every integer
/// below 10^15 is below 2^53, so `u64 as f64` is exact and equals what
/// `str::parse::<f64>` returns.
const MAX_EXACT_DIGITS: usize = 15;

/// Parses a complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns [`WireError::Json`] with the byte offset of the failure; text
/// longer than 4 GiB, which the tape cannot address, fails at offset 0.
pub fn parse(text: &str) -> Result<JsonValue, WireError> {
    if u32::try_from(text.len()).is_err() {
        return Err(WireError::Json {
            offset: 0,
            message: "document exceeds 4 GiB".into(),
        });
    }
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        // A job body holds about one node per 6 bytes of text. Reserving
        // one per 4 means the tape never regrows, so one allocation of a
        // steady size is all a decode asks of the heap.
        doc: JsonValue::with_capacity(text.len() / 4 + 1),
    };
    parser.skip_ws();
    parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after document"));
    }
    Ok(parser.doc)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    doc: JsonValue,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> WireError {
        WireError::Json {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        let mut pos = self.pos;
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(pos) {
            pos += 1;
        }
        self.pos = pos;
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true", Node::Bool(true)),
            Some(b'f') => self.literal("false", Node::Bool(false)),
            Some(b'n') => self.literal("null", Node::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, node: Node) -> Result<(), WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            self.doc.nodes.push(node);
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), WireError> {
        self.expect(b'{')?;
        let at = self.doc.open(Node::Object { len: 0, span: 0 });
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.doc.close(at, 0);
            return Ok(());
        }
        let mut len = 0;
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth + 1)?;
            len += 1;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.doc.close(at, len);
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), WireError> {
        self.expect(b'[')?;
        let at = self.doc.open(Node::Array { len: 0, span: 0 });
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.doc.close(at, 0);
            return Ok(());
        }
        let done = depth < MAX_DEPTH && self.integer_items();
        // Each integer read so far is one node.
        let mut len = self.doc.nodes.len() - at - 1;
        if done {
            self.doc.close(at, len);
            return Ok(());
        }
        loop {
            self.skip_ws();
            // Numbers skip the dispatch in `value`; the depth limit still
            // applies to them.
            if depth < MAX_DEPTH && matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                self.number()?;
            } else {
                self.value(depth + 1)?;
            }
            len += 1;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    self.doc.close(at, len);
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// Reads a string (a value or a key) into the tape's string buffer and
    /// appends its node.
    fn string(&mut self) -> Result<(), WireError> {
        self.expect(b'"')?;
        let start = to_u32(self.doc.strings.len());
        loop {
            let run = self.pos;
            // Fast path: run of plain bytes. It starts and stops at ASCII
            // bytes (or the end), so it is a whole `str` slice.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            self.doc.strings.push_str(&self.text[run..self.pos]);
            match self.bump() {
                Some(b'"') => {
                    self.doc.push_string_from(start);
                    return Ok(());
                }
                Some(b'\\') => {
                    let c = self.escape()?;
                    self.doc.strings.push(c);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, WireError> {
        match self.bump() {
            Some(b'"') => Ok('"'),
            Some(b'\\') => Ok('\\'),
            Some(b'/') => Ok('/'),
            Some(b'b') => Ok('\u{0008}'),
            Some(b'f') => Ok('\u{000C}'),
            Some(b'n') => Ok('\n'),
            Some(b'r') => Ok('\r'),
            Some(b't') => Ok('\t'),
            Some(b'u') => {
                let high = self.hex4()?;
                if (0xD800..0xDC00).contains(&high) {
                    // High surrogate: must be followed by \uDC00..DFFF.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
                } else if (0xDC00..0xE000).contains(&high) {
                    Err(self.err("unpaired low surrogate"))
                } else {
                    char::from_u32(high).ok_or_else(|| self.err("invalid \\u escape"))
                }
            }
            _ => Err(self.err("invalid escape sequence")),
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
        }
        Ok(value)
    }

    /// Parses a number: a pure integer of at most [`MAX_EXACT_DIGITS`]
    /// digits converts directly ([`scan_integer`]), everything else
    /// through `f64` parsing.
    #[inline(always)]
    fn number(&mut self) -> Result<(), WireError> {
        let value = match scan_integer(self.bytes, self.pos) {
            Some((value, end)) => {
                self.pos = end;
                value
            }
            None => self.float()?,
        };
        self.doc.nodes.push(Node::Number(value));
        Ok(())
    }

    /// The item-id list fast path: after an array's `[`, appends a run of
    /// integers each followed directly by `,` or, for the last, `]`, with
    /// the cursor in a register. `true` when it consumed the whole array;
    /// otherwise it stops before the first element it does not take, for
    /// the general loop to continue from.
    fn integer_items(&mut self) -> bool {
        let bytes = self.bytes;
        let mut pos = self.pos;
        while let Some((value, end)) = scan_integer(bytes, pos) {
            match bytes.get(end) {
                Some(b',') => {
                    self.doc.nodes.push(Node::Number(value));
                    pos = end + 1;
                }
                Some(b']') => {
                    self.doc.nodes.push(Node::Number(value));
                    self.pos = end + 1;
                    return true;
                }
                _ => break,
            }
        }
        self.pos = pos;
        false
    }

    /// Any number, through `str::parse::<f64>`.
    #[inline(never)]
    fn float(&mut self) -> Result<f64, WireError> {
        let bytes = self.bytes;
        let start = self.pos;
        let mut pos = start + usize::from(bytes.get(start) == Some(&b'-'));
        // Integer part: 0 | [1-9][0-9]*
        match bytes.get(pos) {
            Some(b'0') => pos += 1,
            Some(b'1'..=b'9') => pos = skip_digits(bytes, pos),
            _ => return Err(self.err_at(pos, "invalid number")),
        }
        if bytes.get(pos) == Some(&b'.') {
            pos += 1;
            let fraction = pos;
            pos = skip_digits(bytes, pos);
            if pos == fraction {
                return Err(self.err_at(pos, "digit required after decimal point"));
            }
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            let exponent = pos;
            pos = skip_digits(bytes, pos);
            if pos == exponent {
                return Err(self.err_at(pos, "digit required in exponent"));
            }
        }
        self.pos = pos;
        let text = std::str::from_utf8(&bytes[start..pos]).expect("number bytes are ascii");
        text.parse::<f64>()
            .map_err(|_| self.err("number out of range"))
    }

    fn err_at(&mut self, pos: usize, message: &str) -> WireError {
        self.pos = pos;
        self.err(message)
    }
}

/// Scans `-?(0|[1-9][0-9]*)` of at most [`MAX_EXACT_DIGITS`] digits at
/// `pos`, not followed by a fraction or an exponent: the number and the
/// position after it. `None` for anything else, including malformed input.
#[inline(always)]
fn scan_integer(bytes: &[u8], pos: usize) -> Option<(f64, usize)> {
    let negative = bytes.get(pos) == Some(&b'-');
    let start = pos + usize::from(negative);
    let mut end = start;
    let mut magnitude = 0u64;
    while let Some(&digit @ b'0'..=b'9') = bytes.get(end) {
        // Wraps only past 19 digits, which the length check rejects.
        magnitude = magnitude
            .wrapping_mul(10)
            .wrapping_add(u64::from(digit - b'0'));
        end += 1;
    }
    let digits = end - start;
    let leading_zero = digits > 1 && bytes[start] == b'0';
    if digits == 0
        || digits > MAX_EXACT_DIGITS
        || leading_zero
        || matches!(bytes.get(end), Some(b'.' | b'e' | b'E'))
    {
        return None;
    }
    // Exact (below 2^53; converting as `i64` is a single instruction);
    // negating keeps the sign of `-0`.
    let magnitude = magnitude as i64 as f64;
    Some((if negative { -magnitude } else { magnitude }, end))
}

/// The position after the run of ASCII digits starting at `pos`.
fn skip_digits(bytes: &[u8], mut pos: usize) -> usize {
    while bytes.get(pos).is_some_and(u8::is_ascii_digit) {
        pos += 1;
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert!(parse("null").unwrap().root().is_null());
        assert_eq!(parse("true").unwrap().root().as_bool(), Some(true));
        assert_eq!(parse("false").unwrap().root().as_bool(), Some(false));
        assert_eq!(parse("42").unwrap().root().as_f64(), Some(42.0));
        assert_eq!(parse("-0.5e2").unwrap().root().as_f64(), Some(-50.0));
        assert_eq!(parse(r#""hi""#).unwrap().root().as_str(), Some("hi"));
    }

    #[test]
    fn parses_containers_with_whitespace() {
        let doc = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        let v = doc.root();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_object().unwrap().len(), 0);
    }

    #[test]
    fn parses_escapes() {
        let v = parse(r#""a\nb\t\"c\\dA""#).unwrap();
        assert_eq!(v.root().as_str(), Some("a\nb\t\"c\\dA"));
    }

    #[test]
    fn parses_surrogate_pairs() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.root().as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[",
            "tru",
            "01",
            "1.",
            "1e",
            "\"",
            "\"\\q\"",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1,}",
            "1 2",
            "\"\\ud800\"",
            "nul",
            "+1",
            ".5",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn number_paths_agree_with_float_parse() {
        for text in [
            "0",
            "-0",
            "7",
            "-7",
            "999999999999999",
            "-999999999999999",
            // Not integers of at most 15 digits: these take the float parse.
            "1e3",
            "1.0",
            "-0.0",
            "1000000000000000",
            "9007199254740993",
            "12345678901234567890",
        ] {
            let parsed = parse(text).unwrap().root().as_f64().unwrap();
            let expected = text.parse::<f64>().unwrap();
            assert_eq!(parsed.to_bits(), expected.to_bits(), "{text}");
        }
        assert!(parse("-0")
            .unwrap()
            .root()
            .as_f64()
            .unwrap()
            .is_sign_negative());
    }

    #[test]
    fn integer_items_parse_exactly_and_reject_stray_bytes() {
        // Each length from 1 to 9 digits: alone, as an array's first item
        // and negated.
        for len in 1..=9u32 {
            let n = (1..=len).fold(0u64, |n, d| n * 10 + u64::from(d % 10));
            for text in [
                format!("{n}"),
                format!("[{n},0,0,0,0,0]"),
                format!("[-{n}]"),
            ] {
                let doc = parse(&text).unwrap();
                let value = doc.root();
                let got = value.at(0).unwrap_or(value).as_f64().unwrap();
                assert_eq!(got.abs(), n as f64, "{text}");
            }
        }
        let v = parse("[0,7,10,99,100,12345678,012]");
        assert!(v.is_err(), "leading zero must still be rejected");
        // Any other byte inside a digit run ends the number, and the
        // array then rejects it.
        for c in (0u8..0x80).map(char::from) {
            if c.is_ascii_digit()
                || matches!(c, ',' | ']' | '.' | 'e' | 'E' | ' ' | '\t' | '\n' | '\r')
            {
                continue;
            }
            let text = format!("[12{c}34,0,0,0,0,0]");
            assert!(parse(&text).is_err(), "{text:?}");
        }
        let v = parse("[0,7,10,99,100,12345678,1.5,2e3]").unwrap();
        let items: Vec<f64> = v
            .root()
            .as_array()
            .unwrap()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(
            items,
            [0.0, 7.0, 10.0, 99.0, 100.0, 12_345_678.0, 1.5, 2000.0]
        );
    }

    #[test]
    fn nested_arrays_keep_their_own_items() {
        let v = parse("[[1,[2,3]],[],[4],5]").unwrap();
        assert_eq!(v.to_string(), "[[1,[2,3]],[],[4],5]");
    }

    #[test]
    fn rejects_excessive_depth() {
        let deep = "[".repeat(300) + &"]".repeat(300);
        assert!(matches!(parse(&deep), Err(WireError::Json { .. })));
    }

    #[test]
    fn error_reports_offset() {
        let err = parse(r#"{"a": @}"#).unwrap_err();
        match err {
            WireError::Json { offset, .. } => assert_eq!(offset, 6),
            other => panic!("unexpected error {other:?}"),
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `s` as a JSON string literal.
        fn quoted(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }

        /// JSON text of a random document.
        fn arb_json(depth: u32) -> BoxedStrategy<String> {
            let leaf = prop_oneof![
                Just("null".to_owned()),
                any::<bool>().prop_map(|b| b.to_string()),
                (-1e9f64..1e9).prop_map(|n| n.to_string()),
                any::<i32>().prop_map(|n| n.to_string()),
                "[a-zA-Z0-9 _\\-\"\\\\\n\t\u{00e9}\u{4e16}]{0,20}".prop_map(|s| quoted(&s)),
            ];
            if depth == 0 {
                leaf.boxed()
            } else {
                prop_oneof![
                    4 => leaf,
                    1 => proptest::collection::vec(arb_json(depth - 1), 0..5)
                        .prop_map(|items| format!("[{}]", items.join(","))),
                    1 => proptest::collection::vec(
                        ("[a-z]{1,8}", arb_json(depth - 1)),
                        0..5
                    ).prop_map(|members| {
                        let members: Vec<String> = members
                            .iter()
                            .map(|(key, value)| format!("{}:{value}", quoted(key)))
                            .collect();
                        format!("{{{}}}", members.join(","))
                    }),
                ]
                .boxed()
            }
        }

        proptest! {
            #[test]
            fn serialize_parse_round_trips(source in arb_json(3)) {
                let text = parse(&source).unwrap().to_string();
                let back = parse(&text).unwrap();
                // Numbers may differ representation-wise; compare re-serialized.
                prop_assert_eq!(back.to_string(), text);
            }

            #[test]
            fn parser_never_panics(s in "\\PC{0,100}") {
                let _ = parse(&s);
            }

            #[test]
            fn integer_fast_path_matches_float_parse(
                negative in any::<bool>(),
                digits in "[1-9][0-9]{0,19}",
            ) {
                let text = if negative { format!("-{digits}") } else { digits };
                let expected = text.parse::<f64>().unwrap();
                let parsed = parse(&text).unwrap().root().as_f64().unwrap();
                prop_assert_eq!(parsed.to_bits(), expected.to_bits());
                // Inside an array and an object, followed by more input.
                let padded = parse(&format!("[{text},1,2,3,4]")).unwrap();
                let first = padded.root().at(0).unwrap().as_f64().unwrap();
                prop_assert_eq!(first.to_bits(), expected.to_bits());
                let object = parse(&format!("{{\"n\":{text},\"pad\":true}}")).unwrap();
                let n = object.root().get("n").unwrap().as_f64().unwrap();
                prop_assert_eq!(n.to_bits(), expected.to_bits());
            }
        }
    }
}
