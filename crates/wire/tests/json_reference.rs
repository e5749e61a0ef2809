//! Differential tests of the tape JSON document against the tree it
//! replaced.
//!
//! `reference` below is the enum tree and recursive-descent parser that
//! `hyrec_wire::json` used before the tape, with the message decoders that
//! read it. Both sides must accept and reject the same texts with the same
//! error (offset and message), read the same values, and decode the same
//! `PersonalizationJob` and `KnnUpdate` (or fail with the same schema
//! error): on arbitrary text, on byte-mutated job bodies, and on the edge
//! cases listed in `edge_cases_agree`.

use hyrec_core::{CandidateSet, Neighbor, Profile, UserId};
use hyrec_wire::json::{JsonRef, JsonValue};
use hyrec_wire::{KnnUpdate, PersonalizationJob};
use proptest::prelude::*;

mod reference {
    use hyrec_core::{CandidateSet, ItemId, Neighbor, Profile, UserId};
    use hyrec_wire::{KnnUpdate, PersonalizationJob, WireError};
    use std::sync::Arc;

    /// A parsed JSON value, one heap node per value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Tree {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Tree>),
        Object(Vec<(String, Tree)>),
    }

    impl Tree {
        fn get(&self, key: &str) -> Option<&Tree> {
            match self {
                Tree::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn as_array(&self) -> Option<&[Tree]> {
            match self {
                Tree::Array(items) => Some(items),
                _ => None,
            }
        }

        fn as_f64(&self) -> Option<f64> {
            match self {
                Tree::Number(n) => Some(*n),
                _ => None,
            }
        }

        fn as_u64(&self) -> Option<u64> {
            match self {
                Tree::Number(n) if (0.0..=9_007_199_254_740_992.0).contains(n) => {
                    let int = *n as u64;
                    (int as f64 == *n).then_some(int)
                }
                _ => None,
            }
        }
    }

    pub fn decode_job(text: &str) -> Result<PersonalizationJob, WireError> {
        job_from_tree(&parse(text)?)
    }

    pub fn decode_update(text: &str) -> Result<KnnUpdate, WireError> {
        update_from_tree(&parse(text)?)
    }

    fn job_from_tree(value: &Tree) -> Result<PersonalizationJob, WireError> {
        let uid = field_u32(value, "uid")?;
        let k = field_u32(value, "k")? as usize;
        let r = field_u32(value, "r")? as usize;
        let lease = optional_u64(value, "lease")?;
        let epoch = optional_u64(value, "epoch")?;
        let profile = parse_profile(
            value
                .get("profile")
                .ok_or_else(|| WireError::Schema("missing `profile`".into()))?,
        )?;
        let list = value
            .get("candidates")
            .and_then(Tree::as_array)
            .ok_or_else(|| WireError::Schema("missing `candidates` array".into()))?;
        let mut candidates = CandidateSet::with_capacity(list.len());
        for entry in list {
            if *entry == Tree::Null {
                continue;
            }
            let cuid = field_u32(entry, "uid")?;
            let cprofile = parse_profile(
                entry
                    .get("profile")
                    .ok_or_else(|| WireError::Schema("candidate missing `profile`".into()))?,
            )?;
            candidates.insert(UserId(cuid), cprofile);
        }
        Ok(PersonalizationJob {
            uid: UserId(uid),
            k,
            r,
            lease,
            epoch,
            profile: Arc::new(profile),
            candidates,
        })
    }

    fn update_from_tree(value: &Tree) -> Result<KnnUpdate, WireError> {
        let uid = field_u32(value, "uid")?;
        let lease = optional_u64(value, "lease")?;
        let epoch = optional_u64(value, "epoch")?;
        let list = value
            .get("neighbors")
            .and_then(Tree::as_array)
            .ok_or_else(|| WireError::Schema("missing `neighbors` array".into()))?;
        let mut neighbors = Vec::with_capacity(list.len());
        for entry in list {
            let nuid = field_u32(entry, "uid")?;
            let sim = entry
                .get("sim")
                .and_then(Tree::as_f64)
                .ok_or_else(|| WireError::Schema("neighbor missing `sim`".into()))?;
            neighbors.push(Neighbor {
                user: UserId(nuid),
                similarity: sim,
            });
        }
        Ok(KnnUpdate {
            uid: UserId(uid),
            lease,
            epoch,
            neighbors,
        })
    }

    fn optional_u64(value: &Tree, key: &str) -> Result<u64, WireError> {
        match value.get(key) {
            None => Ok(0),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| WireError::Schema(format!("invalid `{key}`"))),
        }
    }

    fn field_u32(value: &Tree, key: &str) -> Result<u32, WireError> {
        value
            .get(key)
            .and_then(as_u32)
            .ok_or_else(|| WireError::Schema(format!("missing or invalid `{key}`")))
    }

    fn as_u32(value: &Tree) -> Option<u32> {
        match value {
            Tree::Number(n) if (0.0..=f64::from(u32::MAX)).contains(n) => {
                let int = *n as u32;
                (f64::from(int) == *n).then_some(int)
            }
            _ => None,
        }
    }

    fn parse_profile(value: &Tree) -> Result<Profile, WireError> {
        let items = |key: &str| -> Result<Vec<ItemId>, WireError> {
            let list = value
                .get(key)
                .and_then(Tree::as_array)
                .ok_or_else(|| WireError::Schema(format!("profile missing `{key}`")))?;
            let mut ids = Vec::with_capacity(list.len());
            for v in list {
                let id =
                    as_u32(v).ok_or_else(|| WireError::Schema("non-integer item id".into()))?;
                ids.push(ItemId(id));
            }
            Ok(ids)
        };
        Ok(Profile::from_votes(items("liked")?, items("disliked")?))
    }

    /// Maximum container nesting depth accepted by the parser.
    const MAX_DEPTH: usize = 256;

    /// Longest integer literal the parser converts itself: every integer
    /// below 10^15 is below 2^53, so `u64 as f64` is exact and equals what
    /// `str::parse::<f64>` returns.
    const MAX_EXACT_DIGITS: usize = 15;

    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Tree, WireError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            items: Vec::new(),
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after document"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Elements of the arrays being parsed, innermost last; a finished
        /// array moves its run into an exactly sized `Vec`.
        items: Vec<Tree>,
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

        fn value(&mut self, depth: usize) -> Result<Tree, WireError> {
            if depth > MAX_DEPTH {
                return Err(self.err("maximum nesting depth exceeded"));
            }
            match self.peek() {
                Some(b'{') => self.object(depth),
                Some(b'[') => self.array(depth),
                Some(b'"') => Ok(Tree::String(self.string()?)),
                Some(b't') => self.literal("true", Tree::Bool(true)),
                Some(b'f') => self.literal("false", Tree::Bool(false)),
                Some(b'n') => self.literal("null", Tree::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn literal(&mut self, word: &str, value: Tree) -> Result<Tree, WireError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(format!("expected `{word}`")))
            }
        }

        fn object(&mut self, depth: usize) -> Result<Tree, WireError> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Tree::Object(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value(depth + 1)?;
                entries.push((key, value));
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(Tree::Object(entries)),
                    _ => return Err(self.err("expected `,` or `}` in object")),
                }
            }
        }

        fn array(&mut self, depth: usize) -> Result<Tree, WireError> {
            self.expect(b'[')?;
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Tree::Array(Vec::new()));
            }
            let mark = self.items.len();
            if depth < MAX_DEPTH && self.integer_items() {
                return Ok(Tree::Array(self.items.drain(mark..).collect()));
            }
            loop {
                self.skip_ws();
                // Numbers skip the dispatch in `value`; the depth limit still
                // applies to them.
                let item = if depth < MAX_DEPTH && matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                    self.number()?
                } else {
                    self.value(depth + 1)?
                };
                self.items.push(item);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(Tree::Array(self.items.drain(mark..).collect())),
                    _ => return Err(self.err("expected `,` or `]` in array")),
                }
            }
        }

        fn string(&mut self) -> Result<String, WireError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Fast path: run of plain bytes.
                while let Some(b) = self.peek() {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                if self.pos > start {
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                }
                match self.bump() {
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => out.push(self.escape()?),
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
        fn number(&mut self) -> Result<Tree, WireError> {
            match scan_integer(self.bytes, self.pos) {
                Some((value, end)) => {
                    self.pos = end;
                    Ok(value)
                }
                None => self.float(),
            }
        }

        /// The item-id list fast path: after an array's `[`, consumes a run of
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
                        self.items.push(value);
                        pos = end + 1;
                    }
                    Some(b']') => {
                        self.items.push(value);
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
        fn float(&mut self) -> Result<Tree, WireError> {
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
                .map(Tree::Number)
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
    fn scan_integer(bytes: &[u8], pos: usize) -> Option<(Tree, usize)> {
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
        let value = Tree::Number(if negative { -magnitude } else { magnitude });
        Some((value, end))
    }

    /// The position after the run of ASCII digits starting at `pos`.
    fn skip_digits(bytes: &[u8], mut pos: usize) -> usize {
        while bytes.get(pos).is_some_and(u8::is_ascii_digit) {
            pos += 1;
        }
        pos
    }
}

use reference::Tree;

/// Whether the tape view holds the same value as the tree. Containers are
/// compared through iteration; `at` and `get` (first key wins) must find
/// the same values that iteration yields.
fn same(value: JsonRef<'_>, tree: &Tree) -> bool {
    match tree {
        Tree::Null => value.is_null(),
        Tree::Bool(b) => value.as_bool() == Some(*b),
        Tree::Number(n) => value.as_f64().is_some_and(|m| m.to_bits() == n.to_bits()),
        Tree::String(s) => value.as_str() == Some(s.as_str()),
        Tree::Array(items) => value.as_array().is_some_and(|elements| {
            elements.len() == items.len()
                && elements.clone().zip(items).all(|(v, t)| same(v, t))
                && elements
                    .enumerate()
                    .all(|(i, v)| value.at(i).map(|a| a.to_string()) == Some(v.to_string()))
                && value.at(items.len()).is_none()
        }),
        Tree::Object(entries) => value.as_object().is_some_and(|members| {
            members.len() == entries.len()
                && members
                    .clone()
                    .zip(entries)
                    .all(|((k, v), (tk, t))| k == tk && same(v, t))
                && members.clone().all(|(k, _)| {
                    let first = members.clone().find(|&(other, _)| other == k).unwrap().1;
                    value.get(k).map(|g| g.to_string()) == Some(first.to_string())
                })
        }),
    }
}

/// Both parsers accept `text` and read the same value, or both reject it
/// with the same error.
fn assert_parses_alike(text: &str) {
    match (JsonValue::parse(text), reference::parse(text)) {
        (Ok(doc), Ok(tree)) => {
            assert!(same(doc.root(), &tree), "{text:?} reads differently");
            // Serializing is stable (non-finite numbers become `null`).
            let compact = doc.to_string();
            assert_eq!(JsonValue::parse(&compact).unwrap().to_string(), compact);
        }
        (Err(tape), Err(tree)) => assert_eq!(tape, tree, "{text:?}"),
        (tape, tree) => panic!("{text:?}: tape {tape:?}, tree {tree:?}"),
    }
}

/// As [`assert_parses_alike`], plus the same decoded job and update (or
/// the same error).
fn assert_decodes_alike(text: &str) {
    assert_parses_alike(text);
    let job = JsonValue::parse(text).and_then(|doc| PersonalizationJob::from_json(&doc));
    assert_eq!(job, reference::decode_job(text), "{text:?}");
    let update = JsonValue::parse(text).and_then(|doc| KnnUpdate::from_json(&doc));
    assert_eq!(update, reference::decode_update(text), "{text:?}");
}

fn job(uid: u32, lease: u64, candidates: &[(u32, Vec<u32>, Vec<u32>)]) -> PersonalizationJob {
    let candidates: CandidateSet = candidates
        .iter()
        .map(|(user, liked, disliked)| {
            (
                UserId(*user),
                Profile::from_votes(liked.iter().copied(), disliked.iter().copied()),
            )
        })
        .collect();
    PersonalizationJob {
        uid: UserId(uid),
        k: 10,
        r: 5,
        lease,
        epoch: lease / 2,
        profile: Profile::from_votes([uid, uid.wrapping_add(3)], [uid.wrapping_add(1)]).into(),
        candidates,
    }
}

fn update(uid: u32, lease: u64, neighbors: &[(u32, f64)]) -> KnnUpdate {
    KnnUpdate {
        uid: UserId(uid),
        lease,
        epoch: lease + 1,
        neighbors: neighbors
            .iter()
            .map(|&(user, similarity)| Neighbor {
                user: UserId(user),
                similarity,
            })
            .collect(),
    }
}

#[test]
fn edge_cases_agree() {
    let cases: &[&str] = &[
        // Duplicate keys: the first one wins, at the root and inside.
        r#"{"uid":1,"uid":2,"neighbors":[]}"#,
        r#"{"uid":1,"neighbors":[],"neighbors":[{"uid":2,"sim":0.5}]}"#,
        r#"{"uid":1,"neighbors":[{"uid":2,"uid":3,"sim":0.5,"sim":"x"}]}"#,
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[1],"liked":[2],"disliked":[]},"candidates":[]}"#,
        // Unknown keys, nested values included, are skipped whole.
        r#"{"x":{"deep":[1,[2,{"y":null}]]},"uid":1,"neighbors":[],"z":"s"}"#,
        r#"{"uid":1,"k":2,"r":3,"v":[[],{}],"profile":{"liked":[],"w":{"a":[1]},"disliked":[]},"candidates":[{"t":true,"uid":4,"profile":{"liked":[5],"disliked":[]}}]}"#,
        // `null` sentinels among the candidates; elsewhere they are errors.
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[],"disliked":[]},"candidates":[null,{"uid":4,"profile":{"liked":[5],"disliked":[6]}},null]}"#,
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[null],"disliked":[]},"candidates":[]}"#,
        r#"{"uid":1,"neighbors":[null]}"#,
        r#"{"uid":null,"neighbors":[]}"#,
        // Ids at and past `u32::MAX`, negative zero, exponents, fractions.
        r#"{"uid":4294967295,"neighbors":[{"uid":4294967295,"sim":1}]}"#,
        r#"{"uid":4294967296,"neighbors":[]}"#,
        r#"{"uid":1,"neighbors":[{"uid":4294967296,"sim":1}]}"#,
        r#"{"uid":-0,"neighbors":[{"uid":-0,"sim":-0}]}"#,
        r#"{"uid":1e3,"neighbors":[{"uid":1E3,"sim":1e-3}]}"#,
        r#"{"uid":1.5,"neighbors":[]}"#,
        r#"{"uid":1.0,"neighbors":[]}"#,
        r#"{"uid":-1,"neighbors":[]}"#,
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[4294967295,-0,1e3,0.0],"disliked":[]},"candidates":[]}"#,
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[4294967296],"disliked":[]},"candidates":[]}"#,
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[1.5],"disliked":[]},"candidates":[]}"#,
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[],"disliked":[-1]},"candidates":[]}"#,
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[[1]],"disliked":[]},"candidates":[]}"#,
        r#"{"uid":1,"k":2,"r":3,"profile":{"liked":[1,[2],3],"disliked":[]},"candidates":[]}"#,
        r#"{"uid":1,"lease":9007199254740992,"epoch":0,"neighbors":[]}"#,
        r#"{"uid":1,"lease":9007199254740993,"neighbors":[]}"#,
        r#"{"uid":1,"lease":"7","neighbors":[]}"#,
        "[0,-0,1e3,1E+3,1.5,-1.5e-7,123456789012345,1234567890123456,99999999999999999999]",
        // Escapes and surrogate pairs, in values and in keys.
        r#""a\nb\t\"c\\d\/e\bf\fg\rh\u00e9\u4e16\ud83d\ude00""#,
        r#"{"\u0075id":1,"neighbors":[]}"#,
        r#"{"uid":1,"neighbors":[],"\ud83d\ude00":"\u0000"}"#,
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud800\u0041""#,
        r#""\ud800\n""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\x""#,
        "\"tab\there\"",
        "\"é世😀\"",
        // Structure.
        "",
        " ",
        "[",
        "[1,]",
        "[,1]",
        "{\"a\"}",
        "{\"a\":1,}",
        "{1:2}",
        "[1 2]",
        "[1]x",
        " [ 1 , { \"a\" : [ ] } ] ",
        "tru",
        "nul",
        "01",
        "-",
        "1.",
        "1e",
        "+1",
        ".5",
    ];
    for text in cases {
        assert_decodes_alike(text);
    }
    // The tape decodes the first of each duplicate key.
    let doc = JsonValue::parse(cases[0]).unwrap();
    assert_eq!(KnnUpdate::from_json(&doc).unwrap().uid, UserId(1));
}

#[test]
fn nesting_limit_agrees_at_256_and_257() {
    for depth in 250..=260 {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        assert_parses_alike(&arrays);
        let with_item = "[".repeat(depth) + "1" + &"]".repeat(depth);
        assert_parses_alike(&with_item);
        let objects = "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert_parses_alike(&objects);
        let mixed = "[{\"a\":".repeat(depth / 2) + "[]" + &"}]".repeat(depth / 2);
        assert_parses_alike(&mixed);
    }
    // 257 nested arrays (root at depth 0, innermost at 256) are the most
    // that parse; an item inside the innermost one is already too deep.
    assert!(JsonValue::parse(&("[".repeat(257) + &"]".repeat(257))).is_ok());
    assert!(JsonValue::parse(&("[".repeat(258) + &"]".repeat(258))).is_err());
    assert!(JsonValue::parse(&("[".repeat(256) + "1" + &"]".repeat(256))).is_ok());
    assert!(JsonValue::parse(&("[".repeat(257) + "1" + &"]".repeat(257))).is_err());
}

#[test]
fn real_messages_decode_alike() {
    let bodies = [
        job(7, 0, &[]).to_json().to_string(),
        job(7, 42, &[(1, vec![3, 1, 2], vec![9]), (2, vec![], vec![])])
            .to_json()
            .to_string(),
        job(
            4_294_967_295,
            9,
            &(0..50)
                .map(|u| {
                    (
                        u * 7919,
                        (0..100).map(|i| u * 17 + i * 3).collect(),
                        vec![u],
                    )
                })
                .collect::<Vec<_>>(),
        )
        .to_json()
        .to_string(),
        update(3, 0, &[(8, 0.75), (9, 0.5)]).to_json().to_string(),
        update(3, 12, &[(8, 1.0 / 3.0), (4_294_967_295, 0.0)])
            .to_json()
            .to_string(),
    ];
    for text in &bodies {
        assert_decodes_alike(text);
    }
}

/// Tokens of JSON-like text: mostly valid pieces, so that random
/// sequences often parse and reach the deeper paths.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    " ",
    "\"uid\"",
    "\"neighbors\"",
    "\"sim\"",
    "\"a\"",
    "0",
    "-0",
    "7",
    "4294967296",
    "1.5",
    "1e3",
    "-2E-2",
    "true",
    "false",
    "null",
    "\"\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\n\"",
    "\"x",
];

/// The bytes edits insert: ASCII only, so every edit of an ASCII body is
/// still a `str`.
const EDIT_BYTES: &[u8] = b"[]{},:\" -.0123456789eEtrunl\\ax\t";

/// A byte edit to a message body: overwrite, insert or delete at a
/// position (taken modulo the body length).
#[derive(Debug, Clone)]
enum Edit {
    Set(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    let byte = || (0..EDIT_BYTES.len()).prop_map(|i| EDIT_BYTES[i]);
    prop_oneof![
        (any::<usize>(), byte()).prop_map(|(at, b)| Edit::Set(at, b)),
        (any::<usize>(), byte()).prop_map(|(at, b)| Edit::Insert(at, b)),
        any::<usize>().prop_map(Edit::Delete),
    ]
}

fn apply(text: &str, edits: &[Edit]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for edit in edits {
        let len = bytes.len();
        match *edit {
            Edit::Set(at, b) if len > 0 => bytes[at % len] = b,
            Edit::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Edit::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            _ => {}
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of an ASCII body")
}

fn arb_job() -> impl Strategy<Value = PersonalizationJob> {
    (
        any::<u32>().prop_map(|u| u % 1000),
        prop_oneof![Just(0u64), 1u64..100],
        proptest::collection::vec(
            (
                0u32..50,
                proptest::collection::vec(0u32..5000, 0..12),
                proptest::collection::vec(0u32..5000, 0..3),
            ),
            0..6,
        ),
    )
        .prop_map(|(uid, lease, candidates)| job(uid, lease, &candidates))
}

fn arb_update() -> impl Strategy<Value = KnnUpdate> {
    (
        0u32..1000,
        prop_oneof![Just(0u64), 1u64..100],
        proptest::collection::vec((0u32..1000, 0.0f64..1.0), 0..8),
    )
        .prop_map(|(uid, lease, neighbors)| update(uid, lease, &neighbors))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_text_parses_alike(text in "\\PC{0,80}") {
        assert_decodes_alike(&text);
    }

    #[test]
    fn token_soup_parses_alike(
        tokens in proptest::collection::vec(0..TOKENS.len(), 0..24),
    ) {
        let text: String = tokens.into_iter().map(|i| TOKENS[i]).collect();
        assert_decodes_alike(&text);
    }

    #[test]
    fn mutated_jobs_decode_alike(
        job in arb_job(),
        edits in proptest::collection::vec(edit(), 0..4),
    ) {
        let text = job.to_json().to_string();
        if edits.is_empty() {
            let doc = JsonValue::parse(&text).unwrap();
            prop_assert_eq!(&PersonalizationJob::from_json(&doc).unwrap(), &job);
        }
        assert_decodes_alike(&apply(&text, &edits));
    }

    #[test]
    fn mutated_updates_decode_alike(
        update in arb_update(),
        edits in proptest::collection::vec(edit(), 0..4),
    ) {
        let text = update.to_json().to_string();
        assert_decodes_alike(&apply(&text, &edits));
    }
}
