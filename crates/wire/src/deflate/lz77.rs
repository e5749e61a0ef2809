//! LZ77 tokenization with hash-chain matching (the zlib approach).
//!
//! Produces the literal/match token stream that the Huffman stage encodes.
//! Window 32 KiB, matches 3..=258 bytes. The matcher follows zlib's
//! structure: a 3-byte hash chains positions; [`Effort`] trades chain depth,
//! lazy evaluation and hash-insert density for speed, with the fast preset
//! tuned for on-the-fly compression of dynamic responses.
//!
//! A call allocates nothing once its thread has compressed an input as
//! large: the hash heads, the chain links and the token buffer live in a
//! per-thread `Tables`. Positions are stored offset by a per-call base,
//! so entries an earlier call left behind read as empty without clearing
//! the 32K-entry head table; it is cleared only when the base wraps. The
//! tokenizer counts each token's Huffman symbol as it emits it, so the
//! encoder never walks the tokens to build its histogram.

use super::{dist_index, LENGTH_INDEX};
use std::cell::RefCell;

/// Minimum match length DEFLATE can encode.
pub const MIN_MATCH: usize = 3;
/// Maximum match length DEFLATE can encode.
pub const MAX_MATCH: usize = 258;
/// Maximum backward distance.
pub const WINDOW_SIZE: usize = 32 * 1024;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Match length in `3..=258`.
        len: u16,
        /// Backward distance in `1..=32768`.
        dist: u16,
    },
}

/// Match-effort knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Maximum chain positions probed per match attempt.
    pub max_chain: usize,
    /// Stop early when a match at least this long is found.
    pub good_enough: usize,
    /// Defer a match by one byte when the next position matches longer
    /// (zlib's lazy evaluation; off in the fast preset).
    pub lazy: bool,
    /// Insert hash entries for every byte inside emitted matches (better
    /// ratio, slower; off in the fast preset).
    pub dense_insert: bool,
}

impl Effort {
    /// Balanced default (zlib level ~6).
    pub const DEFAULT: Effort = Effort {
        max_chain: 128,
        good_enough: 64,
        lazy: true,
        dense_insert: true,
    };
    /// Fast, lighter compression (zlib level ~1): shallow chains, greedy,
    /// sparse insertion — for compressing responses on the fly.
    pub const FAST: Effort = Effort {
        max_chain: 8,
        good_enough: 32,
        lazy: false,
        dense_insert: false,
    };
    /// Thorough (zlib level ~9).
    pub const BEST: Effort = Effort {
        max_chain: 1024,
        good_enough: 258,
        lazy: true,
        dense_insert: true,
    };
}

impl Default for Effort {
    fn default() -> Self {
        Effort::DEFAULT
    }
}

const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// A token buffer that grew past this many tokens is released after the
/// call instead of being kept for the thread's next input.
const MAX_KEPT_TOKENS: usize = 16 * 1024;

/// The hash of the 3 bytes at `pos` (the first byte most significant),
/// read with one 4-byte load where the input has a byte to spare.
#[inline(always)]
fn hash3(data: &[u8], pos: usize) -> usize {
    let key = match data.get(pos..pos + 4) {
        Some(word) => u32::from_be_bytes(word.try_into().expect("4 bytes")) >> 8,
        None => {
            (u32::from(data[pos]) << 16)
                | (u32::from(data[pos + 1]) << 8)
                | u32::from(data[pos + 2])
        }
    };
    (key.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, up to `max`,
/// compared 8 bytes at a time.
#[inline]
fn match_length(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= max {
        let x = u64::from_le_bytes(data[a + len..a + len + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(data[b + len..b + len + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// A token packed into a `u32`: a literal is its byte (`< 256`), a match
/// is `len << 16 | dist` (`len >= 3`, so never below 256).
pub(crate) type Packed = u32;

/// Unpacks a [`Packed`] token.
#[inline]
fn unpack(token: Packed) -> Token {
    if token < 256 {
        Token::Literal(token as u8)
    } else {
        Token::Match {
            len: (token >> 16) as u16,
            dist: token as u16,
        }
    }
}

/// How often a block of the tokens uses each literal/length and distance
/// symbol, the one end-of-block symbol included.
pub(crate) struct SymbolCounts {
    /// Literal/length symbols 0..=285.
    pub(crate) lit: [u64; 286],
    /// Distance symbols 0..=29.
    pub(crate) dist: [u64; 30],
}

impl SymbolCounts {
    fn new() -> Self {
        let mut lit = [0; 286];
        lit[256] = 1;
        Self { lit, dist: [0; 30] }
    }

    #[inline(always)]
    fn literal(&mut self, tokens: &mut Vec<Packed>, byte: u8) {
        self.lit[usize::from(byte)] += 1;
        tokens.push(Packed::from(byte));
    }

    #[inline(always)]
    fn matched(&mut self, tokens: &mut Vec<Packed>, len: usize, dist: usize) {
        self.lit[257 + usize::from(LENGTH_INDEX[len])] += 1;
        self.dist[dist_index(dist)] += 1;
        tokens.push(((len as u32) << 16) | dist as u32);
    }
}

/// A thread's matcher state, reused by every call on that thread.
struct Tables {
    /// Latest position per hash, stored as `base + pos + 1`; an entry at
    /// or below the current call's `base` is empty.
    head: Box<[u32; HASH_SIZE]>,
    /// Chain links (stored like `head`), indexed by position modulo the
    /// window; grown to the largest input seen, up to the window. A call
    /// reads only the links of positions it inserted itself.
    prev: Vec<u32>,
    /// Every entry written so far is at most `base`.
    base: u32,
    /// The token buffer.
    tokens: Vec<Packed>,
}

impl Tables {
    fn new() -> Self {
        Self {
            head: vec![0; HASH_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("HASH_SIZE entries"),
            prev: Vec::new(),
            base: 0,
            tokens: Vec::new(),
        }
    }
}

thread_local! {
    static TABLES: RefCell<Tables> = RefCell::new(Tables::new());
}

/// Tokenizes `data` on this thread's tables and hands the tokens and their
/// symbol counts to `f`.
pub(crate) fn with_tokens<R>(
    data: &[u8],
    effort: Effort,
    f: impl FnOnce(&[Packed], &SymbolCounts) -> R,
) -> R {
    TABLES.with(|cell| match cell.try_borrow_mut() {
        Ok(mut tables) => {
            let counts = tokenize_into(&mut tables, data, effort);
            let result = f(&tables.tokens, &counts);
            if tables.tokens.capacity() > MAX_KEPT_TOKENS {
                tables.tokens = Vec::new();
            }
            result
        }
        // Unreachable in practice (`f` does not tokenize); private tables
        // give the same tokens.
        Err(_) => {
            let mut tables = Tables::new();
            let counts = tokenize_into(&mut tables, data, effort);
            f(&tables.tokens, &counts)
        }
    })
}

/// Tokenizes `data` into literals and back-references.
///
/// The hash tables are kept per thread, and a call never sees the entries
/// of an earlier one, so the token stream depends only on `data` and
/// `effort`.
///
/// ```
/// use hyrec_wire::deflate::lz77::{tokenize, Effort, Token};
/// let tokens = tokenize(b"abcabcabcabc", Effort::DEFAULT);
/// assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
/// ```
#[must_use]
pub fn tokenize(data: &[u8], effort: Effort) -> Vec<Token> {
    with_tokens(data, effort, |tokens, _| {
        tokens.iter().map(|&t| unpack(t)).collect()
    })
}

/// The matching loop: fills `tables.tokens` and returns the symbol counts.
fn tokenize_into(tables: &mut Tables, data: &[u8], effort: Effort) -> SymbolCounts {
    let n = data.len();
    let mut counts = SymbolCounts::new();
    let tokens = &mut tables.tokens;
    tokens.clear();
    tokens.reserve(n / 4 + 16);
    if n < MIN_MATCH + 1 {
        for &byte in data {
            counts.literal(tokens, byte);
        }
        return counts;
    }

    // Claim the stored values base + 1 ..= base + n for this call.
    if n as u64 > u64::from(u32::MAX - tables.base) {
        tables.head.fill(0);
        tables.base = 0;
    }
    let base = tables.base;
    tables.base += n as u32;
    let window = n.min(WINDOW_SIZE);
    if tables.prev.len() < window {
        tables.prev.resize(window, 0);
    }
    let mut matcher = Matcher {
        head: &mut tables.head,
        prev: &mut tables.prev[..],
        base,
        effort,
    };

    // The last position that starts a 3-byte string.
    let last = n - MIN_MATCH;
    let mut pos = 0usize;
    while pos <= last {
        let hash = hash3(data, pos);
        let found = matcher.best_match(data, pos, hash);
        matcher.insert(pos, hash);
        let Some((len, dist)) = found else {
            counts.literal(tokens, data[pos]);
            pos += 1;
            continue;
        };
        if effort.lazy && pos < last {
            // One-step lazy: if the next position matches strictly
            // longer, emit a literal and let it win on the next turn.
            let next = matcher.best_match(data, pos + 1, hash3(data, pos + 1));
            if next.is_some_and(|(lazy_len, _)| lazy_len > len) {
                counts.literal(tokens, data[pos]);
                pos += 1;
                continue;
            }
        }
        counts.matched(tokens, len, dist);
        if effort.dense_insert {
            for p in pos + 1..(pos + len).min(last + 1) {
                matcher.insert(p, hash3(data, p));
            }
        } else if pos + len - 1 <= last {
            // Sparse insertion: just the match end, so runs still chain
            // reasonably.
            let tail = pos + len - 1;
            matcher.insert(tail, hash3(data, tail));
        }
        pos += len;
    }
    for &byte in &data[pos..] {
        counts.literal(tokens, byte);
    }
    counts
}

struct Matcher<'a> {
    head: &'a mut [u32; HASH_SIZE],
    prev: &'a mut [u32],
    base: u32,
    effort: Effort,
}

impl Matcher<'_> {
    #[inline(always)]
    fn insert(&mut self, pos: usize, hash: usize) {
        self.prev[pos % WINDOW_SIZE] = self.head[hash];
        self.head[hash] = self.base + pos as u32 + 1;
    }

    #[inline(always)]
    fn best_match(&self, data: &[u8], pos: usize, hash: usize) -> Option<(usize, usize)> {
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut candidate = self.head[hash];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut chain = self.effort.max_chain;
        while candidate > self.base && chain > 0 {
            let cand = (candidate - self.base - 1) as usize;
            if cand >= pos || pos - cand > WINDOW_SIZE {
                break;
            }
            // Quick reject: a longer match must agree at the position that
            // would extend the current best.
            if data[cand + best_len] == data[pos + best_len] {
                let len = match_length(data, cand, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand;
                    if len >= self.effort.good_enough || len == max_len {
                        break;
                    }
                }
            }
            candidate = self.prev[cand % WINDOW_SIZE];
            chain -= 1;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }
}

/// Expands a token stream back into bytes (reference decoder for tests).
#[must_use]
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_input_is_all_literals() {
        let tokens = tokenize(b"ab", Effort::DEFAULT);
        assert_eq!(tokens, vec![Token::Literal(b'a'), Token::Literal(b'b')]);
    }

    #[test]
    fn repetitive_input_produces_matches() {
        let data = b"abcabcabcabcabcabc";
        for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
            let tokens = tokenize(data, effort);
            let matches = tokens
                .iter()
                .filter(|t| matches!(t, Token::Match { .. }))
                .count();
            assert!(matches >= 1);
            assert_eq!(expand(&tokens), data.to_vec());
        }
    }

    #[test]
    fn run_length_uses_overlapping_match() {
        // "aaaa..." canonically encodes as literal 'a' + match(dist=1).
        let data = vec![b'a'; 100];
        let tokens = tokenize(&data, Effort::DEFAULT);
        assert_eq!(tokens[0], Token::Literal(b'a'));
        assert!(matches!(tokens[1], Token::Match { dist: 1, .. }));
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn match_lengths_respect_bounds() {
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 7) as u8).collect();
        for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
            let tokens = tokenize(&data, effort);
            for t in &tokens {
                if let Token::Match { len, dist } = t {
                    assert!((MIN_MATCH..=MAX_MATCH).contains(&(*len as usize)));
                    assert!((1..=WINDOW_SIZE).contains(&(*dist as usize)));
                }
            }
            assert_eq!(expand(&tokens), data);
        }
    }

    #[test]
    fn empty_input() {
        assert!(tokenize(b"", Effort::DEFAULT).is_empty());
        assert!(expand(&[]).is_empty());
    }

    #[test]
    fn earlier_calls_and_base_wraps_do_not_change_tokens() {
        let text: Vec<u8> = (0..9000u32)
            .flat_map(|i| format!("{},", i * 37 % 1009).into_bytes())
            .collect();
        let lens = [4, 5, 64, 580, 20_000, text.len()];
        let fresh = |len: usize, effort: Effort| {
            let input = text[..len].to_vec();
            std::thread::spawn(move || tokenize(&input, effort))
                .join()
                .unwrap()
        };
        for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
            let expected: Vec<Vec<Token>> = lens.iter().map(|&len| fresh(len, effort)).collect();
            // Every input after every other one on this thread.
            for (&len, want) in lens.iter().zip(&expected) {
                assert_eq!(&tokenize(&text[..len], effort), want, "len {len}");
            }
            // A base about to wrap: the next large input clears the table
            // and starts again from zero.
            for (&len, want) in lens.iter().zip(&expected) {
                TABLES.with(|cell| cell.borrow_mut().base = u32::MAX - 10_000);
                assert_eq!(&tokenize(&text[..len], effort), want, "len {len} at wrap");
                assert_eq!(
                    &tokenize(&text[..len], effort),
                    want,
                    "len {len} after wrap"
                );
            }
        }
    }

    #[test]
    fn match_length_chunked_agrees_with_naive() {
        let a = b"abcdefghijklmnop_abcdefghijklmnoX";
        assert_eq!(match_length(a, 0, 17, 16), 15);
        assert_eq!(match_length(a, 0, 17, 8), 8);
        assert_eq!(match_length(b"xyz", 0, 1, 2), 0);
        let same = vec![7u8; 600];
        assert_eq!(match_length(&same, 0, 100, 258), 258);
    }

    #[test]
    fn json_like_data_round_trips_all_efforts() {
        let mut doc = String::from("{\"c\":[");
        for i in 0..400 {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("{{\"uid\":{},\"liked\":[{}]}}", i * 7, i % 50));
        }
        doc.push_str("]}");
        let data = doc.into_bytes();
        for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
            let tokens = tokenize(&data, effort);
            assert_eq!(expand(&tokens), data, "effort {effort:?}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn tokenize_expand_round_trips(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
                for effort in [Effort::FAST, Effort::DEFAULT] {
                    let tokens = tokenize(&data, effort);
                    prop_assert_eq!(expand(&tokens), data.clone());
                }
            }

            #[test]
            fn round_trips_on_compressible_text(
                words in proptest::collection::vec("[a-e]{1,6}", 0..200)
            ) {
                let data = words.join(" ").into_bytes();
                for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
                    let tokens = tokenize(&data, effort);
                    prop_assert_eq!(expand(&tokens), data.clone());
                }
            }
        }
    }
}
