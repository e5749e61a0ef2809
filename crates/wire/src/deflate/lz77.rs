//! LZ77 tokenization with hash-chain matching (the zlib approach).
//!
//! Produces the literal/match token stream that the Huffman stage encodes.
//! Window 32 KiB, matches 3..=258 bytes. The matcher follows zlib's
//! structure: a 3-byte hash chains positions; [`Effort`] trades chain depth,
//! lazy evaluation and hash-insert density for speed, with the fast preset
//! tuned for on-the-fly compression of dynamic responses.

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

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let h =
        (u32::from(data[pos]) << 16) ^ (u32::from(data[pos + 1]) << 8) ^ u32::from(data[pos + 2]);
    ((h.wrapping_mul(2_654_435_761)) >> (32 - HASH_BITS)) as usize & (HASH_SIZE - 1)
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

thread_local! {
    /// Each thread's hash-head table, all zeros between calls, so that
    /// compressing a small input (a job's dynamic prefix) does not
    /// allocate and zero 128 KiB first.
    static HEAD: RefCell<Vec<u32>> = RefCell::new(vec![0u32; HASH_SIZE]);
}

/// A borrowed head table that is returned to all zeros when dropped (also
/// on unwind), so the next call starts from the state a fresh table has
/// and emits the same tokens.
struct ZeroOnDrop<'a> {
    head: &'a mut [u32],
    data: &'a [u8],
}

impl Drop for ZeroOnDrop<'_> {
    fn drop(&mut self) {
        // Small inputs touched at most one slot per position: clear just
        // those. Past a few thousand positions one fill is cheaper.
        if self.data.len() < HASH_SIZE / 8 {
            for pos in 0..=self.data.len() - MIN_MATCH {
                self.head[hash3(self.data, pos)] = 0;
            }
        } else {
            self.head.fill(0);
        }
    }
}

struct Matcher<'a> {
    head: &'a mut [u32],
    /// Chain links, indexed by position modulo the window; only as long as
    /// the input when that is shorter than the window. Every slot is
    /// written by `insert` before a chain walk can read it.
    prev: Vec<u32>,
    effort: Effort,
}

impl<'a> Matcher<'a> {
    fn new(head: &'a mut [u32], n: usize, effort: Effort) -> Self {
        Self {
            head,
            prev: vec![0u32; n.min(WINDOW_SIZE)],
            effort,
        }
    }

    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize) {
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            self.prev[pos % WINDOW_SIZE] = self.head[h];
            self.head[h] = pos as u32 + 1;
        }
    }

    #[inline]
    fn best_match(&self, data: &[u8], pos: usize) -> Option<(usize, usize)> {
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut candidate = self.head[hash3(data, pos)];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut chain = self.effort.max_chain;
        while candidate != 0 && chain > 0 {
            let cand = (candidate - 1) as usize;
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
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    }
}

/// Tokenizes `data` into literals and back-references.
///
/// The hash-head table is kept per thread and cleared after each call, so
/// the token stream depends only on `data` and `effort`, never on earlier
/// calls.
///
/// ```
/// use hyrec_wire::deflate::lz77::{tokenize, Effort, Token};
/// let tokens = tokenize(b"abcabcabcabc", Effort::DEFAULT);
/// assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
/// ```
#[must_use]
pub fn tokenize(data: &[u8], effort: Effort) -> Vec<Token> {
    let n = data.len();
    if n < MIN_MATCH + 1 {
        return data.iter().map(|&b| Token::Literal(b)).collect();
    }
    HEAD.with(|cell| match cell.try_borrow_mut() {
        Ok(mut head) => {
            let table = ZeroOnDrop {
                head: &mut head[..],
                data,
            };
            tokenize_with(data, effort, table.head)
        }
        // Unreachable in practice (tokenizing does not re-enter); a
        // private table keeps the output identical anyway.
        Err(_) => tokenize_with(data, effort, &mut vec![0u32; HASH_SIZE]),
    })
}

/// The matching loop over a zeroed head table.
fn tokenize_with(data: &[u8], effort: Effort, head: &mut [u32]) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 4 + 16);
    let mut matcher = Matcher::new(head, n, effort);

    let mut pos = 0usize;
    while pos < n {
        match matcher.best_match(data, pos) {
            None => {
                tokens.push(Token::Literal(data[pos]));
                matcher.insert(data, pos);
                pos += 1;
            }
            Some((mut len, mut dist)) => {
                matcher.insert(data, pos);
                if effort.lazy && pos + 1 < n {
                    // One-step lazy: if the next position matches strictly
                    // longer, emit a literal and let it win.
                    if let Some((lazy_len, _)) = matcher.best_match(data, pos + 1) {
                        if lazy_len > len {
                            tokens.push(Token::Literal(data[pos]));
                            pos += 1;
                            // Reuse the lazy result next iteration via the
                            // normal path (hash state already consistent).
                            continue;
                        }
                    }
                }
                // Clamp pathological overlaps near the window edge.
                if dist > WINDOW_SIZE {
                    dist = WINDOW_SIZE;
                }
                if len > MAX_MATCH {
                    len = MAX_MATCH;
                }
                tokens.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                if effort.dense_insert {
                    for p in pos + 1..pos + len {
                        matcher.insert(data, p);
                    }
                } else {
                    // Sparse insertion: just the match end, so runs still
                    // chain reasonably.
                    let tail = pos + len - 1;
                    matcher.insert(data, tail);
                }
                pos += len;
            }
        }
    }
    tokens
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
    fn head_table_is_all_zeros_after_every_call() {
        let text: Vec<u8> = (0..9000u32)
            .flat_map(|i| format!("{},", i * 37 % 1009).into_bytes())
            .collect();
        // Both reset paths: inputs below and above the clear-all cutoff.
        for len in [
            4,
            5,
            64,
            580,
            HASH_SIZE / 8 - 1,
            HASH_SIZE / 8,
            20_000,
            text.len(),
        ] {
            for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
                let _ = tokenize(&text[..len], effort);
                HEAD.with(|cell| {
                    let head = cell.borrow();
                    assert!(head.iter().all(|&slot| slot == 0), "len {len}");
                });
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
