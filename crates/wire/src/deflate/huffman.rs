//! Canonical Huffman coding for DEFLATE (RFC 1951 §3.2.2).
//!
//! The encoder side builds length-limited code lengths from symbol
//! frequencies (Huffman tree + zlib-style depth fixup), then assigns
//! canonical codes, all in stack arrays: the builder's heap holds integer
//! keys that pop in a fixed order, so the lengths are a function of the
//! frequencies alone. The decoder side turns code lengths into a two-level
//! lookup table of packed entries indexed by bit-reversed codes, matching
//! the LSB-first bit reader. The fixed code's lengths and codes are
//! compile-time constants that the encoder and the decoder share.

use super::bitio::{reverse_bits, BitReader};
use super::{DIST_CODES, LENGTH_CODES};
use crate::error::WireError;

/// Maximum code length permitted by DEFLATE.
pub const MAX_BITS: usize = 15;

/// Computes length-limited Huffman code lengths from frequencies.
///
/// Returns one length per symbol (0 = symbol unused). At most `max_bits`
/// bits per code; the result always satisfies Kraft's inequality with
/// equality when ≥ 2 symbols are used (a complete code, as DEFLATE
/// requires for dynamic blocks).
///
/// A single used symbol gets length 1 (DEFLATE requires at least one bit).
///
/// # Panics
///
/// Panics if `max_bits` cannot accommodate the alphabet
/// (`symbols > 2^max_bits`), if the alphabet is larger than DEFLATE's
/// 288 literal/length symbols, or if a frequency reaches 2^45; static
/// call sites never do.
#[must_use]
pub fn build_code_lengths(freqs: &[u64], max_bits: usize) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    fill_code_lengths(freqs, max_bits, &mut lengths);
    lengths
}

/// A heap key: lower frequency first and, among equal frequencies, the
/// node created later. That is exactly the order in which a
/// `BinaryHeap<(Reverse(freq), node)>` pops, so the tree (and the lengths)
/// are those of the classic construction.
#[inline(always)]
fn heap_key(freq: u64, node: usize) -> u64 {
    (freq << 10) | (1023 - node as u64)
}

/// Restores the min-heap property below `i`.
#[inline(always)]
fn sift_down(heap: &mut [u64], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            return;
        }
        let child = if left + 1 < heap.len() && heap[left + 1] < heap[left] {
            left + 1
        } else {
            left
        };
        if heap[i] <= heap[child] {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

/// [`build_code_lengths`] into `lengths` (one per frequency).
pub(crate) fn fill_code_lengths(freqs: &[u64], max_bits: usize, lengths: &mut [u8]) {
    let n = freqs.len();
    assert!(n <= MAX_SYMBOLS, "alphabet larger than DEFLATE's");
    assert!(n <= (1usize << max_bits), "alphabet too large for max_bits");
    debug_assert_eq!(lengths.len(), n);
    lengths.fill(0);

    // Leaf i is the i-th used symbol; internal nodes follow in creation
    // order. At most 2 · 288 − 1 < 1024 nodes fit the key's index field,
    // and frequencies below 2^45 keep every sum below 2^54.
    let mut symbols = [0u16; MAX_SYMBOLS];
    let mut heap = [0u64; MAX_SYMBOLS];
    let mut used = 0;
    for (symbol, &freq) in freqs.iter().enumerate() {
        if freq > 0 {
            assert!(freq < 1 << 45, "symbol frequency too large");
            symbols[used] = symbol as u16;
            heap[used] = heap_key(freq, used);
            used += 1;
        }
    }
    match used {
        0 => return,
        1 => {
            lengths[usize::from(symbols[0])] = 1;
            return;
        }
        _ => {}
    }

    let mut size = used;
    for i in (0..size / 2).rev() {
        sift_down(&mut heap[..size], i);
    }
    let mut children = [(0u16, 0u16); MAX_SYMBOLS];
    let mut nodes = used;
    while size > 1 {
        let a = heap[0];
        size -= 1;
        heap[0] = heap[size];
        sift_down(&mut heap[..size], 0);
        let b = heap[0];
        let node = |key: u64| 1023 - (key & 1023) as u16;
        children[nodes - used] = (node(a), node(b));
        // Replacing the top by the merged node is a pop and a push.
        heap[0] = heap_key((a >> 10) + (b >> 10), nodes);
        sift_down(&mut heap[..size], 0);
        nodes += 1;
    }

    // Depths: every node is created after its children, so walking the
    // internal nodes from the root (the last one) down reaches a node's
    // parent before the node.
    let mut depth = [0u16; 2 * MAX_SYMBOLS];
    for internal in (used..nodes).rev() {
        let (a, b) = children[internal - used];
        let d = depth[internal] + 1;
        depth[usize::from(a)] = d;
        depth[usize::from(b)] = d;
    }
    let leaves = &symbols[..used];
    for (&symbol, &d) in leaves.iter().zip(&depth) {
        lengths[usize::from(symbol)] = usize::from(d).min(max_bits) as u8;
    }

    // Clamping overlong codes to max_bits can oversubscribe the code;
    // repair Kraft directly. Sums are in units of 2^-max_bits: the code is
    // feasible iff k <= cap and complete (required for DEFLATE dynamic
    // blocks) iff k == cap.
    let cap = 1u64 << max_bits;
    let weight = |l: u8| 1u64 << (max_bits - usize::from(l));
    let mut k: u64 = leaves
        .iter()
        .map(|&s| weight(lengths[usize::from(s)]))
        .sum();

    // Phase 1 — oversubscribed: lengthen codes until k <= cap, the least
    // frequent symbol first (it costs the least compression), each until
    // it reaches max_bits. While k > cap a code shorter than max_bits
    // exists (all at max_bits gives k = used <= cap).
    if k > cap {
        let mut by_rarity = symbols;
        let by_rarity = &mut by_rarity[..used];
        by_rarity.sort_unstable_by_key(|&s| (freqs[usize::from(s)], s));
        for &s in by_rarity.iter() {
            let length = &mut lengths[usize::from(s)];
            while k > cap && usize::from(*length) < max_bits {
                k -= weight(*length) / 2; // halving the weight
                *length += 1;
            }
            if k <= cap {
                break;
            }
        }
    }

    // Phase 2 — undersubscribed: shorten codes until k == cap. All weights
    // are multiples of the smallest weight (the longest code), so the gap
    // is always absorbable by shortening a longest code; prefer the most
    // frequent symbol among them (the lowest symbol on ties).
    while k < cap {
        let gap = cap - k;
        let mut best: Option<(u8, u64, usize)> = None;
        for &s in leaves {
            let s = usize::from(s);
            let l = lengths[s];
            if l > 1 && weight(l) <= gap && best.is_none_or(|(bl, bf, _)| (l, freqs[s]) > (bl, bf))
            {
                best = Some((l, freqs[s], s));
            }
        }
        match best {
            Some((l, _, s)) => {
                k += weight(l); // doubling the weight
                lengths[s] -= 1;
            }
            None => break, // only length-1 codes remain; k == cap for n >= 2
        }
    }

    debug_assert!(kraft_ok(lengths, max_bits));
}

fn kraft_ok(lengths: &[u8], max_bits: usize) -> bool {
    let mut sum = 0u64;
    for &l in lengths {
        if l > 0 {
            sum += 1u64 << (max_bits - l as usize);
        }
    }
    sum <= 1u64 << max_bits
}

/// Canonical codes (bit-reversed, ready for the LSB-first writer) for a set
/// of code lengths: `codes[s]` is the reversed code of symbol `s`.
///
/// Follows RFC 1951 §3.2.2 exactly: codes of the same length are consecutive
/// integers in symbol order.
///
/// # Panics
///
/// Panics if a length exceeds [`MAX_BITS`].
#[must_use]
pub fn assign_codes(lengths: &[u8]) -> Vec<u16> {
    let mut codes = vec![0u16; lengths.len()];
    fill_codes(lengths, &mut codes);
    codes
}

/// [`assign_codes`] into a caller's buffer; `const` so the fixed tables
/// below are computed at compile time.
pub(crate) const fn fill_codes(lengths: &[u8], codes: &mut [u16]) {
    let mut count = [0u32; MAX_BITS + 1];
    let mut i = 0;
    while i < lengths.len() {
        assert!(
            lengths[i] as usize <= MAX_BITS,
            "code length exceeds 15 bits"
        );
        count[lengths[i] as usize] += 1;
        i += 1;
    }
    let mut next_code = first_codes(&count);
    let mut symbol = 0;
    while symbol < lengths.len() {
        let len = lengths[symbol] as usize;
        if len > 0 {
            codes[symbol] = reverse_bits(next_code[len], len as u32) as u16;
            next_code[len] += 1;
        }
        symbol += 1;
    }
}

/// The first canonical code of each length, given how many codes have
/// each length in `count[1..=15]` (RFC 1951 §3.2.2, step 2).
const fn first_codes(count: &[u32]) -> [u32; MAX_BITS + 1] {
    let mut next_code = [0u32; MAX_BITS + 1];
    let mut code = 0u32;
    let mut bits = 2;
    while bits <= MAX_BITS {
        code = (code + count[bits - 1]) << 1;
        next_code[bits] = code;
        bits += 1;
    }
    next_code
}

/// The fixed literal/length code lengths of RFC 1951 §3.2.6.
pub const FIXED_LITERAL_LENGTHS: [u8; 288] = {
    let mut lengths = [8u8; 288];
    let mut i = 144;
    while i < 288 {
        lengths[i] = match i {
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
        i += 1;
    }
    lengths
};

/// The fixed distance code lengths (all 5 bits, 30 codes + 2 reserved).
pub const FIXED_DISTANCE_LENGTHS: [u8; 32] = [5; 32];

/// The fixed literal/length codes, bit-reversed for the writer.
pub(crate) static FIXED_LITERAL_CODES: [u16; 288] = {
    let mut codes = [0u16; 288];
    fill_codes(&FIXED_LITERAL_LENGTHS, &mut codes);
    codes
};

/// The fixed distance codes, bit-reversed for the writer.
pub(crate) static FIXED_DISTANCE_CODES: [u16; 32] = {
    let mut codes = [0u16; 32];
    fill_codes(&FIXED_DISTANCE_LENGTHS, &mut codes);
    codes
};

/// Index width of a [`Decoder`]'s first-level table; longer codes continue
/// in a second-level subtable.
const PRIMARY_BITS: u32 = 10;

/// Largest alphabet a [`Decoder`] accepts (the fixed literal/length code).
const MAX_SYMBOLS: usize = 288;

// Packed table entries (`u32`):
//
// | bits   | meaning                                                   |
// |--------|-----------------------------------------------------------|
// | 0..8   | code length in bits; 0 marks an index no code reaches     |
// | 8..12  | extra bits after the code, or a subtable's index width    |
// | 12..16 | flags below                                               |
// | 16..32 | payload: symbol, literal byte, length or distance base, or |
// |        | subtable offset                                           |

/// Payload is a literal byte.
pub(crate) const LITERAL: u32 = 1 << 12;
/// The end-of-block symbol.
pub(crate) const END_OF_BLOCK: u32 = 1 << 13;
/// Payload is the offset of a subtable indexed by the bits after
/// [`PRIMARY_BITS`].
const SUBTABLE: u32 = 1 << 14;
/// A symbol the alphabet reserves (literal/length 286–287, distance 30–31).
pub(crate) const RESERVED: u32 = 1 << 15;

/// Code length of an entry (0: invalid code).
#[inline(always)]
pub(crate) fn entry_len(entry: u32) -> u32 {
    entry & 0xFF
}

/// Extra-bit count of a length or distance entry.
#[inline(always)]
pub(crate) fn entry_extra(entry: u32) -> u32 {
    (entry >> 8) & 0xF
}

/// Payload of an entry.
#[inline(always)]
pub(crate) fn entry_value(entry: u32) -> u32 {
    entry >> 16
}

/// What a [`Decoder`]'s entries carry besides the code length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alphabet {
    /// The bare symbol (code-length codes, [`Decoder::from_lengths`]).
    Symbols = 0,
    /// Literal byte, end of block, or length base plus extra-bit count.
    LiteralLength = 1,
    /// Distance base plus extra-bit count.
    Distance = 2,
}

/// Every symbol's entry minus its code length, per [`Alphabet`].
static PAYLOADS: [[u32; MAX_SYMBOLS]; 3] = {
    let mut payloads = [[RESERVED; MAX_SYMBOLS]; 3];
    let mut symbol = 0;
    while symbol < MAX_SYMBOLS {
        payloads[Alphabet::Symbols as usize][symbol] = (symbol as u32) << 16;
        payloads[Alphabet::LiteralLength as usize][symbol] = match symbol {
            0..=255 => LITERAL | ((symbol as u32) << 16),
            256 => END_OF_BLOCK,
            257..=285 => based(LENGTH_CODES[symbol - 257]),
            _ => RESERVED,
        };
        if symbol < DIST_CODES.len() {
            payloads[Alphabet::Distance as usize][symbol] = based(DIST_CODES[symbol]);
        }
        symbol += 1;
    }
    payloads
};

/// The payload of a length or distance code: base and extra-bit count.
const fn based((base, extra): (u16, u8)) -> u32 {
    ((base as u32) << 16) | ((extra as u32) << 8)
}

/// A two-level Huffman decoding table of packed entries, indexed by
/// bit-reversed codes to match the LSB-first bit reader.
///
/// Codes of up to 10 bits resolve in one lookup of the first level; a
/// longer code's first 10 bits select a subtable entry that the next bits
/// index. Literal/length and distance tables fold the length or distance
/// base and its extra-bit count into the entry, so the inflate loop reads
/// a match's whole description from two lookups.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    table: Vec<u32>,
    primary_bits: u32,
}

impl Decoder {
    /// Builds a decoder from code lengths.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Deflate`] when the lengths oversubscribe the code
    /// space (invalid dynamic header), no symbol is used, a length exceeds
    /// 15 bits, or there are more than 288 symbols.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, WireError> {
        let mut decoder = Self::default();
        decoder.rebuild(lengths, Alphabet::Symbols)?;
        Ok(decoder)
    }

    /// Refills this decoder's table for new code lengths, reusing its
    /// allocation.
    pub(crate) fn rebuild(&mut self, lengths: &[u8], alphabet: Alphabet) -> Result<(), WireError> {
        if lengths.len() > MAX_SYMBOLS {
            return Err(WireError::Deflate("huffman alphabet too large".into()));
        }
        let mut coded = [(0u16, 0u8); MAX_SYMBOLS];
        let mut used = 0;
        for (symbol, &len) in lengths.iter().enumerate() {
            if len != 0 {
                coded[used] = (symbol as u16, len);
                used += 1;
            }
        }
        self.rebuild_coded(&coded[..used], 0, alphabet)
    }

    /// [`Self::rebuild`] from only the symbols that have a code: `(symbol,
    /// length)` pairs in increasing symbol order, numbered from `first`.
    /// Dynamic headers list a few dozen of up to 316 symbols, so the
    /// table build never walks the unused ones.
    pub(crate) fn rebuild_coded(
        &mut self,
        coded: &[(u16, u8)],
        first: u16,
        alphabet: Alphabet,
    ) -> Result<(), WireError> {
        // count[16] collects the lengths DEFLATE does not allow.
        let mut count = [0u32; MAX_BITS + 2];
        for &(_, len) in coded {
            count[usize::from(len).min(MAX_BITS + 1)] += 1;
        }
        if count[MAX_BITS + 1] > 0 {
            return Err(WireError::Deflate("code length exceeds 15 bits".into()));
        }
        let Some(max) = (1..=MAX_BITS).rev().find(|&len| count[len] > 0) else {
            return Err(WireError::Deflate("huffman table with no codes".into()));
        };
        // Kraft: the code must not oversubscribe the code space. A complete
        // one fills every table slot, so the old entries need clearing only
        // for an incomplete code or where subtable widths collect.
        let kraft: u32 = (1..=MAX_BITS)
            .map(|len| count[len] << (MAX_BITS - len))
            .sum();
        if kraft > 1 << MAX_BITS {
            return Err(WireError::Deflate("oversubscribed huffman code".into()));
        }
        let first_code = first_codes(&count);
        let primary = (max as u32).min(PRIMARY_BITS);
        let primary_size = 1usize << primary;
        self.primary_bits = primary;
        if kraft < 1 << MAX_BITS || max as u32 > primary {
            self.table.clear();
        }
        self.table.truncate(primary_size);
        self.table.resize(primary_size, 0);

        if max as u32 > primary {
            // Each first-level slot that long codes share gets a subtable
            // wide enough for the longest of them; the widths collect in
            // the slots themselves until the subtables are laid out.
            let mut next = first_code;
            let mut slots = [0u16; MAX_SYMBOLS];
            let mut shared = 0;
            for &(_, len) in coded {
                let len = usize::from(len);
                let code = reverse_bits(next[len], len as u32) as usize;
                next[len] += 1;
                if len as u32 > primary {
                    let slot = code & (primary_size - 1);
                    let width = len as u32 - primary;
                    if self.table[slot] == 0 {
                        slots[shared] = slot as u16;
                        shared += 1;
                    }
                    self.table[slot] = self.table[slot].max(width);
                }
            }
            for &slot in &slots[..shared] {
                let slot = usize::from(slot);
                let width = self.table[slot];
                let offset = self.table.len() as u32;
                self.table.resize(self.table.len() + (1 << width), 0);
                self.table[slot] = SUBTABLE | (width << 8) | (offset << 16) | primary;
            }
        }

        let payloads = &PAYLOADS[alphabet as usize];
        let mut next = first_code;
        for &(symbol, len) in coded {
            let len = u32::from(len);
            let code = reverse_bits(next[len as usize], len) as usize;
            next[len as usize] += 1;
            let entry = payloads[usize::from(symbol - first)] | len;
            // `code` is bit-reversed: replicate the entry across every
            // index that shares its low bits.
            let (start, end, step) = if len <= primary {
                (code, primary_size, 1usize << len)
            } else {
                let pointer = self.table[code & (primary_size - 1)];
                let base = entry_value(pointer) as usize;
                let sub = code >> primary;
                (
                    base + sub,
                    base + (1 << entry_extra(pointer)),
                    1 << (len - primary),
                )
            };
            let mut index = start;
            while index < end {
                self.table[index] = entry;
                index += step;
            }
        }
        Ok(())
    }

    /// The entry for the code at the bottom of `bits` (the reader's
    /// buffer; bits past the end of input read as zero).
    #[inline(always)]
    pub(crate) fn entry(&self, bits: u64) -> u32 {
        let mask = (1u64 << self.primary_bits) - 1;
        let entry = self.table[(bits & mask) as usize];
        if entry & SUBTABLE == 0 {
            return entry;
        }
        let sub = (bits >> self.primary_bits) as usize & ((1 << entry_extra(entry)) - 1);
        self.table[entry_value(entry) as usize + sub]
    }

    /// Decodes one symbol from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Deflate`] on invalid codes or truncated input.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, WireError> {
        reader.refill();
        let entry = self.entry(reader.peek_word());
        if entry_len(entry) == 0 {
            return Err(WireError::Deflate("invalid huffman code".into()));
        }
        if !reader.consume(entry_len(entry)) {
            return Err(WireError::Deflate("truncated huffman code".into()));
        }
        Ok(entry_value(entry) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::bitio::BitWriter;

    #[test]
    fn single_symbol_gets_one_bit() {
        let mut freqs = vec![0u64; 10];
        freqs[4] = 100;
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert_eq!(lengths[4], 1);
        assert!(lengths.iter().enumerate().all(|(i, &l)| i == 4 || l == 0));
    }

    #[test]
    fn empty_frequencies_yield_no_codes() {
        let lengths = build_code_lengths(&[0, 0, 0], MAX_BITS);
        assert!(lengths.iter().all(|&l| l == 0));
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let freqs = vec![100u64, 1, 1, 1];
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert!(lengths[0] <= lengths[1]);
        assert!(lengths[0] <= lengths[3]);
    }

    #[test]
    fn length_limit_is_respected_on_skewed_input() {
        // Fibonacci-like frequencies force deep Huffman trees.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert!(lengths.iter().all(|&l| l as usize <= MAX_BITS));
        // Kraft equality: complete code.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_BITS - l as usize))
            .sum();
        assert_eq!(kraft, 1u64 << MAX_BITS);
    }

    #[test]
    fn canonical_codes_match_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) ->
        // codes 010,011,100,101,110,00,1110,1111 (before reversal).
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = assign_codes(&lengths);
        let expected = [0b010u32, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(
                u32::from(codes[i]),
                reverse_bits(e, u32::from(lengths[i])),
                "symbol {i}"
            );
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let freqs = vec![5u64, 20, 1, 7, 0, 13];
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        let codes = assign_codes(&lengths);
        let decoder = Decoder::from_lengths(&lengths).unwrap();

        let symbols = [1u16, 0, 5, 3, 1, 1, 2, 5, 0];
        let mut w = BitWriter::new();
        for &s in &symbols {
            w.write_bits(u32::from(codes[s as usize]), u32::from(lengths[s as usize]));
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(decoder.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn decoder_rejects_oversubscribed() {
        // Three symbols of length 1 oversubscribe.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn decoder_rejects_empty() {
        assert!(Decoder::from_lengths(&[0, 0]).is_err());
    }

    #[test]
    fn fixed_tables_have_correct_shape() {
        let lit = FIXED_LITERAL_LENGTHS;
        assert_eq!(lit[0], 8);
        assert_eq!(lit[143], 8);
        assert_eq!(lit[144], 9);
        assert_eq!(lit[255], 9);
        assert_eq!(lit[256], 7);
        assert_eq!(lit[279], 7);
        assert_eq!(lit[280], 8);
        assert!(FIXED_DISTANCE_LENGTHS.iter().all(|&l| l == 5));
        // Both must form valid decoders.
        Decoder::from_lengths(&lit).unwrap();
        Decoder::from_lengths(&FIXED_DISTANCE_LENGTHS).unwrap();
        // The compile-time codes are the canonical ones.
        assert_eq!(FIXED_LITERAL_CODES.to_vec(), assign_codes(&lit));
        assert_eq!(
            FIXED_DISTANCE_CODES.to_vec(),
            assign_codes(&FIXED_DISTANCE_LENGTHS)
        );
    }

    #[test]
    fn long_codes_decode_through_subtables() {
        // Lengths 1..=15 plus a second 15: a complete code whose longest
        // codes sit four levels below the first-level table.
        let mut lengths: Vec<u8> = (1..=15).collect();
        lengths.push(15);
        let codes = assign_codes(&lengths);
        let decoder = Decoder::from_lengths(&lengths).unwrap();
        let symbols: Vec<u16> = (0..16u16).rev().chain(0..16).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            w.write_bits(u32::from(codes[s as usize]), u32::from(lengths[s as usize]));
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(decoder.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn incomplete_code_rejects_unused_codes() {
        // One 2-bit code: every other 2-bit pattern decodes to nothing.
        let decoder = Decoder::from_lengths(&[0, 2]).unwrap();
        let mut r = BitReader::new(&[0b11]);
        assert!(decoder.decode(&mut r).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn lengths_satisfy_kraft(freqs in proptest::collection::vec(0u64..1000, 1..64)) {
                let lengths = build_code_lengths(&freqs, MAX_BITS);
                let kraft: u64 = lengths
                    .iter()
                    .filter(|&&l| l > 0)
                    .map(|&l| 1u64 << (MAX_BITS - l as usize))
                    .sum();
                prop_assert!(kraft <= 1u64 << MAX_BITS);
                let used = freqs.iter().filter(|&&f| f > 0).count();
                if used >= 2 {
                    prop_assert_eq!(kraft, 1u64 << MAX_BITS); // complete code
                }
            }

            #[test]
            fn random_symbol_stream_round_trips(
                freqs in proptest::collection::vec(0u64..50, 2..40),
                picks in proptest::collection::vec(any::<usize>(), 1..200),
            ) {
                let used: Vec<usize> =
                    (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
                prop_assume!(used.len() >= 2);
                let lengths = build_code_lengths(&freqs, MAX_BITS);
                let codes = assign_codes(&lengths);
                let decoder = Decoder::from_lengths(&lengths).unwrap();

                let symbols: Vec<u16> =
                    picks.iter().map(|&p| used[p % used.len()] as u16).collect();
                let mut w = BitWriter::new();
                for &s in &symbols {
                    w.write_bits(
                        u32::from(codes[s as usize]),
                        u32::from(lengths[s as usize]),
                    );
                }
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                for &s in &symbols {
                    prop_assert_eq!(decoder.decode(&mut r).unwrap(), s);
                }
            }
        }
    }
}
