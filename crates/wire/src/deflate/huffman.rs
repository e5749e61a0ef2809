//! Canonical Huffman coding for DEFLATE (RFC 1951 §3.2.2).
//!
//! The encoder side builds length-limited code lengths from symbol
//! frequencies (Huffman tree + zlib-style depth fixup), then assigns
//! canonical codes, all in stack arrays: the builder's heap holds integer
//! keys that pop in a fixed order, so the lengths are a function of the
//! frequencies alone. The decoder side turns code lengths into a two-level
//! lookup table of packed entries indexed by bit-reversed codes, matching
//! the LSB-first bit reader, from symbols already grouped by length: each
//! code is written once and the table doubles between lengths, so a build
//! costs one copy of the first level plus a write per code. The fixed
//! code's lengths and codes are compile-time constants that the encoder
//! and the decoder share.

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

/// First-level slots of the widest [`Decoder`] table.
const PRIMARY_SIZE: usize = 1 << PRIMARY_BITS;

/// Entries a [`Decoder`] holds: the widest first level plus the most
/// subtable entries a code of up to [`MAX_SYMBOLS`] symbols needs (zlib's
/// `ENOUGH`, bounded here for incomplete codes too). Codes longer than
/// [`PRIMARY_BITS`] are consecutive in canonical order, leave no gaps and
/// never get shorter along it, so a subtable whose codes all have one
/// length holds exactly as many entries as codes. Only a subtable that
/// spans a change of length (at most four among 11–15 bits) or ends an
/// incomplete code differs, and it holds at most 2^5 entries.
const TABLE_SIZE: usize = PRIMARY_SIZE + MAX_SYMBOLS + 5 * 32;

/// A code's symbols grouped by length: `groups[len]` lists the symbols
/// whose code is `len` bits long, in symbol order, which is the order of
/// their canonical codes (`groups[0]` is ignored).
pub(crate) type Groups<'a> = [&'a [u16]; MAX_BITS + 1];

/// Where a table build stands after its first level: the next canonical
/// code (MSB-first) and the unused code space, in units of that length's
/// codes.
#[derive(Debug, Clone, Copy)]
struct Canonical {
    code: u32,
    left: i32,
}

fn oversubscribed() -> WireError {
    WireError::Deflate("oversubscribed huffman code".into())
}

/// Fills `table[..1 << width]` with the codes of up to `width` bits by
/// doubling: before each length's codes go in, the table built so far is
/// copied onto the next `2^(len - 1)` slots, so each code is written once,
/// at the index of its bit-reversed code, and every shorter code already
/// repeats at each index that shares its bits. The table starts as the
/// invalid entry 0 at one bit less than the shortest code, and doubling
/// spreads it to every index an incomplete code leaves unused, so no slot
/// needs clearing first.
///
/// The Kraft check runs per length before that length's codes are
/// written, so no code of an oversubscribed set is ever placed.
fn fill_doubling(
    table: &mut [u32],
    width: usize,
    groups: &Groups<'_>,
    entry: impl Fn(u16, usize) -> u32,
) -> Result<Canonical, WireError> {
    let shortest = (1..=width)
        .find(|&len| !groups[len].is_empty())
        .unwrap_or(width);
    table[..1 << (shortest - 1)].fill(0);
    let mut at = Canonical {
        code: 0,
        left: 1 << (shortest - 1),
    };
    for (len, group) in groups.iter().enumerate().take(width + 1).skip(shortest) {
        let half = 1 << (len - 1);
        table.copy_within(..half, half);
        at.left = 2 * at.left - group.len() as i32;
        if at.left < 0 {
            return Err(oversubscribed());
        }
        at.code <<= 1;
        for &symbol in *group {
            table[reverse_bits(at.code, len as u32) as usize] = entry(symbol, len);
            at.code += 1;
        }
    }
    Ok(at)
}

/// Lists the symbols `0..lengths.len()` by code length, then symbol,
/// into `sorted` (a counting sort) and returns the groups.
fn group<'a>(lengths: &[u8], sorted: &'a mut [u16]) -> Groups<'a> {
    let mut end = [0usize; MAX_BITS + 1];
    for &len in lengths {
        end[usize::from(len)] += 1;
    }
    // `end[len]` becomes where the group starts, then, after the scatter,
    // where it ends.
    let mut total = 0;
    for slot in &mut end[1..] {
        (*slot, total) = (total, total + *slot);
    }
    for (symbol, &len) in (0..).zip(lengths) {
        if len != 0 {
            let at = &mut end[usize::from(len)];
            sorted[*at] = symbol;
            *at += 1;
        }
    }
    let sorted: &'a [u16] = sorted;
    let mut groups: Groups<'a> = [&[]; MAX_BITS + 1];
    let mut start = 0;
    for (group, &end) in groups.iter_mut().zip(&end).skip(1) {
        *group = &sorted[start..end];
        start = end;
    }
    groups
}

/// The code-length code's table (RFC 1951 §3.2.7) and its index width,
/// the longest code's length: entry `i` (for `i < 2^width`) is
/// `symbol << 4 | length` for the code that the low bits of `i` start
/// with, or 0 where no code does. An incomplete code is accepted; its
/// unused indices decode to 0.
///
/// With 19 symbols and at most 128 slots, writing each code at every
/// index that shares its bits beats grouping the symbols for
/// [`fill_doubling`].
pub(crate) fn code_length_table(lengths: &[u8; 19]) -> Result<([u16; 128], u32), WireError> {
    let mut count = [0i32; 8];
    for &len in lengths {
        count[usize::from(len & 7)] += 1;
    }
    count[0] = 0;
    // The first canonical code of each length, and the Kraft check.
    let mut next = [0u32; 8];
    let mut code = 0;
    let mut left = 1;
    for len in 1..8 {
        code = (code + count[len - 1] as u32) << 1;
        next[len] = code;
        left = 2 * left - count[len];
        if left < 0 {
            return Err(oversubscribed());
        }
    }
    let Some(width) = (1..8).rev().find(|&len| count[len] > 0) else {
        return Err(WireError::Deflate("huffman table with no codes".into()));
    };
    let mut table = [0u16; 128];
    for (symbol, &len) in (0u16..).zip(lengths) {
        let len = usize::from(len & 7);
        if len == 0 {
            continue;
        }
        let mut index = reverse_bits(next[len], len as u32) as usize;
        next[len] += 1;
        while index < 1 << width {
            table[index] = (symbol << 4) | len as u16;
            index += 1 << len;
        }
    }
    Ok((table, width as u32))
}

/// A two-level Huffman decoding table of packed entries, indexed by
/// bit-reversed codes to match the LSB-first bit reader.
///
/// Codes of up to 10 bits resolve in one lookup of the first level; a
/// longer code's first 10 bits select a subtable entry that the next bits
/// index. Literal/length and distance tables fold the length or distance
/// base and its extra-bit count into the entry, so the inflate loop reads
/// a match's whole description from two lookups.
///
/// Layout: one fixed array sized for the worst case (`TABLE_SIZE`).
/// The first level fills `table[..2^primary_bits]`, as wide as the
/// longest code up to 10 bits; each subtable follows it, `2^w` entries
/// for a slot whose longest code has `10 + w` bits, reached through a
/// pointer entry in that slot. A build writes the first level by doubling
/// (see `fill_doubling`) and zero-fills each subtable it lays out, so
/// every entry a lookup can reach is written by the build that made it: a
/// decoder reused block after block never clears, allocates or resizes.
#[derive(Debug, Clone)]
pub struct Decoder {
    table: [u32; TABLE_SIZE],
    primary_bits: u32,
}

impl Default for Decoder {
    /// A decoder whose every code is invalid.
    fn default() -> Self {
        Self {
            table: [0; TABLE_SIZE],
            primary_bits: 0,
        }
    }
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

    /// Refills this decoder's table for new code lengths.
    pub(crate) fn rebuild(&mut self, lengths: &[u8], alphabet: Alphabet) -> Result<(), WireError> {
        if lengths.len() > MAX_SYMBOLS {
            return Err(WireError::Deflate("huffman alphabet too large".into()));
        }
        if lengths.iter().any(|&len| usize::from(len) > MAX_BITS) {
            return Err(WireError::Deflate("code length exceeds 15 bits".into()));
        }
        let mut sorted = [0u16; MAX_SYMBOLS];
        let groups = group(lengths, &mut sorted);
        self.build(&groups, 0, alphabet)
    }

    /// Refills this decoder's table from symbols grouped by code length,
    /// numbered from `first`. A dynamic header groups its lengths as it
    /// decodes them, so the build needs no counting or sorting pass of its
    /// own, and canonical codes come from a running counter.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Deflate`] when no symbol has a code or the
    /// lengths oversubscribe the code space. Incomplete codes are
    /// accepted; the codes they leave unused decode to invalid entries.
    pub(crate) fn build(
        &mut self,
        groups: &Groups<'_>,
        first: u16,
        alphabet: Alphabet,
    ) -> Result<(), WireError> {
        let Some(max) = (1..=MAX_BITS).rev().find(|&len| !groups[len].is_empty()) else {
            return Err(WireError::Deflate("huffman table with no codes".into()));
        };
        let primary = max.min(PRIMARY_BITS as usize);
        self.primary_bits = primary as u32;
        let payloads = &PAYLOADS[alphabet as usize];
        let entry = |symbol: u16, len: usize| payloads[usize::from(symbol - first)] | len as u32;
        let at = fill_doubling(&mut self.table, primary, groups, entry)?;
        if max > primary {
            self.fill_subtables(at, max, groups, entry)?;
        }
        Ok(())
    }

    /// Empties the code: every lookup finds the invalid entry.
    pub(crate) fn clear(&mut self) {
        self.primary_bits = 0;
        self.table[0] = 0;
    }

    /// Gives each first-level slot that codes longer than [`PRIMARY_BITS`]
    /// share a subtable as wide as the longest of them, laid out after the
    /// first level, and writes those codes; `at` is where the first level's
    /// build stopped.
    fn fill_subtables(
        &mut self,
        at: Canonical,
        max: usize,
        groups: &Groups<'_>,
        entry: impl Fn(u16, usize) -> u32,
    ) -> Result<(), WireError> {
        const PRIMARY: usize = PRIMARY_BITS as usize;
        let long = &groups[PRIMARY + 1..=max];
        let mut left = at.left;
        for group in long {
            left = 2 * left - group.len() as i32;
            if left < 0 {
                return Err(oversubscribed());
            }
        }
        let table = &mut self.table;
        // No shorter code reaches the slots long codes share, so they hold
        // the invalid entry 0 and can collect each subtable's width
        // (1..=5) until the layout pass replaces it with a pointer.
        let mut code = at.code;
        for (len, group) in (PRIMARY + 1..).zip(long) {
            code <<= 1;
            for _ in *group {
                let slot = reverse_bits(code, len as u32) as usize & (PRIMARY_SIZE - 1);
                table[slot] = table[slot].max((len - PRIMARY) as u32);
                code += 1;
            }
        }
        let mut code = at.code;
        let mut end = PRIMARY_SIZE;
        for (len, group) in (PRIMARY + 1..).zip(long) {
            code <<= 1;
            for &symbol in *group {
                let reversed = reverse_bits(code, len as u32) as usize;
                code += 1;
                let slot = reversed & (PRIMARY_SIZE - 1);
                let mut pointer = table[slot];
                if pointer & SUBTABLE == 0 {
                    let width = pointer;
                    table[end..end + (1 << width)].fill(0);
                    pointer = SUBTABLE | (width << 8) | ((end as u32) << 16) | PRIMARY_BITS;
                    table[slot] = pointer;
                    end += 1 << width;
                }
                // Replicate across every subtable index that shares the
                // code's bits past the first level.
                let base = entry_value(pointer) as usize;
                let stop = base + (1 << entry_extra(pointer));
                let mut index = base + (reversed >> PRIMARY);
                while index < stop {
                    table[index] = entry(symbol, len);
                    index += 1 << (len - PRIMARY);
                }
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
