//! Differential tests of inflate against the decoder it replaced.
//!
//! `reference` below is the decoder `hyrec_wire::deflate` used before its
//! per-block work was cut: a dynamic header read one field at a time, a
//! code-length code decoded through a full `Decoder`, `(symbol, length)`
//! pairs zeroed on every call, and `Decoder::rebuild_coded`, which counts
//! the lengths, checks Kraft, computes the first canonical code of each
//! length and replicates every code across a `Vec` table cleared for
//! incomplete codes. The block body loop (`inflate_block`), the stored
//! blocks and the output handling are kept as they were.
//!
//! Decoding is part of the wire contract: every input must give the same
//! bytes as the reference, and every input the reference rejects must be
//! rejected with the same error variant. The suite checks job bodies
//! assembled from `compress_chunk` pieces at every effort, random token
//! streams under random dynamic codes, bit-flipped bodies, hand-built
//! dynamic headers that no encoder writes, random code lengths, and
//! `Decoder::from_lengths` on its own.

use hyrec_wire::deflate::bitio::{reverse_bits, BitReader, BitWriter};
use hyrec_wire::deflate::huffman::{assign_codes, build_code_lengths, Decoder};
use hyrec_wire::deflate::lz77::Effort;
use hyrec_wire::deflate::{self, compress_chunk, STREAM_TERMINATOR};
use hyrec_wire::{gzip, WireError};
use proptest::prelude::*;
use std::mem::discriminant;

mod reference {
    use hyrec_wire::deflate::bitio::reverse_bits;
    use hyrec_wire::deflate::huffman::{FIXED_DISTANCE_LENGTHS, FIXED_LITERAL_LENGTHS, MAX_BITS};
    use hyrec_wire::WireError;
    use std::sync::OnceLock;

    const LENGTH_CODES: [(u16, u8); 29] = [
        (3, 0),
        (4, 0),
        (5, 0),
        (6, 0),
        (7, 0),
        (8, 0),
        (9, 0),
        (10, 0),
        (11, 1),
        (13, 1),
        (15, 1),
        (17, 1),
        (19, 2),
        (23, 2),
        (27, 2),
        (31, 2),
        (35, 3),
        (43, 3),
        (51, 3),
        (59, 3),
        (67, 4),
        (83, 4),
        (99, 4),
        (115, 4),
        (131, 5),
        (163, 5),
        (195, 5),
        (227, 5),
        (258, 0),
    ];

    const DIST_CODES: [(u16, u8); 30] = [
        (1, 0),
        (2, 0),
        (3, 0),
        (4, 0),
        (5, 1),
        (7, 1),
        (9, 2),
        (13, 2),
        (17, 3),
        (25, 3),
        (33, 4),
        (49, 4),
        (65, 5),
        (97, 5),
        (129, 6),
        (193, 6),
        (257, 7),
        (385, 7),
        (513, 8),
        (769, 8),
        (1025, 9),
        (1537, 9),
        (2049, 10),
        (3073, 10),
        (4097, 11),
        (6145, 11),
        (8193, 12),
        (12289, 12),
        (16385, 13),
        (24577, 13),
    ];

    const CLC_ORDER: [usize; 19] = [
        16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
    ];

    /// Reads bit fields LSB-first from a byte slice.
    ///
    /// The buffer refills with one unaligned 8-byte little-endian load while
    /// at least 8 input bytes remain, and a byte at a time only within the
    /// last 8. After a refill at least 56 bits are buffered unless the input
    /// ran out — enough for a whole DEFLATE match (a 15-bit length code, 5
    /// extra bits, a 15-bit distance code and 13 extra bits).
    #[derive(Debug, Clone)]
    pub struct BitReader<'a> {
        bytes: &'a [u8],
        /// Next input byte not yet counted in `bit_count`.
        pos: usize,
        /// Buffered bits, oldest lowest. Bits at and above `bit_count` are
        /// either zero or the input's next bits (a word load may run ahead of
        /// `pos`), so a later load that ORs the same bytes in changes nothing.
        bit_buf: u64,
        /// Number of valid bits in `bit_buf` (at most 63).
        bit_count: u32,
    }

    impl<'a> BitReader<'a> {
        /// Creates a reader over `bytes`.
        pub fn new(bytes: &'a [u8]) -> Self {
            Self {
                bytes,
                pos: 0,
                bit_buf: 0,
                bit_count: 0,
            }
        }

        /// Tops the buffer up to at least 56 bits, or to the end of input.
        #[inline(always)]
        pub fn refill(&mut self) {
            if let Some(word) = self.bytes.get(self.pos..self.pos + 8) {
                let word = u64::from_le_bytes(word.try_into().expect("slice of 8 bytes"));
                self.bit_buf |= word << self.bit_count;
                let whole_bytes = (63 - self.bit_count) / 8;
                self.pos += whole_bytes as usize;
                self.bit_count += whole_bytes * 8;
            } else {
                self.refill_tail();
            }
        }

        #[cold]
        fn refill_tail(&mut self) {
            while self.bit_count < 56 && self.pos < self.bytes.len() {
                self.bit_buf |= u64::from(self.bytes[self.pos]) << self.bit_count;
                self.pos += 1;
                self.bit_count += 8;
            }
        }

        /// The whole buffer, without refilling; bits past the end of input
        /// read as zero.
        #[inline(always)]
        pub fn peek_word(&self) -> u64 {
            self.bit_buf
        }

        /// Number of buffered bits.
        #[inline(always)]
        pub fn buffered(&self) -> u32 {
            self.bit_count
        }

        /// Drops `count` buffered bits without refilling; `false` (consuming
        /// nothing) if fewer are buffered.
        #[inline(always)]
        pub fn consume(&mut self, count: u32) -> bool {
            if count > self.bit_count {
                return false;
            }
            self.bit_buf >>= count;
            self.bit_count -= count;
            true
        }

        /// Reads `count` bits (LSB-first); `None` if the input is exhausted.
        pub fn read_bits(&mut self, count: u32) -> Option<u32> {
            debug_assert!(count <= 32);
            self.refill();
            let value = self.peek_bits_buffered(count);
            self.consume(count).then_some(value)
        }

        fn peek_bits_buffered(&self, count: u32) -> u32 {
            (self.bit_buf & ((1u64 << count) - 1)) as u32
        }

        /// Discards buffered bits to realign at a byte boundary (stored blocks).
        pub fn align_to_byte(&mut self) {
            let drop = self.bit_count % 8;
            self.bit_buf >>= drop;
            self.bit_count -= drop;
        }

        /// Borrows the next `len` whole bytes; the reader must be byte-aligned.
        /// `None` (consuming nothing) if fewer remain.
        pub fn read_bytes(&mut self, len: usize) -> Option<&'a [u8]> {
            debug_assert_eq!(self.bit_count % 8, 0);
            // The buffered whole bytes are the ones just before `pos`.
            let start = self.pos - (self.bit_count / 8) as usize;
            let bytes = self.bytes.get(start..start.checked_add(len)?)?;
            self.pos = start + len;
            self.bit_buf = 0;
            self.bit_count = 0;
            Some(bytes)
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
    pub const LITERAL: u32 = 1 << 12;
    /// The end-of-block symbol.
    pub const END_OF_BLOCK: u32 = 1 << 13;
    /// Payload is the offset of a subtable indexed by the bits after
    /// [`PRIMARY_BITS`].
    const SUBTABLE: u32 = 1 << 14;
    /// A symbol the alphabet reserves (literal/length 286–287, distance 30–31).
    pub const RESERVED: u32 = 1 << 15;

    /// Code length of an entry (0: invalid code).
    #[inline(always)]
    pub fn entry_len(entry: u32) -> u32 {
        entry & 0xFF
    }

    /// Extra-bit count of a length or distance entry.
    #[inline(always)]
    pub fn entry_extra(entry: u32) -> u32 {
        (entry >> 8) & 0xF
    }

    /// Payload of an entry.
    #[inline(always)]
    pub fn entry_value(entry: u32) -> u32 {
        entry >> 16
    }

    /// What a [`Decoder`]'s entries carry besides the code length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Alphabet {
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
        pub fn rebuild(&mut self, lengths: &[u8], alphabet: Alphabet) -> Result<(), WireError> {
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
        pub fn rebuild_coded(
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
        pub fn entry(&self, bits: u64) -> u32 {
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

    /// Hard cap on decompressed output, guarding against zip bombs.
    pub const MAX_OUTPUT: usize = 1 << 30;

    /// Decompresses a raw DEFLATE stream.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Deflate`] on malformed streams: bad block types,
    /// invalid Huffman tables, out-of-window distances or truncation, and
    /// [`WireError::TooLarge`] on output exceeding the 1 GiB safety cap.
    pub fn decompress(data: &[u8]) -> Result<Vec<u8>, WireError> {
        decompress_into(data, Vec::new(), MAX_OUTPUT)
    }

    /// [`decompress`] into `out` (empty, with the capacity the caller sized),
    /// failing once the output would pass `limit` bytes (at most
    /// [`MAX_OUTPUT`]).
    pub fn decompress_into(data: &[u8], out: Vec<u8>, limit: usize) -> Result<Vec<u8>, WireError> {
        let mut out = Output {
            buf: out,
            pos: 0,
            limit: limit.min(MAX_OUTPUT),
        };
        let mut reader = BitReader::new(data);
        let mut tables = DynamicTables::default();
        loop {
            let bfinal = reader
                .read_bits(1)
                .ok_or_else(|| WireError::Deflate("missing block header".into()))?;
            let btype = reader
                .read_bits(2)
                .ok_or_else(|| WireError::Deflate("missing block type".into()))?;
            match btype {
                0b00 => inflate_stored(&mut reader, &mut out)?,
                0b01 => {
                    let (lit, dist) = fixed_tables();
                    inflate_block(&mut reader, &mut out, lit, Some(dist))?;
                }
                0b10 => {
                    let has_distances = tables.read(&mut reader)?;
                    let dist = has_distances.then_some(&tables.dist);
                    inflate_block(&mut reader, &mut out, &tables.lit, dist)?;
                }
                _ => return Err(WireError::Deflate("reserved block type 11".into())),
            }
            if bfinal == 1 {
                break;
            }
        }
        out.buf.truncate(out.pos);
        Ok(out.buf)
    }

    /// Output under construction: `buf[..pos]` is inflated, `buf[pos..]` is
    /// zero-filled room. Writing through a slice and a local position keeps
    /// the hot loop free of `Vec::push`'s length and capacity bookkeeping.
    struct Output {
        buf: Vec<u8>,
        pos: usize,
        /// Most bytes the stream may inflate to; room never grows past it.
        limit: usize,
    }

    impl Output {
        /// Smallest growth step, so short streams grow in few steps.
        const MIN_ROOM: usize = 4096;

        /// Makes room for `extra` bytes past `pos` (plus [`COPY_SLACK`] where
        /// the limit and the reserved capacity allow), or reports the limit.
        ///
        /// Room doubles, but stops at the reserved capacity while that still
        /// suffices, so an honest size hint is zero-filled exactly once and
        /// never reallocated, and a lying one costs only address space.
        #[cold]
        fn grow(&mut self, extra: usize) -> Result<(), WireError> {
            let needed = self.pos + extra;
            if needed > self.limit {
                return Err(WireError::TooLarge { limit: self.limit });
            }
            let mut target = (needed + COPY_SLACK)
                .max(self.buf.len() * 2)
                .max(Self::MIN_ROOM);
            if needed <= self.buf.capacity() {
                target = target.min(self.buf.capacity());
            }
            self.buf.resize(target.min(self.limit), 0);
            Ok(())
        }
    }

    /// The fixed code's literal/length and distance tables, built once.
    fn fixed_tables() -> &'static (Decoder, Decoder) {
        static FIXED: OnceLock<(Decoder, Decoder)> = OnceLock::new();
        FIXED.get_or_init(|| {
            let mut lit = Decoder::default();
            lit.rebuild(&FIXED_LITERAL_LENGTHS, Alphabet::LiteralLength)
                .expect("fixed literal/length code is valid");
            let mut dist = Decoder::default();
            dist.rebuild(&FIXED_DISTANCE_LENGTHS, Alphabet::Distance)
                .expect("fixed distance code is valid");
            (lit, dist)
        })
    }

    fn inflate_stored(reader: &mut BitReader<'_>, out: &mut Output) -> Result<(), WireError> {
        reader.align_to_byte();
        let len = reader
            .read_bits(16)
            .ok_or_else(|| WireError::Deflate("truncated stored LEN".into()))?
            as u16;
        let nlen = reader
            .read_bits(16)
            .ok_or_else(|| WireError::Deflate("truncated stored NLEN".into()))?
            as u16;
        if len != !nlen {
            return Err(WireError::Deflate("stored LEN/NLEN mismatch".into()));
        }
        let bytes = reader
            .read_bytes(len as usize)
            .ok_or_else(|| WireError::Deflate("truncated stored payload".into()))?;
        if out.buf.len() - out.pos < bytes.len() {
            out.grow(bytes.len())?;
        }
        out.buf[out.pos..out.pos + bytes.len()].copy_from_slice(bytes);
        out.pos += bytes.len();
        Ok(())
    }

    /// A dynamic block's three tables, rebuilt in place for every block.
    #[derive(Default)]
    struct DynamicTables {
        code_lengths: Decoder,
        lit: Decoder,
        dist: Decoder,
    }

    impl DynamicTables {
        /// Reads a dynamic block header into the tables; `false` when the
        /// block has no distance codes.
        fn read(&mut self, stream: &mut BitReader<'_>) -> Result<bool, WireError> {
            let trunc = || WireError::Deflate("truncated dynamic header".into());
            // A register-resident copy, as in `inflate_block`.
            let mut reader = stream.clone();
            let reader = &mut reader;
            let hlit = reader.read_bits(5).ok_or_else(trunc)? as usize + 257;
            let hdist = reader.read_bits(5).ok_or_else(trunc)? as usize + 1;
            let hclen = reader.read_bits(4).ok_or_else(trunc)? as usize + 4;
            if hlit > 286 || hdist > 30 {
                return Err(WireError::Deflate(
                    "dynamic header counts out of range".into(),
                ));
            }

            let mut clc_lengths = [0u8; 19];
            for &order in CLC_ORDER.iter().take(hclen) {
                clc_lengths[order] = reader.read_bits(3).ok_or_else(trunc)? as u8;
            }
            self.code_lengths.rebuild(&clc_lengths, Alphabet::Symbols)?;

            // Decode hlit + hdist code lengths with the code-length code,
            // keeping only the symbols that get a code.
            let total = hlit + hdist;
            let mut coded = [(0u16, 0u8); 286 + 30];
            let mut used = 0;
            let mut filled = 0usize;
            let mut prev = None;
            while filled < total {
                // One refill covers a code (at most 7 bits) and its repeat
                // count (at most 7).
                reader.refill();
                let bits = reader.peek_word();
                let entry = self.code_lengths.entry(bits);
                let code_len = entry_len(entry);
                if code_len == 0 {
                    return Err(WireError::Deflate("invalid huffman code".into()));
                }
                let symbol = entry_value(entry);
                let (value, base, extra) = match symbol {
                    0..=15 => (symbol as u8, 1, 0),
                    16 => {
                        let prev = prev.ok_or_else(|| {
                            WireError::Deflate("repeat with no previous length".into())
                        })?;
                        (prev, 3, 2)
                    }
                    17 => (0, 3, 3),
                    18 => (0, 11, 7),
                    _ => return Err(WireError::Deflate("invalid code-length symbol".into())),
                };
                if !reader.consume(code_len + extra) {
                    return Err(trunc());
                }
                let count = base + low_bits(bits >> code_len, extra);
                if filled + count > total {
                    return Err(WireError::Deflate(
                        "code-length run overflows header".into(),
                    ));
                }
                if value != 0 {
                    for symbol in filled..filled + count {
                        coded[used] = (symbol as u16, value);
                        used += 1;
                    }
                }
                filled += count;
                prev = Some(value);
            }

            *stream = reader.clone();

            let coded = &coded[..used];
            let (lit, dist) =
                coded.split_at(coded.partition_point(|&(s, _)| usize::from(s) < hlit));
            if lit.binary_search_by_key(&256, |&(s, _)| s).is_err() {
                return Err(WireError::Deflate("end-of-block symbol has no code".into()));
            }
            self.lit.rebuild_coded(lit, 0, Alphabet::LiteralLength)?;
            // A block with no back-references legally has zero distance codes.
            if dist.is_empty() {
                return Ok(false);
            }
            self.dist
                .rebuild_coded(dist, hlit as u16, Alphabet::Distance)?;
            Ok(true)
        }
    }

    /// The low `count` bits of `bits` (a length's or distance's extra bits).
    #[inline(always)]
    fn low_bits(bits: u64, count: u32) -> usize {
        (bits & ((1u64 << count) - 1)) as usize
    }

    /// Inflates one Huffman-coded block.
    ///
    /// Works on a copy of the reader, stored back at the end of the block, so
    /// the bit buffer stays in registers instead of round-tripping through
    /// memory between the output writes.
    fn inflate_block(
        stream: &mut BitReader<'_>,
        out: &mut Output,
        lit: &Decoder,
        dist: Option<&Decoder>,
    ) -> Result<(), WireError> {
        let trunc = || WireError::Deflate("truncated block body".into());
        let mut reader = stream.clone();
        let mut pos = out.pos;
        let mut buf = &mut out.buf[..];
        loop {
            reader.refill();
            let mut entry = lit.entry(reader.peek_word());
            // Runs of literals refill only when fewer bits than a code remain.
            while entry & LITERAL != 0 {
                if !reader.consume(entry_len(entry)) {
                    return Err(trunc());
                }
                if pos == buf.len() {
                    out.pos = pos;
                    out.grow(1)?;
                    buf = &mut out.buf[..];
                }
                buf[pos] = entry_value(entry) as u8;
                pos += 1;
                if reader.buffered() < MAX_BITS as u32 {
                    reader.refill();
                }
                entry = lit.entry(reader.peek_word());
            }
            // A match needs up to 48 bits: refill (the code's bits stay put).
            reader.refill();
            let bits = reader.peek_word();
            let code_len = entry_len(entry);
            if code_len == 0 {
                return Err(WireError::Deflate("invalid huffman code".into()));
            }
            if entry & END_OF_BLOCK != 0 {
                if !reader.consume(code_len) {
                    return Err(trunc());
                }
                out.pos = pos;
                *stream = reader;
                return Ok(());
            }
            if entry & RESERVED != 0 {
                return Err(WireError::Deflate("invalid literal/length symbol".into()));
            }
            // A length code: base and extra-bit count come with the entry.
            let extra = entry_extra(entry);
            if !reader.consume(code_len + extra) {
                return Err(trunc());
            }
            let len = entry_value(entry) as usize + low_bits(bits >> code_len, extra);

            let dist = dist
                .ok_or_else(|| WireError::Deflate("match in block with no distance code".into()))?;
            let bits = reader.peek_word();
            let entry = dist.entry(bits);
            let code_len = entry_len(entry);
            if code_len == 0 {
                return Err(WireError::Deflate("invalid huffman code".into()));
            }
            if entry & RESERVED != 0 {
                return Err(WireError::Deflate("invalid distance symbol".into()));
            }
            let extra = entry_extra(entry);
            if !reader.consume(code_len + extra) {
                return Err(trunc());
            }
            let distance = entry_value(entry) as usize + low_bits(bits >> code_len, extra);
            if distance > pos {
                return Err(WireError::Deflate("distance beyond output start".into()));
            }
            if buf.len() - pos < len + COPY_SLACK {
                out.pos = pos;
                out.grow(len)?;
                buf = &mut out.buf[..];
            }
            copy_match(buf, pos, distance, len);
            pos += len;
        }
    }

    /// Room a match copy may write past its end: a match of up to 16 bytes
    /// copies as two whole 8-byte words, and the bytes past the match are
    /// room the output overwrites later.
    const COPY_SLACK: usize = 16;

    /// Writes `len` bytes at `pos` copied from `distance` back, where the
    /// source may overlap the bytes being written (`distance < len` repeats
    /// the last `distance` bytes). `buf` has room for at least `len` bytes
    /// at `pos`.
    #[inline(always)]
    fn copy_match(buf: &mut [u8], pos: usize, distance: usize, len: usize) {
        let start = pos - distance;
        if distance >= 8 && len <= 16 && buf.len() - pos >= 2 * 8 {
            // A short match as two words: each word's source ends at or before
            // its destination starts, so it reads only finished bytes.
            buf.copy_within(start..start + 8, pos);
            buf.copy_within(start + 8..start + 16, pos + 8);
        } else {
            // Each pass copies everything from `start` so far, a whole number
            // of periods, so the chunk doubles until the match is done (one
            // pass when the source does not overlap the destination).
            let mut done = 0;
            while done < len {
                let chunk = (len - done).min(pos + done - start);
                buf.copy_within(start..start + chunk, pos + done);
                done += chunk;
            }
        }
    }
}

const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Decodes `data` with both decoders and checks that they agree: the
/// same bytes, or errors of the same variant. Returns the current
/// decoder's result.
fn same_as_reference(data: &[u8]) -> Result<Vec<u8>, WireError> {
    let new = deflate::decompress(data);
    let old = reference::decompress(data);
    match (&new, &old) {
        (Ok(a), Ok(b)) => assert!(a == b, "outputs differ: {} vs {} bytes", a.len(), b.len()),
        (Err(a), Err(b)) => assert_eq!(discriminant(a), discriminant(b), "{a:?} vs {b:?}"),
        _ => panic!(
            "outcomes differ: {:?} vs {:?}",
            new.as_ref().map(Vec::len),
            old.as_ref().map(Vec::len)
        ),
    }
    new
}

#[derive(Debug, Clone, Copy)]
enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

/// Index of the last table entry whose base is at most `value`.
fn code_index(bases: &[u16], value: u16) -> usize {
    bases
        .iter()
        .rposition(|&base| base <= value)
        .expect("value at least the first base")
}

/// What `tokens` decode to, one byte at a time.
fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for &token in tokens {
        match token {
            Token::Literal(byte) => out.push(byte),
            Token::Match { len, dist } => {
                for _ in 0..len {
                    out.push(out[out.len() - usize::from(dist)]);
                }
            }
        }
    }
    out
}

/// Literals from `seed`, then literals and matches (with distances that
/// stay inside the output) from `ops`.
fn tokens_from(seed: &[u8], ops: &[(bool, u16, u16)]) -> Vec<Token> {
    let mut tokens: Vec<Token> = seed.iter().map(|&b| Token::Literal(b)).collect();
    let mut len = seed.len();
    for &(is_match, value, dist) in ops {
        if is_match && len > 0 {
            let match_len = 3 + value % 256;
            let dist = 1 + dist % len.min(32_768) as u16;
            tokens.push(Token::Match {
                len: match_len,
                dist,
            });
            len += usize::from(match_len);
        } else {
            tokens.push(Token::Literal(value as u8));
            len += 1;
        }
    }
    tokens
}

/// Code lengths for `tokens` plus an end of block, at most `max_bits`
/// long, trimmed as an encoder trims them: HLIT ≥ 257 and HDIST ≥ 1,
/// so a block with no matches sends one zero distance length.
fn lengths_for(tokens: &[Token], max_bits: usize) -> (Vec<u8>, Vec<u8>) {
    let mut lit = vec![0u64; 286];
    let mut dist = vec![0u64; 30];
    lit[256] = 1;
    for &token in tokens {
        match token {
            Token::Literal(byte) => lit[usize::from(byte)] += 1,
            Token::Match { len, dist: d } => {
                lit[257 + code_index(&LENGTH_BASE, len)] += 1;
                dist[code_index(&DIST_BASE, d)] += 1;
            }
        }
    }
    let mut lit = build_code_lengths(&lit, max_bits);
    let mut dist = build_code_lengths(&dist, max_bits.min(15));
    let used = |lengths: &[u8]| lengths.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
    lit.truncate(used(&lit).max(257));
    dist.truncate(used(&dist).max(1));
    (lit, dist)
}

/// Code-length symbols for `lengths`, run-length coded as zlib does:
/// runs of zeros as 17 and 18, repeats of the previous length as 16.
fn run_length(lengths: &[u8]) -> Vec<(u8, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lengths.len() {
        let len = lengths[i];
        let run = lengths[i..].iter().take_while(|&&l| l == len).count();
        let mut left = run;
        if len == 0 {
            while left >= 11 {
                let n = left.min(138);
                out.push((18, (n - 11) as u32));
                left -= n;
            }
            if left >= 3 {
                out.push((17, (left - 3) as u32));
                left = 0;
            }
        } else if run >= 4 {
            out.push((len, 0));
            left -= 1;
            while left >= 3 {
                let n = left.min(6);
                out.push((16, (n - 3) as u32));
                left -= n;
            }
        }
        out.extend(std::iter::repeat_n((len, 0), left));
        i += run;
    }
    out
}

/// A dynamic block header field by field, so a test can write headers
/// no encoder would.
#[derive(Debug, Clone)]
struct Header {
    /// Literal/length and distance lengths the header states (HLIT and
    /// HDIST, before their offsets).
    hlit: usize,
    hdist: usize,
    /// How many code-length-code lengths are sent, in `CLC_ORDER`.
    hclen: usize,
    /// The code-length code's length for each symbol 0..=18.
    clc: [u8; 19],
    /// Code-length symbols with the values of their extra bits.
    symbols: Vec<(u8, u32)>,
}

impl Header {
    /// The header for `symbols` under a code-length code built from their
    /// frequencies, with trailing zero code-length-code lengths dropped.
    fn from_symbols(hlit: usize, hdist: usize, symbols: Vec<(u8, u32)>) -> Self {
        let mut freqs = [0u64; 19];
        for &(symbol, _) in &symbols {
            freqs[usize::from(symbol)] += 1;
        }
        let mut clc = [0u8; 19];
        clc.copy_from_slice(&build_code_lengths(&freqs, 7));
        let hclen = (4..=19)
            .rev()
            .find(|&n| clc[CLC_ORDER[n - 1]] != 0)
            .unwrap_or(4);
        Self {
            hlit,
            hdist,
            hclen,
            clc,
            symbols,
        }
    }

    /// The header an encoder writes for these code lengths.
    fn for_lengths(lit: &[u8], dist: &[u8]) -> Self {
        Self::from_symbols(lit.len(), dist.len(), run_length(&[lit, dist].concat()))
    }

    /// Writes the block header bits and this header. A symbol the
    /// code-length code gives no code is written as no bits.
    fn write(&self, w: &mut BitWriter, last: bool) {
        w.write_bits(u32::from(last), 1);
        w.write_bits(0b10, 2);
        w.write_bits((self.hlit - 257) as u32, 5);
        w.write_bits((self.hdist - 1) as u32, 5);
        w.write_bits((self.hclen - 4) as u32, 4);
        for &symbol in &CLC_ORDER[..self.hclen] {
            w.write_bits(u32::from(self.clc[symbol]), 3);
        }
        let codes = assign_codes(&self.clc);
        for &(symbol, extra) in &self.symbols {
            let symbol = usize::from(symbol);
            w.write_bits(u32::from(codes[symbol]), u32::from(self.clc[symbol]));
            let bits = match symbol {
                16 => 2,
                17 => 3,
                18 => 7,
                _ => 0,
            };
            w.write_bits(extra, bits);
        }
    }
}

/// Writes `tokens` and an end of block under the codes `lit` and `dist`
/// describe; a symbol with no code is written as no bits.
fn write_tokens(w: &mut BitWriter, lit: &[u8], dist: &[u8], tokens: &[Token]) {
    let lit_codes = assign_codes(lit);
    let dist_codes = assign_codes(dist);
    let code = |w: &mut BitWriter, codes: &[u16], lengths: &[u8], s: usize| {
        let len = lengths.get(s).copied().unwrap_or(0);
        w.write_bits(
            u32::from(codes.get(s).copied().unwrap_or(0)),
            u32::from(len),
        );
    };
    for &token in tokens {
        match token {
            Token::Literal(byte) => code(w, &lit_codes, lit, usize::from(byte)),
            Token::Match { len, dist: d } => {
                let i = code_index(&LENGTH_BASE, len);
                code(w, &lit_codes, lit, 257 + i);
                w.write_bits(u32::from(len - LENGTH_BASE[i]), u32::from(LENGTH_EXTRA[i]));
                let j = code_index(&DIST_BASE, d);
                code(w, &dist_codes, dist, j);
                w.write_bits(u32::from(d - DIST_BASE[j]), u32::from(DIST_EXTRA[j]));
            }
        }
    }
    code(w, &lit_codes, lit, 256);
}

/// One final dynamic block holding `tokens` under `header` and the codes
/// `lit` and `dist`.
fn dynamic_stream(header: &Header, lit: &[u8], dist: &[u8], tokens: &[Token]) -> Vec<u8> {
    let mut w = BitWriter::new();
    header.write(&mut w, true);
    write_tokens(&mut w, lit, dist, tokens);
    w.into_bytes()
}

/// A job body as the fragment-caching encoder assembles it: a prefix
/// piece, one piece per candidate profile, a suffix, each compressed on
/// its own and sync-flushed, then the terminator. Returns the raw DEFLATE
/// stream and the JSON it decodes to.
fn assembled(profiles: &[Vec<u32>], effort: Effort) -> (Vec<u8>, Vec<u8>) {
    let mut pieces =
        vec![b"{\"uid\":7,\"k\":10,\"r\":10,\"profile\":{\"liked\":[1,2,3],\"disliked\":[]},\"candidates\":[null".to_vec()];
    for (uid, items) in profiles.iter().enumerate() {
        let items: Vec<String> = items.iter().map(u32::to_string).collect();
        pieces.push(
            format!(
                ",{{\"uid\":{uid},\"profile\":{{\"liked\":[{}],\"disliked\":[]}}}}",
                items.join(",")
            )
            .into_bytes(),
        );
    }
    pieces.push(b"]}".to_vec());
    let mut stream = Vec::new();
    for piece in &pieces {
        stream.extend_from_slice(&compress_chunk(piece, effort));
    }
    stream.extend_from_slice(&STREAM_TERMINATOR);
    (stream, pieces.concat())
}

fn gzip_frame(deflated: &[u8], raw: &[u8]) -> Vec<u8> {
    let mut frame = gzip::HEADER.to_vec();
    frame.extend_from_slice(deflated);
    frame.extend_from_slice(&hyrec_wire::crc::crc32(raw).to_le_bytes());
    frame.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    frame
}

const EFFORTS: [Effort; 3] = [Effort::FAST, Effort::DEFAULT, Effort::BEST];

/// Candidate profiles shaped like the synthetic jobs: `count` lists of
/// `items` ids, a stride apart or drawn from `seed`.
fn profiles(count: usize, items: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed | 1;
    (0..count)
        .map(|c| {
            (0..items)
                .map(|i| {
                    if seed.is_multiple_of(2) {
                        ((c * 17 + i * 3) % 60_000) as u32
                    } else {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % 60_000) as u32
                    }
                })
                .collect()
        })
        .collect()
}

/// Literal frequencies that grow like Fibonacci numbers, so the rarest
/// literals get codes longer than a first-level table.
fn skewed_tokens() -> Vec<Token> {
    let mut tokens = Vec::new();
    let (mut a, mut b) = (1usize, 1usize);
    for byte in 0..20u8 {
        tokens.extend(std::iter::repeat_n(Token::Literal(b'a' + byte), a));
        (a, b) = (b, a + b);
    }
    tokens.push(Token::Match { len: 10, dist: 3 });
    tokens
}

#[test]
fn assembled_job_bodies_match_at_every_effort() {
    for effort in EFFORTS {
        for (count, seed) in [(0, 0), (1, 2), (3, 5), (120, 4), (120, 7)] {
            let (stream, raw) = assembled(&profiles(count, 100, seed), effort);
            assert_eq!(same_as_reference(&stream).unwrap(), raw);
            assert_eq!(gzip::decompress(&gzip_frame(&stream, &raw)).unwrap(), raw);
        }
    }
}

#[test]
fn hand_built_headers_match() {
    let text: Vec<Token> = b"abracadabra, abracadabra"
        .iter()
        .map(|&b| Token::Literal(b))
        .chain([Token::Match { len: 11, dist: 13 }])
        .collect();
    let (lit, dist) = lengths_for(&text, 15);
    let valid = Header::for_lengths(&lit, &dist);
    let ok = |header: &Header, lit: &[u8], dist: &[u8], tokens: &[Token]| {
        let stream = dynamic_stream(header, lit, dist, tokens);
        assert_eq!(
            same_as_reference(&stream).unwrap(),
            expand(tokens),
            "{header:?}"
        );
    };
    let err = |header: &Header, lit: &[u8], dist: &[u8], tokens: &[Token]| {
        let stream = dynamic_stream(header, lit, dist, tokens);
        assert!(same_as_reference(&stream).is_err(), "{header:?}");
    };
    ok(&valid, &lit, &dist, &text);

    // HCLEN = 19: every code-length-code length sent, trailing zeros too.
    let mut all = valid.clone();
    all.hclen = 19;
    ok(&all, &lit, &dist, &text);

    // A repeat (16) as the very first length.
    let mut first_repeat = valid.clone();
    first_repeat.symbols.insert(0, (16, 0));
    let first_repeat = Header::from_symbols(lit.len(), dist.len(), first_repeat.symbols);
    err(&first_repeat, &lit, &dist, &text);

    // A zero run past HLIT + HDIST.
    let mut overflow = valid.symbols.clone();
    overflow.push((18, 127));
    let overflow = Header::from_symbols(lit.len(), dist.len(), overflow);
    err(&overflow, &lit, &dist, &text);

    // A repeat (16) that runs from the literal/length lengths into the
    // distance lengths.
    let mut lit_tail = vec![0u8; 257];
    for b in b"ab" {
        lit_tail[usize::from(*b)] = 2;
    }
    lit_tail[256] = 2;
    lit_tail.extend([2, 2, 2]); // codes 257..=259
    let span = [2u8, 2, 2, 2, 2];
    let symbols = [
        run_length(&lit_tail[..257]),
        vec![(2, 0), (2, 0), (16, 3)], // lit 257..=259 and dist 0..=2
        vec![(16, 0)],                 // dist 3..=5
    ]
    .concat();
    let crossing = Header::from_symbols(260, 6, symbols);
    let mut crossing_dist = span.to_vec();
    crossing_dist.push(2);
    let lit_crossing: Vec<u8> = lit_tail.clone();
    // Oversubscribed (nine 2-bit literal/length codes): rejected either way.
    err(&crossing, &lit_crossing, &crossing_dist, &[]);
    // The same shape with a complete code: a, b, end of block, 257 and
    // 258 at 3 bits, 259 at 2 bits; six distance codes.
    let mut lit_ok = vec![0u8; 260];
    for s in [usize::from(b'a'), usize::from(b'b'), 256, 257, 258] {
        lit_ok[s] = 3;
    }
    lit_ok[259] = 2;
    let dist_ok = [3u8, 3, 3, 3, 2, 2];
    let symbols = [
        run_length(&lit_ok[..259]),
        vec![(2, 0), (3, 0), (16, 0), (2, 0), (2, 0)],
    ]
    .concat();
    let crossing = Header::from_symbols(260, 6, symbols);
    let tokens = [
        Token::Literal(b'a'),
        Token::Literal(b'b'),
        Token::Match { len: 3, dist: 2 },
        Token::Match { len: 5, dist: 1 },
    ];
    ok(&crossing, &lit_ok, &dist_ok, &tokens);

    // An incomplete literal/length code: fine until an unused code comes.
    let mut lit_short = vec![0u8; 257];
    lit_short[usize::from(b'z')] = 2;
    lit_short[256] = 2;
    let no_dist = [0u8];
    let incomplete = Header::for_lengths(&lit_short, &no_dist);
    let zs = [Token::Literal(b'z'), Token::Literal(b'z')];
    ok(&incomplete, &lit_short, &no_dist, &zs);
    let mut w = BitWriter::new();
    incomplete.write(&mut w, true);
    w.write_bits(0b11, 2); // neither 'z' (00) nor end of block (10)
    w.write_bits(0, 8);
    assert!(same_as_reference(&w.into_bytes()).is_err());

    // Oversubscribed literal/length and distance codes.
    let mut lit_over = lit_short.clone();
    lit_over[usize::from(b'y')] = 1;
    lit_over[usize::from(b'x')] = 1;
    err(
        &Header::for_lengths(&lit_over, &no_dist),
        &lit_over,
        &no_dist,
        &zs,
    );
    let dist_over = [1u8, 1, 1];
    err(
        &Header::for_lengths(&lit, &dist_over),
        &lit,
        &dist_over,
        &text,
    );

    // One distance code, and zero distance codes.
    let run = [Token::Literal(b'q'), Token::Match { len: 40, dist: 1 }];
    let (lit_run, _) = lengths_for(&run, 15);
    let one = [1u8];
    ok(&Header::for_lengths(&lit_run, &one), &lit_run, &one, &run);
    ok(
        &Header::for_lengths(&lit_short, &no_dist),
        &lit_short,
        &no_dist,
        &zs,
    );
    err(
        &Header::for_lengths(&lit_run, &no_dist),
        &lit_run,
        &no_dist,
        &run,
    );

    // Literal codes over 10 bits: the subtable path.
    let skewed = skewed_tokens();
    let (lit_long, dist_long) = lengths_for(&skewed, 15);
    assert!(lit_long.iter().any(|&l| l > 10));
    ok(
        &Header::for_lengths(&lit_long, &dist_long),
        &lit_long,
        &dist_long,
        &skewed,
    );

    // An incomplete code-length code (one code-length symbol, so one
    // 1-bit code) and an oversubscribed one.
    let flat = vec![9u8; 257];
    let single = Header::from_symbols(257, 1, vec![(9, 0); 258]);
    assert_eq!(single.clc.iter().filter(|&&l| l != 0).count(), 1);
    ok(&single, &flat, &[9], &text[..5]);
    let mut over = valid.clone();
    for l in over.clc.iter_mut().take(3) {
        *l = 1;
    }
    err(&over, &lit, &dist, &text);

    // No code-length code at all, no end-of-block code, and HLIT or
    // HDIST out of range.
    let mut empty = valid.clone();
    empty.clc = [0; 19];
    err(&empty, &lit, &dist, &text);
    let mut no_eob = lit.clone();
    no_eob[256] = 0;
    err(&Header::for_lengths(&no_eob, &dist), &no_eob, &dist, &text);
    for (hlit, hdist) in [(287, 1), (288, 1), (257, 31), (257, 32)] {
        let mut far = valid.clone();
        far.hlit = hlit;
        far.hdist = hdist;
        err(&far, &lit, &dist, &text);
    }
}

#[test]
fn truncated_dynamic_headers_match() {
    let skewed = skewed_tokens();
    let (lit, dist) = lengths_for(&skewed, 15);
    let stream = dynamic_stream(&Header::for_lengths(&lit, &dist), &lit, &dist, &skewed);
    for cut in 0..stream.len() {
        let _ = same_as_reference(&stream[..cut]);
    }
}

#[test]
fn tables_rebuilt_in_place_match_across_blocks() {
    // Long codes after short ones and back, so every block's tables start
    // from another code's entries.
    let skewed = skewed_tokens();
    let text: Vec<Token> = b"short codes only"
        .iter()
        .map(|&b| Token::Literal(b))
        .collect();
    let mut w = BitWriter::new();
    let mut expected = Vec::new();
    for (i, tokens) in [&text, &skewed, &text, &skewed, &text].iter().enumerate() {
        let (lit, dist) = lengths_for(tokens, 15);
        Header::for_lengths(&lit, &dist).write(&mut w, i == 4);
        write_tokens(&mut w, &lit, &dist, tokens);
        expected.extend(expand(tokens));
    }
    assert_eq!(same_as_reference(&w.into_bytes()).unwrap(), expected);
}

#[test]
fn unused_long_codes_stay_invalid_after_a_rebuild() {
    // A block whose long codes fill subtables, then an incomplete code
    // with one 15-bit code: the other 31 entries of its subtable, where
    // the first block's entries were, must decode as invalid.
    let skewed = skewed_tokens();
    let (lit, dist) = lengths_for(&skewed, 15);
    let mut sparse = vec![0u8; 257];
    sparse[usize::from(b'a')] = 1;
    sparse[256] = 2;
    sparse[usize::from(b'b')] = 15;
    let no_dist = [0u8];
    let tokens = [Token::Literal(b'b'), Token::Literal(b'a')];
    for tail in 0..32u32 {
        let mut w = BitWriter::new();
        Header::for_lengths(&lit, &dist).write(&mut w, false);
        write_tokens(&mut w, &lit, &dist, &skewed);
        Header::for_lengths(&sparse, &no_dist).write(&mut w, true);
        if tail == 0 {
            write_tokens(&mut w, &sparse, &no_dist, &tokens);
            let mut expected = expand(&skewed);
            expected.extend(b"ba");
            assert_eq!(same_as_reference(&w.into_bytes()).unwrap(), expected);
            continue;
        }
        // 'b' is 110000000000000; the codes after it share its first
        // ten bits and no symbol.
        let unused = (0b11 << 13) | tail;
        w.write_bits(reverse_bits(unused, 15), 15);
        w.write_bits(0, 16);
        assert!(same_as_reference(&w.into_bytes()).is_err(), "{tail}");
    }
}

/// Decodes up to 64 symbols from `bytes` with both `Decoder`s built from
/// `lengths`, checking that they agree symbol by symbol.
fn decoders_agree(lengths: &[u8], bytes: &[u8]) -> Result<(), TestCaseError> {
    let new = Decoder::from_lengths(lengths);
    let old = reference::Decoder::from_lengths(lengths);
    let (new, old) = match (new, old) {
        (Ok(new), Ok(old)) => (new, old),
        (Err(a), Err(b)) => {
            prop_assert_eq!(discriminant(&a), discriminant(&b));
            return Ok(());
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "builds differ: {:?} vs {:?}",
                a.is_ok(),
                b.is_ok()
            )))
        }
    };
    let mut new_reader = BitReader::new(bytes);
    let mut old_reader = reference::BitReader::new(bytes);
    for _ in 0..64 {
        let a = new.decode(&mut new_reader);
        let b = old.decode(&mut old_reader);
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => {
                prop_assert_eq!(discriminant(&a), discriminant(&b));
                break;
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "decodes differ: {a:?} vs {b:?}"
                )));
            }
        }
    }
    Ok(())
}

#[test]
fn from_lengths_matches_on_edge_codes() {
    let bytes: Vec<u8> = (0..64u32).map(|i| (i * 167 + 13) as u8).collect();
    let mut cases: Vec<Vec<u8>> = vec![
        vec![1],
        vec![0, 1],
        vec![1, 1],
        vec![1, 1, 1],
        vec![15],
        vec![0; 10],
        vec![16, 1],
        (1..=15).chain([15]).collect(),
        (1..=15).collect(),
        vec![11; 288],
        vec![15; 288],
        vec![9; 289],
    ];
    // Every length change inside its own subtable: one code at each of
    // 11..=15 bits after 1..=10.
    cases.push((1..=10).chain([11, 12, 13, 14, 15, 15]).collect());
    for lengths in &cases {
        decoders_agree(lengths, &bytes).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn assembled_bodies_match(
        count in 0usize..40,
        items in 0usize..150,
        seed in any::<u64>(),
        effort in 0usize..3,
    ) {
        let (stream, raw) = assembled(&profiles(count, items, seed), EFFORTS[effort]);
        prop_assert_eq!(same_as_reference(&stream).unwrap(), raw.clone());
        prop_assert_eq!(gzip::decompress(&gzip_frame(&stream, &raw)).unwrap(), raw);
    }

    #[test]
    fn random_token_streams_match(
        seed in proptest::collection::vec(any::<u8>(), 1..40),
        ops in proptest::collection::vec((any::<bool>(), any::<u16>(), any::<u16>()), 0..200),
        max_bits in 9usize..=15,
        blocks in 1usize..4,
    ) {
        // The tokens split over `blocks` dynamic blocks, each with its own
        // code.
        let tokens = tokens_from(&seed, &ops);
        let step = tokens.len().div_ceil(blocks);
        let mut w = BitWriter::new();
        let chunks: Vec<&[Token]> = tokens.chunks(step.max(1)).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            let (lit, dist) = lengths_for(chunk, max_bits);
            Header::for_lengths(&lit, &dist).write(&mut w, i + 1 == chunks.len());
            write_tokens(&mut w, &lit, &dist, chunk);
        }
        prop_assert_eq!(same_as_reference(&w.into_bytes()).unwrap(), expand(&tokens));
    }

    #[test]
    fn bit_flipped_bodies_match(
        count in 1usize..8,
        seed in any::<u64>(),
        effort in 0usize..3,
        flips in proptest::collection::vec((any::<usize>(), 0u32..8), 1..8),
    ) {
        let (mut stream, _) = assembled(&profiles(count, 40, seed), EFFORTS[effort]);
        for (at, bit) in flips {
            let n = stream.len();
            stream[at % n] ^= 1 << bit;
        }
        let _ = same_as_reference(&stream);
    }

    #[test]
    fn random_code_lengths_match(
        lit_freqs in proptest::collection::vec(prop_oneof![3 => Just(0u64), 1 => 1u64..1000], 257..=286),
        dist_freqs in proptest::collection::vec(prop_oneof![1 => Just(0u64), 1 => 1u64..1000], 1..=30),
        max_bits in 9usize..=15,
        nudges in proptest::collection::vec((any::<usize>(), 0u8..=15), 0..4),
        run_coded in any::<bool>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Valid lengths, then a few set to arbitrary values: complete,
        // incomplete and oversubscribed codes, long and short.
        let mut lit_freqs = lit_freqs;
        lit_freqs[256] = lit_freqs[256].max(1);
        let mut lit = build_code_lengths(&lit_freqs, max_bits);
        let mut dist = build_code_lengths(&dist_freqs, max_bits);
        for (at, len) in nudges {
            if at % 2 == 0 {
                let i = at / 2 % lit.len();
                lit[i] = len;
            } else {
                let i = at / 2 % dist.len();
                dist[i] = len;
            }
        }
        let lengths = [&lit[..], &dist[..]].concat();
        let symbols = if run_coded {
            run_length(&lengths)
        } else {
            lengths.iter().map(|&l| (l, 0)).collect()
        };
        let mut w = BitWriter::new();
        Header::from_symbols(lit.len(), dist.len(), symbols).write(&mut w, true);
        let mut stream = w.into_bytes();
        stream.extend_from_slice(&body);
        let _ = same_as_reference(&stream);
    }

    #[test]
    fn from_lengths_matches(
        lengths in proptest::collection::vec(prop_oneof![4 => Just(0u8), 4 => 1u8..=15, 1 => 16u8..=17], 1..=290),
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        decoders_agree(&lengths, &bytes)?;
    }

    #[test]
    fn from_valid_lengths_matches(
        freqs in proptest::collection::vec(prop_oneof![1 => Just(0u64), 2 => 1u64..100_000], 2..=288),
        max_bits in 9usize..=15,
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        decoders_agree(&build_code_lengths(&freqs, max_bits), &bytes)?;
    }
}
