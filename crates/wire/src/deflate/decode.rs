//! The DEFLATE decompressor (inflate): stored, fixed and dynamic blocks.
//!
//! Tuned for the bodies a fragment-caching job encoder ships: one dynamic
//! block per cached fragment, each followed by an empty stored sync-flush
//! block, so a 30 kB body holds over a hundred small blocks and per-block
//! costs matter as much as per-symbol ones.
//!
//! * **Tables.** Each Huffman code decodes through a two-level table of
//!   packed `u32` entries (see [`Decoder`]): code length, flags, extra-bit
//!   count, and a payload that is already the literal byte, the length base
//!   or the distance base. The fixed code's two tables are built once per
//!   process. A dynamic block rebuilds two fixed-size tables that live for
//!   the whole stream, made on the stream's first dynamic block.
//! * **Dynamic headers.** Most of a small block's cost is its header, so
//!   the reader keeps it to fixed work. HLIT, HDIST, HCLEN and the
//!   code-length-code lengths come from two refills. The code-length code
//!   decodes through a stack table as wide as its longest code (at most
//!   128 entries), and a plain length (0–15) skips the repeat handling.
//!   Each decoded length files its symbol under that length in a
//!   per-stream array, so the literal/length and distance table builds
//!   find their symbols grouped and counted and run no counting or sorting
//!   pass of their own; the Kraft check rides along the build's per-length
//!   loop. The builds write each code once and double the table between
//!   lengths (see [`Decoder`]).
//! * **End of stream.** [`decompress_into`] reports the bytes the stream
//!   took (the final block's last byte counted whole), so the gzip frame
//!   can refuse bytes between the stream and its trailer.
//! * **Refill.** The bit reader tops its 64-bit buffer up with one 8-byte
//!   little-endian load (a byte at a time only within the last 8 input
//!   bytes). One refill per symbol covers a whole match: the length code
//!   and its extra bits, the distance code and its extra bits.
//!   Runs of literals refill only when fewer than 15 bits remain.
//! * **Output.** Bytes go through a slice and a local position into
//!   zero-filled room, not through `Vec::push`. A match of up to 16 bytes
//!   at distance 8 or more copies as two 8-byte words (room past the end
//!   is reserved for that); others use `copy_within`, in chunks that
//!   double while the distance is shorter than the length. Stored blocks
//!   copy as one slice.
//! * **Output sizing.** The gzip frame reserves capacity from its `ISIZE`
//!   trailer, clamped to what the payload can expand to and to the
//!   caller's output limit (`gzip::output_capacity`), and room is
//!   zero-filled only as the output grows and never past that limit, so
//!   neither a lying trailer nor a bomb buys a large allocation or touched
//!   memory. The limit is at most 1 GiB; `gzip::decompress_limited` takes a
//!   smaller one for bodies whose size the route knows.

use super::bitio::BitReader;
use super::huffman::{
    code_length_table, entry_extra, entry_len, entry_value, Alphabet, Decoder, Groups,
    END_OF_BLOCK, FIXED_DISTANCE_LENGTHS, FIXED_LITERAL_LENGTHS, LITERAL, MAX_BITS, RESERVED,
};
use super::CLC_ORDER;
use crate::error::WireError;
use std::sync::OnceLock;

/// Hard cap on decompressed output, guarding against zip bombs.
pub(crate) const MAX_OUTPUT: usize = 1 << 30;

/// Decompresses a raw DEFLATE stream.
///
/// # Errors
///
/// Returns [`WireError::Deflate`] on malformed streams: bad block types,
/// invalid Huffman tables, out-of-window distances or truncation, and
/// [`WireError::TooLarge`] on output exceeding the 1 GiB safety cap.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, WireError> {
    decompress_into(data, Vec::new(), MAX_OUTPUT).map(|(out, _)| out)
}

/// [`decompress`] into `out` (empty, with the capacity the caller sized),
/// failing once the output would pass `limit` bytes (at most
/// [`MAX_OUTPUT`]). Also returns how many bytes of `data` the stream
/// took, counting the final block's last byte (and its padding bits)
/// whole, so a caller can reject bytes that follow the stream.
pub(crate) fn decompress_into(
    data: &[u8],
    out: Vec<u8>,
    limit: usize,
) -> Result<(Vec<u8>, usize), WireError> {
    let mut out = Output {
        buf: out,
        pos: 0,
        limit: limit.min(MAX_OUTPUT),
    };
    let mut reader = BitReader::new(data);
    // Built on the first dynamic block: short bodies (fixed-code updates)
    // never pay for zeroing its arrays.
    let mut tables: Option<DynamicTables> = None;
    loop {
        let header = reader
            .read_bits(3)
            .ok_or_else(|| WireError::Deflate("missing block header".into()))?;
        let (bfinal, btype) = (header & 1, header >> 1);
        match btype {
            0b00 => inflate_stored(&mut reader, &mut out)?,
            0b01 => {
                let (lit, dist) = fixed_tables();
                inflate_block(&mut reader, &mut out, lit, dist)?;
            }
            0b10 => {
                let tables = tables.get_or_insert_with(DynamicTables::default);
                tables.read(&mut reader)?;
                inflate_block(&mut reader, &mut out, &tables.lit, &tables.dist)?;
            }
            _ => return Err(WireError::Deflate("reserved block type 11".into())),
        }
        if bfinal == 1 {
            break;
        }
    }
    out.buf.truncate(out.pos);
    Ok((out.buf, reader.consumed_bytes()))
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
        .ok_or_else(|| WireError::Deflate("truncated stored LEN".into()))? as u16;
    let nlen = reader
        .read_bits(16)
        .ok_or_else(|| WireError::Deflate("truncated stored NLEN".into()))? as u16;
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

/// Longest dynamic header: 286 literal/length and 30 distance lengths.
const MAX_HEADER_LENGTHS: usize = 286 + 30;

/// A dynamic block's two tables and the header reader's scratch, all
/// fixed arrays that live for the whole stream: a block's header rewrites
/// what it uses and clears nothing.
struct DynamicTables {
    lit: Decoder,
    dist: Decoder,
    /// `by_length[len]` starts with the symbols the header gives a
    /// `len`-bit code, in symbol order: literal/length symbols, then
    /// distance symbols numbered from HLIT. Row 0 is unused.
    by_length: [[u16; MAX_HEADER_LENGTHS]; MAX_BITS + 1],
}

impl Default for DynamicTables {
    fn default() -> Self {
        Self {
            lit: Decoder::default(),
            dist: Decoder::default(),
            by_length: [[0; MAX_HEADER_LENGTHS]; MAX_BITS + 1],
        }
    }
}

impl DynamicTables {
    /// Reads a dynamic block header into the tables.
    fn read(&mut self, stream: &mut BitReader<'_>) -> Result<(), WireError> {
        let trunc = || WireError::Deflate("truncated dynamic header".into());
        // A register-resident copy, as in `inflate_block`.
        let mut reader = stream.clone();
        let reader = &mut reader;

        // One refill (at least 56 bits) covers HLIT, HDIST and HCLEN (14
        // bits) and the first 14 code-length-code lengths (3 bits each), a
        // second one the other five.
        reader.refill();
        let bits = reader.peek_word();
        let hlit = low_bits(bits, 5) + 257;
        let hdist = low_bits(bits >> 5, 5) + 1;
        let hclen = low_bits(bits >> 10, 4) + 4;
        if !reader.consume(14) {
            return Err(trunc());
        }
        if hlit > 286 || hdist > 30 {
            return Err(WireError::Deflate(
                "dynamic header counts out of range".into(),
            ));
        }
        let mut clc_lengths = [0u8; 19];
        let (head, tail) = CLC_ORDER[..hclen].split_at(hclen.min(14));
        for order in [head, tail] {
            if order.is_empty() {
                break;
            }
            let bits = reader.peek_word();
            for (i, &symbol) in order.iter().enumerate() {
                clc_lengths[symbol] = low_bits(bits >> (3 * i), 3) as u8;
            }
            if !reader.consume(3 * order.len() as u32) {
                return Err(trunc());
            }
            reader.refill();
        }
        let (clc, clc_bits) = code_length_table(&clc_lengths)?;

        // Decode hlit + hdist code lengths with the code-length code,
        // listing each symbol that gets a code under its length, so the
        // table builds find their symbols already grouped and counted.
        let total = hlit + hdist;
        let by_length = &mut self.by_length;
        let mut count = [0usize; MAX_BITS + 1];
        let mut end_of_block = 0;
        let mut filled = 0;
        let mut prev = 0;
        while filled < total {
            // A refill covers a code (at most 7 bits) and its repeat
            // count (at most 7).
            if reader.buffered() < 14 {
                reader.refill();
            }
            let bits = reader.peek_word();
            let entry = clc[low_bits(bits, clc_bits) & 127];
            let code_len = u32::from(entry & 0xF);
            if code_len == 0 {
                return Err(WireError::Deflate("invalid huffman code".into()));
            }
            let symbol = usize::from(entry >> 4);
            if symbol < 16 {
                // A length on its own. Zero lengths collect in row 0,
                // which no build reads.
                if !reader.consume(code_len) {
                    return Err(trunc());
                }
                by_length[symbol][count[symbol]] = filled as u16;
                count[symbol] += 1;
                if filled == 256 {
                    end_of_block = symbol;
                }
                filled += 1;
                prev = symbol;
                continue;
            }
            let (value, base, extra) = match symbol {
                16 if filled == 0 => {
                    return Err(WireError::Deflate("repeat with no previous length".into()))
                }
                16 => (prev, 3, 2),
                17 => (0, 3, 3),
                _ => (0, 11, 7),
            };
            if !reader.consume(code_len + extra) {
                return Err(trunc());
            }
            let run = base + low_bits(bits >> code_len, extra);
            if filled + run > total {
                return Err(WireError::Deflate(
                    "code-length run overflows header".into(),
                ));
            }
            if value != 0 {
                for symbol in filled..filled + run {
                    by_length[value][count[value]] = symbol as u16;
                    count[value] += 1;
                }
            }
            if (filled..filled + run).contains(&256) {
                end_of_block = value;
            }
            filled += run;
            prev = value;
        }

        *stream = reader.clone();

        if end_of_block == 0 {
            return Err(WireError::Deflate("end-of-block symbol has no code".into()));
        }
        // Each row lists literal/length symbols before distance symbols.
        let mut lit: Groups<'_> = [&[]; MAX_BITS + 1];
        let mut dist: Groups<'_> = [&[]; MAX_BITS + 1];
        for (len, row) in by_length.iter().enumerate().skip(1) {
            let row = &row[..count[len]];
            let mut split = row.len();
            while split > 0 && usize::from(row[split - 1]) >= hlit {
                split -= 1;
            }
            (lit[len], dist[len]) = row.split_at(split);
        }
        self.lit.build(&lit, 0, Alphabet::LiteralLength)?;
        // A block with no back-references legally has zero distance codes;
        // a match in it then finds no valid distance code.
        if dist.iter().all(|group| group.is_empty()) {
            self.dist.clear();
            return Ok(());
        }
        self.dist.build(&dist, hlit as u16, Alphabet::Distance)
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
    dist: &Decoder,
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
        // A match needs up to 48 bits: refill (the code's bits stay put)
        // unless the loop's own refill left enough.
        if reader.buffered() < 48 {
            reader.refill();
        }
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
        // its destination starts, so it reads only finished bytes. Both
        // copies stay inside one window, checked once.
        let window = &mut buf[start..pos + 16];
        window.copy_within(..8, distance);
        window.copy_within(8..16, distance + 8);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::lz77::Effort;

    #[test]
    fn rejects_reserved_block_type() {
        // BFINAL=1, BTYPE=11.
        let err = decompress(&[0b0000_0111]).unwrap_err();
        assert!(matches!(err, WireError::Deflate(_)));
    }

    #[test]
    fn rejects_len_nlen_mismatch() {
        // BFINAL=1, BTYPE=00, then LEN=1, NLEN=0 (not complement).
        let bytes = [0b0000_0001u8, 0x01, 0x00, 0x00, 0x00, 0xAA];
        assert!(decompress(&bytes).is_err());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn rejects_truncated_streams() {
        let data = b"some reasonably long test payload, repeated: ".repeat(20);
        let packed = crate::deflate::compress(&data, Effort::DEFAULT);
        // Any strict prefix must fail, not panic or return wrong data.
        for cut in [1, packed.len() / 4, packed.len() / 2, packed.len() - 1] {
            let result = decompress(&packed[..cut]);
            if let Ok(out) = result {
                assert_ne!(out, data, "prefix of {cut} bytes decoded to full data");
            }
        }
    }

    #[test]
    fn fuzz_random_inputs_never_panic() {
        let mut state = 42u64;
        for round in 0..500 {
            let len = (round % 64) + 1;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 56) as u8
                })
                .collect();
            let _ = decompress(&bytes); // must not panic
        }
    }

    #[test]
    fn reports_the_bytes_the_stream_took() {
        let mut state = 7u32;
        let noise: Vec<u8> = (0..70_000)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        let text = b"{\"uid\":3,\"profile\":[1,2,3]}".repeat(40);
        for data in [&b""[..], b"x", &text, &noise] {
            for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
                // Fixed, dynamic and stored final blocks, each ending at
                // a byte boundary or inside its last byte.
                let packed = crate::deflate::compress(data, effort);
                let mut padded = packed.clone();
                padded.extend_from_slice(&[0xEE; 9]);
                let (out, consumed) = decompress_into(&padded, Vec::new(), MAX_OUTPUT).unwrap();
                assert_eq!(out, data);
                assert_eq!(consumed, packed.len(), "{} bytes", data.len());
            }
        }
    }

    #[test]
    fn multi_block_stored_stream() {
        let data = vec![7u8; 150_000]; // forces >2 stored chunks if stored used
        let packed = crate::deflate::compress(&data, Effort::DEFAULT);
        assert_eq!(decompress(&packed).unwrap(), data);
    }
}
