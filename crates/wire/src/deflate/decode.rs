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
//!   process; a dynamic block's header is decoded into stack arrays and
//!   rebuilds three tables whose allocations live for the whole stream.
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
    entry_extra, entry_len, entry_value, Alphabet, Decoder, END_OF_BLOCK, FIXED_DISTANCE_LENGTHS,
    FIXED_LITERAL_LENGTHS, LITERAL, MAX_BITS, RESERVED,
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
    decompress_into(data, Vec::new(), MAX_OUTPUT)
}

/// [`decompress`] into `out` (empty, with the capacity the caller sized),
/// failing once the output would pass `limit` bytes (at most
/// [`MAX_OUTPUT`]).
pub(crate) fn decompress_into(
    data: &[u8],
    out: Vec<u8>,
    limit: usize,
) -> Result<Vec<u8>, WireError> {
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
        let (lit, dist) = coded.split_at(coded.partition_point(|&(s, _)| usize::from(s) < hlit));
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

        let dist =
            dist.ok_or_else(|| WireError::Deflate("match in block with no distance code".into()))?;
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
    fn multi_block_stored_stream() {
        let data = vec![7u8; 150_000]; // forces >2 stored chunks if stored used
        let packed = crate::deflate::compress(&data, Effort::DEFAULT);
        assert_eq!(decompress(&packed).unwrap(), data);
    }
}
