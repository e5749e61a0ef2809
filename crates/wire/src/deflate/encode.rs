//! The DEFLATE compressor: token stream → smallest of stored / fixed / dynamic.
//!
//! One call tokenizes on its thread's reused tables (see [`super::lz77`]),
//! which also count the symbols; builds both dynamic codes, the dynamic
//! header and the canonical codes in stack arrays; prices the stored, fixed
//! and dynamic encodings in bits; and writes the cheapest through a 64-bit
//! [`BitWriter`] sized from that exact cost. The only allocation is the
//! returned buffer, and its length equals its capacity.

use super::bitio::BitWriter;
use super::huffman::{
    fill_code_lengths, fill_codes, FIXED_DISTANCE_CODES, FIXED_DISTANCE_LENGTHS,
    FIXED_LITERAL_CODES, FIXED_LITERAL_LENGTHS, MAX_BITS,
};
use super::lz77::{self, Effort, Packed, SymbolCounts};
use super::{dist_index, CLC_ORDER, DIST_CODES, LENGTH_CODES, LENGTH_INDEX};

/// Compresses `data` into a raw DEFLATE stream.
///
/// Encodes the whole input as one block (plus stored-block chunking when the
/// input is incompressible), picking whichever of stored / fixed-Huffman /
/// dynamic-Huffman encodings is smallest.
#[must_use]
pub fn compress(data: &[u8], effort: Effort) -> Vec<u8> {
    encode(data, effort, true)
}

/// Compresses `data` as a **non-final, byte-aligned chunk** — the
/// `Z_SYNC_FLUSH` framing of zlib.
///
/// The output consists of complete non-final DEFLATE blocks followed by an
/// empty non-final stored block that realigns the stream to a byte
/// boundary. Chunks produced this way concatenate freely; terminate the
/// assembled stream with [`STREAM_TERMINATOR`] to finish the member.
///
/// This is what lets a server cache *compressed* response fragments and
/// assemble gzip bodies by memcpy (see `hyrec_server::encoder`).
///
/// ```
/// use hyrec_wire::deflate::{self, lz77::Effort, STREAM_TERMINATOR};
/// let mut stream = deflate::compress_chunk(b"hello ", Effort::FAST);
/// stream.extend_from_slice(&deflate::compress_chunk(b"world", Effort::FAST));
/// stream.extend_from_slice(&STREAM_TERMINATOR);
/// assert_eq!(deflate::decompress(&stream)?, b"hello world");
/// # Ok::<(), hyrec_wire::WireError>(())
/// ```
#[must_use]
pub fn compress_chunk(data: &[u8], effort: Effort) -> Vec<u8> {
    encode(data, effort, false)
}

/// The 5-byte empty **final** stored block terminating a stream assembled
/// from [`compress_chunk`] pieces.
pub const STREAM_TERMINATOR: [u8; 5] = [0x01, 0x00, 0x00, 0xFF, 0xFF];

/// Largest payload of one stored block.
const STORED_MAX: usize = 65535;

fn encode(data: &[u8], effort: Effort, final_stream: bool) -> Vec<u8> {
    lz77::with_tokens(data, effort, |tokens, counts| {
        let mut lit_lengths = [0u8; 286];
        let mut dist_lengths = [0u8; 30];
        fill_code_lengths(&counts.lit, MAX_BITS, &mut lit_lengths);
        fill_code_lengths(&counts.dist, MAX_BITS, &mut dist_lengths);

        // Costs in bits, each exact.
        let fixed_cost = body_cost(&FIXED_LITERAL_LENGTHS, &FIXED_DISTANCE_LENGTHS, counts);
        let header = DynamicHeader::new(&lit_lengths, &dist_lengths);
        let dyn_cost = header.cost + body_cost(&lit_lengths, &dist_lengths, counts);
        let stored_blocks = data.len().div_ceil(STORED_MAX).max(1);
        // The choice prices a stored block with up to 7 alignment bits (an
        // overestimate); which block wins, and so every output byte,
        // depends on this formula.
        let stored_cost =
            (data.len() / STORED_MAX + 1) as u64 * (7 + 3 + 32) + data.len() as u64 * 8;

        let stored = stored_cost <= fixed_cost.min(dyn_cost);
        // The exact output size. A stored block is a header byte, LEN/NLEN
        // and the payload; a chunk's sync flush adds 3 header bits, the
        // alignment and LEN/NLEN.
        let (bits, flush) = if final_stream { (0, 0) } else { (3, 4) };
        let size = if stored {
            stored_blocks * 5 + data.len() + (bits as usize).div_ceil(8) + flush
        } else {
            (fixed_cost.min(dyn_cost) + bits).div_ceil(8) as usize + flush
        };
        let mut writer = BitWriter::with_capacity(size);
        let bfinal = u64::from(final_stream);
        if stored {
            write_stored(&mut writer, data, final_stream);
        } else if fixed_cost <= dyn_cost {
            writer.put(bfinal | 0b01 << 1, 3);
            write_body(
                &mut writer,
                tokens,
                (&FIXED_LITERAL_LENGTHS, &FIXED_LITERAL_CODES),
                (&FIXED_DISTANCE_LENGTHS, &FIXED_DISTANCE_CODES),
            );
        } else {
            writer.put(bfinal | 0b10 << 1, 3);
            header.write(&mut writer);
            let mut lit_codes = [0u16; 286];
            let mut dist_codes = [0u16; 30];
            fill_codes(&lit_lengths, &mut lit_codes);
            fill_codes(&dist_lengths, &mut dist_codes);
            write_body(
                &mut writer,
                tokens,
                (&lit_lengths, &lit_codes),
                (&dist_lengths, &dist_codes),
            );
        }
        if !final_stream {
            // Sync flush: empty non-final stored block. Its header bits
            // continue the stream wherever the previous block ended; the
            // stored framing then realigns to a byte boundary, so the
            // result is exactly byte-aligned.
            writer.put(0, 3);
            writer.align_to_byte();
            writer.write_bytes(&[0x00, 0x00, 0xFF, 0xFF]);
        }
        let bytes = writer.into_bytes();
        debug_assert_eq!(bytes.len(), bytes.capacity());
        bytes
    })
}

/// Bits needed to emit a block of the counted symbols under the given code
/// lengths, the 3 block-header bits included.
fn body_cost(lit_lengths: &[u8], dist_lengths: &[u8], counts: &SymbolCounts) -> u64 {
    let mut bits = 3u64;
    for (&freq, &len) in counts.lit[..257].iter().zip(lit_lengths) {
        bits += freq * u64::from(len);
    }
    for ((&freq, &len), &(_, extra)) in counts.lit[257..]
        .iter()
        .zip(&lit_lengths[257..])
        .zip(&LENGTH_CODES)
    {
        bits += freq * u64::from(len + extra);
    }
    for ((&freq, &len), &(_, extra)) in counts.dist.iter().zip(dist_lengths).zip(&DIST_CODES) {
        bits += freq * u64::from(len + extra);
    }
    bits
}

fn write_stored(writer: &mut BitWriter, data: &[u8], final_stream: bool) {
    let blocks = data.len().div_ceil(STORED_MAX).max(1);
    for i in 0..blocks {
        let chunk = &data[i * STORED_MAX..((i + 1) * STORED_MAX).min(data.len())];
        // BFINAL, then block type 00 (stored).
        writer.put(u64::from(i == blocks - 1 && final_stream), 3);
        writer.align_to_byte();
        let len = chunk.len() as u16;
        writer.write_bytes(&len.to_le_bytes());
        writer.write_bytes(&(!len).to_le_bytes());
        writer.write_bytes(chunk);
    }
}

/// Emits the tokens and the end-of-block symbol under the given codes,
/// each a `(lengths, bit-reversed codes)` pair.
fn write_body(
    writer: &mut BitWriter,
    tokens: &[Packed],
    (lit_lengths, lit_codes): (&[u8], &[u16]),
    (dist_lengths, dist_codes): (&[u8], &[u16]),
) {
    for &token in tokens {
        if token < 256 {
            let symbol = token as usize;
            writer.put(u64::from(lit_codes[symbol]), u32::from(lit_lengths[symbol]));
            continue;
        }
        // A whole match in one write: length code, its extra bits,
        // distance code, its extra bits (at most 15 + 5 + 15 + 13 bits).
        let len = (token >> 16) as usize;
        let distance = (token & 0xFFFF) as usize;
        let index = usize::from(LENGTH_INDEX[len]);
        let (len_base, len_extra) = LENGTH_CODES[index];
        let symbol = 257 + index;
        let mut bits = u64::from(lit_codes[symbol]);
        let mut count = u32::from(lit_lengths[symbol]);
        bits |= ((len - usize::from(len_base)) as u64) << count;
        count += u32::from(len_extra);
        let code = dist_index(distance);
        let (dist_base, dist_extra) = DIST_CODES[code];
        bits |= u64::from(dist_codes[code]) << count;
        count += u32::from(dist_lengths[code]);
        bits |= ((distance - usize::from(dist_base)) as u64) << count;
        count += u32::from(dist_extra);
        writer.put(bits, count);
    }
    writer.put(u64::from(lit_codes[256]), u32::from(lit_lengths[256])); // end of block
}

/// Most code lengths a dynamic header lists: 286 literal/length plus 30
/// distance codes.
const MAX_HEADER_LENGTHS: usize = 286 + 30;

/// A dynamic block header: the RLE-compressed code-length sequence plus the
/// code-length code, and its cost in bits.
struct DynamicHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    clc_lengths: [u8; 19],
    clc_codes: [u16; 19],
    /// `(symbol, extra_value)` pairs of the RLE stream.
    rle: [(u8, u8); MAX_HEADER_LENGTHS],
    rle_len: usize,
    cost: u64,
}

/// Extra bits after a code-length-code symbol: 16 repeats the previous
/// length 3–6 times, 17 and 18 write 3–10 and 11–138 zeros.
fn clc_extra_bits(symbol: u8) -> u32 {
    match symbol {
        16 => 2,
        17 => 3,
        18 => 7,
        _ => 0,
    }
}

impl DynamicHeader {
    fn new(lit_lengths: &[u8; 286], dist_lengths: &[u8; 30]) -> Self {
        // DEFLATE requires hlit >= 257 and hdist >= 1; unused trailing codes
        // are trimmed.
        let hlit = 257
            + lit_lengths[257..]
                .iter()
                .rposition(|&l| l != 0)
                .map_or(0, |i| i + 1);
        let hdist = 1 + dist_lengths[1..]
            .iter()
            .rposition(|&l| l != 0)
            .map_or(0, |i| i + 1);

        let mut all = [0u8; MAX_HEADER_LENGTHS];
        all[..hlit].copy_from_slice(&lit_lengths[..hlit]);
        all[hlit..hlit + hdist].copy_from_slice(&dist_lengths[..hdist]);
        let all = &all[..hlit + hdist];

        // Run-length encode with symbols 16 (repeat previous 3-6), 17
        // (zeros 3-10) and 18 (zeros 11-138).
        let mut rle = [(0u8, 0u8); MAX_HEADER_LENGTHS];
        let mut rle_len = 0;
        let mut push = |symbol: u8, extra_value: u8| {
            rle[rle_len] = (symbol, extra_value);
            rle_len += 1;
        };
        let mut i = 0usize;
        while i < all.len() {
            let value = all[i];
            let run = 1 + all[i + 1..].iter().take_while(|&&l| l == value).count();
            let mut remaining = run;
            if value == 0 {
                while remaining >= 11 {
                    let take = remaining.min(138);
                    push(18, (take - 11) as u8);
                    remaining -= take;
                }
                if remaining >= 3 {
                    push(17, (remaining - 3) as u8);
                    remaining = 0;
                }
            } else {
                push(value, 0);
                remaining -= 1;
                while remaining >= 3 {
                    let take = remaining.min(6);
                    push(16, (take - 3) as u8);
                    remaining -= take;
                }
            }
            for _ in 0..remaining {
                push(value, 0);
            }
            i += run;
        }

        // The code-length code, from the RLE symbol frequencies.
        let mut clc_freqs = [0u64; 19];
        for &(symbol, _) in &rle[..rle_len] {
            clc_freqs[usize::from(symbol)] += 1;
        }
        let mut clc_lengths = [0u8; 19];
        fill_code_lengths(&clc_freqs, 7, &mut clc_lengths);
        let mut clc_codes = [0u16; 19];
        fill_codes(&clc_lengths, &mut clc_codes);
        let hclen = 4 + CLC_ORDER[4..]
            .iter()
            .rposition(|&s| clc_lengths[s] != 0)
            .map_or(0, |i| i + 1);

        let mut cost = 5 + 5 + 4 + 3 * hclen as u64;
        for (&freq, (symbol, &len)) in clc_freqs.iter().zip(clc_lengths.iter().enumerate()) {
            cost += freq * u64::from(u32::from(len) + clc_extra_bits(symbol as u8));
        }

        Self {
            hlit,
            hdist,
            hclen,
            clc_lengths,
            clc_codes,
            rle,
            rle_len,
            cost,
        }
    }

    fn write(&self, writer: &mut BitWriter) {
        writer.put(
            (self.hlit - 257) as u64
                | ((self.hdist - 1) as u64) << 5
                | ((self.hclen - 4) as u64) << 10,
            14,
        );
        for &symbol in &CLC_ORDER[..self.hclen] {
            writer.put(u64::from(self.clc_lengths[symbol]), 3);
        }
        for &(symbol, extra_value) in &self.rle[..self.rle_len] {
            let len = u32::from(self.clc_lengths[usize::from(symbol)]);
            writer.put(
                u64::from(self.clc_codes[usize::from(symbol)]) | u64::from(extra_value) << len,
                len + clc_extra_bits(symbol),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::decompress;

    #[test]
    fn empty_input_produces_valid_stream() {
        let packed = compress(b"", Effort::DEFAULT);
        assert!(!packed.is_empty());
        assert_eq!(decompress(&packed).unwrap(), b"");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"abcdefgh".repeat(1000);
        let packed = compress(&data, Effort::DEFAULT);
        assert!(packed.len() < data.len() / 10, "got {} bytes", packed.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        // High-entropy bytes: stored must win, with only ~5 bytes/block overhead.
        let mut state = 0x9E3779B9u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let packed = compress(&data, Effort::DEFAULT);
        assert!(packed.len() < data.len() + 64);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn json_like_payload_hits_target_ratio() {
        // The paper reports ~71% compression on JSON profiles (Figure 10).
        let mut doc = String::from("{\"profiles\":[");
        for u in 0..200 {
            if u > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("{{\"uid\":{u},\"items\":["));
            for i in 0..50 {
                if i > 0 {
                    doc.push(',');
                }
                doc.push_str(&format!("{}", (u * 37 + i * 13) % 5000));
            }
            doc.push_str("]}");
        }
        doc.push_str("]}");
        let data = doc.into_bytes();
        let packed = compress(&data, Effort::DEFAULT);
        let ratio = 1.0 - packed.len() as f64 / data.len() as f64;
        assert!(ratio > 0.55, "compression ratio too low: {ratio:.2}");
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn compress_decompress_identity(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
                for effort in [Effort::FAST, Effort::DEFAULT] {
                    let packed = compress(&data, effort);
                    prop_assert_eq!(decompress(&packed).unwrap(), data.clone());
                }
            }

            #[test]
            fn compressible_text_identity(words in proptest::collection::vec("[a-f ]{1,12}", 0..300)) {
                let data = words.concat().into_bytes();
                let packed = compress(&data, Effort::BEST);
                prop_assert_eq!(decompress(&packed).unwrap(), data);
            }
        }
    }
}
