//! The DEFLATE compressor: token stream → smallest of stored / fixed / dynamic.

use super::bitio::BitWriter;
use super::huffman::{
    assign_codes, build_code_lengths, FIXED_DISTANCE_CODES, FIXED_DISTANCE_LENGTHS,
    FIXED_LITERAL_CODES, FIXED_LITERAL_LENGTHS, MAX_BITS,
};
use super::lz77::{tokenize, Effort, Token};
use super::{dist_to_code, length_to_code, CLC_ORDER};

/// Compresses `data` into a raw DEFLATE stream.
///
/// Encodes the whole input as one block (plus stored-block chunking when the
/// input is incompressible), picking whichever of stored / fixed-Huffman /
/// dynamic-Huffman encodings is smallest.
#[must_use]
pub fn compress(data: &[u8], effort: Effort) -> Vec<u8> {
    let mut writer = BitWriter::new();
    write_blocks(&mut writer, data, effort, true);
    writer.into_bytes()
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
    let mut writer = BitWriter::new();
    write_blocks(&mut writer, data, effort, false);
    // Sync flush: empty non-final stored block. Its header bits continue
    // the stream wherever the previous block ended; the stored framing then
    // realigns to a byte boundary, so the result is exactly byte-aligned.
    writer.write_bits(0, 1); // BFINAL = 0
    writer.write_bits(0b00, 2); // stored
    writer.align_to_byte();
    writer.write_bytes(&0u16.to_le_bytes());
    writer.write_bytes(&(!0u16).to_le_bytes());
    writer.into_bytes()
}

/// The 5-byte empty **final** stored block terminating a stream assembled
/// from [`compress_chunk`] pieces.
pub const STREAM_TERMINATOR: [u8; 5] = [0x01, 0x00, 0x00, 0xFF, 0xFF];

fn write_blocks(writer: &mut BitWriter, data: &[u8], effort: Effort, final_stream: bool) {
    let tokens = tokenize(data, effort);

    // Symbol frequencies (including the mandatory end-of-block symbol 256).
    let mut lit_freqs = [0u64; 286];
    let mut dist_freqs = [0u64; 30];
    lit_freqs[256] = 1;
    for token in &tokens {
        match *token {
            Token::Literal(b) => lit_freqs[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freqs[length_to_code(len).0 as usize] += 1;
                dist_freqs[dist_to_code(dist).0 as usize] += 1;
            }
        }
    }

    let dyn_lit_lengths = build_code_lengths(&lit_freqs, MAX_BITS);
    let dyn_dist_lengths = build_code_lengths(&dist_freqs, MAX_BITS);

    // Costs in bits.
    let fixed_cost = body_cost(
        &tokens,
        &FIXED_LITERAL_LENGTHS,
        &FIXED_DISTANCE_LENGTHS,
        &lit_freqs,
        &dist_freqs,
    );
    let (header, dyn_header_cost) = dynamic_header(&dyn_lit_lengths, &dyn_dist_lengths);
    let dyn_cost = dyn_header_cost
        + body_cost(
            &tokens,
            &dyn_lit_lengths,
            &dyn_dist_lengths,
            &lit_freqs,
            &dist_freqs,
        );
    let stored_cost = stored_cost_bits(data.len());

    let bfinal = u32::from(final_stream);
    if stored_cost <= fixed_cost.min(dyn_cost) {
        write_stored(writer, data, final_stream);
    } else if fixed_cost <= dyn_cost {
        writer.write_bits(bfinal, 1); // BFINAL
        writer.write_bits(0b01, 2); // fixed
        write_body(
            writer,
            &tokens,
            (&FIXED_LITERAL_LENGTHS, &FIXED_LITERAL_CODES),
            (&FIXED_DISTANCE_LENGTHS, &FIXED_DISTANCE_CODES),
        );
    } else {
        writer.write_bits(bfinal, 1); // BFINAL
        writer.write_bits(0b10, 2); // dynamic
        write_dynamic_header(writer, &header);
        write_body(
            writer,
            &tokens,
            (&dyn_lit_lengths, &assign_codes(&dyn_lit_lengths)),
            (&dyn_dist_lengths, &assign_codes(&dyn_dist_lengths)),
        );
    }
}

/// Bits needed to emit the token body under the given code lengths.
fn body_cost(
    _tokens: &[Token],
    lit_lengths: &[u8],
    dist_lengths: &[u8],
    lit_freqs: &[u64],
    dist_freqs: &[u64],
) -> u64 {
    let mut bits = 0u64;
    for (symbol, &freq) in lit_freqs.iter().enumerate() {
        if freq == 0 {
            continue;
        }
        let mut per = u64::from(lit_lengths[symbol]);
        if symbol >= 257 {
            per += u64::from(super::LENGTH_CODES[symbol - 257].1);
        }
        bits += freq * per;
    }
    for (symbol, &freq) in dist_freqs.iter().enumerate() {
        if freq == 0 {
            continue;
        }
        bits += freq * (u64::from(dist_lengths[symbol]) + u64::from(super::DIST_CODES[symbol].1));
    }
    bits + 3 // block header
}

fn stored_cost_bits(len: usize) -> u64 {
    // Each stored block: up to byte-align (≤7) + 3 header bits + 32 bits
    // LEN/NLEN + payload; blocks cap at 65535 bytes.
    let blocks = (len / 65535 + 1) as u64;
    blocks * (7 + 3 + 32) + (len as u64) * 8
}

fn write_stored(writer: &mut BitWriter, data: &[u8], final_stream: bool) {
    let mut chunks: Vec<&[u8]> = data.chunks(65535).collect();
    if chunks.is_empty() {
        chunks.push(&[]);
    }
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.iter().enumerate() {
        writer.write_bits(u32::from(i == last && final_stream), 1); // BFINAL
        writer.write_bits(0b00, 2); // stored
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
    tokens: &[Token],
    (lit_lengths, lit_codes): (&[u8], &[u16]),
    (dist_lengths, dist_codes): (&[u8], &[u16]),
) {
    let emit = |w: &mut BitWriter, codes: &[u16], lengths: &[u8], symbol: usize| {
        debug_assert!(lengths[symbol] > 0, "emitting symbol with no code");
        w.write_bits(u32::from(codes[symbol]), u32::from(lengths[symbol]));
    };
    for token in tokens {
        match *token {
            Token::Literal(b) => emit(writer, lit_codes, lit_lengths, b as usize),
            Token::Match { len, dist } => {
                let (lcode, lextra, lvalue) = length_to_code(len);
                emit(writer, lit_codes, lit_lengths, lcode as usize);
                if lextra > 0 {
                    writer.write_bits(u32::from(lvalue), u32::from(lextra));
                }
                let (dcode, dextra, dvalue) = dist_to_code(dist);
                emit(writer, dist_codes, dist_lengths, dcode as usize);
                if dextra > 0 {
                    writer.write_bits(u32::from(dvalue), u32::from(dextra));
                }
            }
        }
    }
    emit(writer, lit_codes, lit_lengths, 256); // end of block
}

/// A precomputed dynamic header: the RLE-compressed code-length sequence plus
/// the code-length-code tables.
struct DynamicHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    clc_lengths: Vec<u8>,
    clc_codes: Vec<u16>,
    /// `(symbol, extra_bits, extra_value)` triples of the RLE stream.
    rle: Vec<(u8, u8, u8)>,
}

/// Builds the dynamic header and returns it with its cost in bits.
fn dynamic_header(lit_lengths: &[u8], dist_lengths: &[u8]) -> (DynamicHeader, u64) {
    // DEFLATE requires hlit >= 257 and hdist >= 1; unused trailing codes trimmed.
    let hlit = (257..=286)
        .rev()
        .find(|&n| n == 257 || lit_lengths[n - 1] != 0)
        .unwrap_or(257);
    let hdist = (1..=30)
        .rev()
        .find(|&n| n == 1 || dist_lengths[n - 1] != 0)
        .unwrap_or(1);

    // Concatenate and RLE-encode with symbols 16 (repeat prev 3-6),
    // 17 (zeros 3-10), 18 (zeros 11-138).
    let mut all = Vec::with_capacity(hlit + hdist);
    all.extend_from_slice(&lit_lengths[..hlit]);
    all.extend_from_slice(&dist_lengths[..hdist]);

    let mut rle: Vec<(u8, u8, u8)> = Vec::new();
    let mut i = 0usize;
    while i < all.len() {
        let value = all[i];
        let mut run = 1usize;
        while i + run < all.len() && all[i + run] == value {
            run += 1;
        }
        if value == 0 {
            let mut remaining = run;
            while remaining >= 11 {
                let take = remaining.min(138);
                rle.push((18, 7, (take - 11) as u8));
                remaining -= take;
            }
            if remaining >= 3 {
                rle.push((17, 3, (remaining - 3) as u8));
                remaining = 0;
            }
            for _ in 0..remaining {
                rle.push((0, 0, 0));
            }
        } else {
            rle.push((value, 0, 0));
            let mut remaining = run - 1;
            while remaining >= 3 {
                let take = remaining.min(6);
                rle.push((16, 2, (take - 3) as u8));
                remaining -= take;
            }
            for _ in 0..remaining {
                rle.push((value, 0, 0));
            }
        }
        i += run;
    }

    // Code-length-code table from RLE symbol frequencies.
    let mut clc_freqs = vec![0u64; 19];
    for &(symbol, _, _) in &rle {
        clc_freqs[symbol as usize] += 1;
    }
    let clc_lengths = build_code_lengths(&clc_freqs, 7);
    let clc_codes = assign_codes(&clc_lengths);

    let hclen = (4..=19)
        .rev()
        .find(|&n| n == 4 || clc_lengths[CLC_ORDER[n - 1]] != 0)
        .unwrap_or(4);

    let mut cost = 5 + 5 + 4 + 3 * hclen as u64;
    for &(symbol, extra, _) in &rle {
        cost += u64::from(clc_lengths[symbol as usize]) + u64::from(extra);
    }

    (
        DynamicHeader {
            hlit,
            hdist,
            hclen,
            clc_lengths,
            clc_codes,
            rle,
        },
        cost,
    )
}

fn write_dynamic_header(writer: &mut BitWriter, header: &DynamicHeader) {
    writer.write_bits((header.hlit - 257) as u32, 5);
    writer.write_bits((header.hdist - 1) as u32, 5);
    writer.write_bits((header.hclen - 4) as u32, 4);
    for &order in CLC_ORDER.iter().take(header.hclen) {
        writer.write_bits(u32::from(header.clc_lengths[order]), 3);
    }
    for &(symbol, extra, value) in &header.rle {
        writer.write_bits(
            u32::from(header.clc_codes[symbol as usize]),
            u32::from(header.clc_lengths[symbol as usize]),
        );
        if extra > 0 {
            writer.write_bits(u32::from(value), u32::from(extra));
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
