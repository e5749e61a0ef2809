//! DEFLATE (RFC 1951) compression, written from scratch.
//!
//! The paper's server gzips every JSON personalization job "on the fly"
//! (Section 4.2) and the browser natively inflates it; Figure 10's bandwidth
//! numbers are a direct function of this codec. [`compress`] chooses per
//! stream between a stored block, the fixed Huffman code, and a dynamic
//! Huffman code, whichever is smallest; [`decompress`] handles all three.
//!
//! ```
//! use hyrec_wire::deflate;
//! let data = br#"{"uid":1,"profile":[1,2,3,4,5,6,7,8]}"#.repeat(20);
//! let packed = deflate::compress(&data, deflate::lz77::Effort::DEFAULT);
//! assert!(packed.len() < data.len());
//! assert_eq!(deflate::decompress(&packed)?, data);
//! # Ok::<(), hyrec_wire::WireError>(())
//! ```

pub mod bitio;
pub mod huffman;
pub mod lz77;

mod decode;
mod encode;

pub use decode::decompress;
pub(crate) use decode::{decompress_into, MAX_OUTPUT};
pub use encode::{compress, compress_chunk, STREAM_TERMINATOR};

/// Length-code table: `(base_length, extra_bits)` for codes 257..=285.
pub(crate) const LENGTH_CODES: [(u16, u8); 29] = [
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

/// Distance-code table: `(base_distance, extra_bits)` for codes 0..=29.
pub(crate) const DIST_CODES: [(u16, u8); 30] = [
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

/// Order in which code-length-code lengths appear in a dynamic header.
pub(crate) const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Length-code index (symbol − 257) of every match length `3..=258`,
/// zlib's `_length_code`. Length 258 has its own code 285 (not 284 with
/// extra value 31).
pub(crate) static LENGTH_INDEX: [u8; 259] = {
    let mut table = [0u8; 259];
    let mut idx = 0;
    while idx < LENGTH_CODES.len() {
        let (base, extra) = LENGTH_CODES[idx];
        let mut len = base as usize;
        while len < base as usize + (1 << extra) && len <= 258 {
            table[len] = idx as u8;
            len += 1;
        }
        idx += 1;
    }
    table
};

/// Distance code of every distance, zlib's `_dist_code`: entry `d` for
/// `dist − 1 = d < 256`, entry `256 + (d >> 7)` above, where every code's
/// range is a multiple of 128 wide.
static DIST_INDEX: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut code = 0;
    while code < DIST_CODES.len() {
        let (base, extra) = DIST_CODES[code];
        let mut d = base as usize - 1;
        while d < base as usize - 1 + (1 << extra) {
            if d < 256 {
                table[d] = code as u8;
            } else {
                table[256 + (d >> 7)] = code as u8;
            }
            d += 1;
        }
        code += 1;
    }
    table
};

/// The distance code of `dist` (1..=32768).
#[inline(always)]
pub(crate) fn dist_index(dist: usize) -> usize {
    debug_assert!((1..=32768).contains(&dist));
    let d = dist - 1;
    usize::from(if d < 256 {
        DIST_INDEX[d]
    } else {
        DIST_INDEX[256 + (d >> 7)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finds the length code for `len` (3..=258): returns `(symbol, extra_bits, extra_value)`.
    fn length_to_code(len: u16) -> (u16, u8, u16) {
        let idx = usize::from(LENGTH_INDEX[usize::from(len)]);
        let (base, extra) = LENGTH_CODES[idx];
        (257 + idx as u16, extra, len - base)
    }

    /// Finds the distance code for `dist` (1..=32768).
    fn dist_to_code(dist: u16) -> (u16, u8, u16) {
        let idx = dist_index(usize::from(dist));
        let (base, extra) = DIST_CODES[idx];
        (idx as u16, extra, dist - base)
    }

    #[test]
    fn length_codes_cover_whole_range() {
        for len in 3u16..=258 {
            let (code, extra, value) = length_to_code(len);
            assert!((257..=285).contains(&code));
            let (base, eb) = LENGTH_CODES[(code - 257) as usize];
            assert_eq!(eb, extra);
            assert_eq!(base + value, len);
            assert!(u32::from(value) < (1 << extra) || extra == 0 && value == 0);
        }
    }

    #[test]
    fn len_258_uses_code_285() {
        assert_eq!(length_to_code(258), (285, 0, 0));
        // 257 falls in code 284 with extra value 30.
        assert_eq!(length_to_code(257).0, 284);
    }

    #[test]
    fn dist_codes_cover_whole_range() {
        for dist in 1u32..=32768 {
            let (code, extra, value) = dist_to_code(dist as u16);
            assert!(code < 30);
            let (base, eb) = DIST_CODES[code as usize];
            assert_eq!(eb, extra);
            assert_eq!(u32::from(base) + u32::from(value), dist);
            assert!(u32::from(value) < (1 << extra) || extra == 0 && value == 0);
        }
    }

    #[test]
    fn full_round_trip_all_block_types() {
        // Incompressible (stored), tiny (fixed), repetitive (dynamic).
        let mut rng_state = 0x12345678u32;
        let mut random = Vec::with_capacity(70_000);
        for _ in 0..70_000 {
            rng_state = rng_state.wrapping_mul(1664525).wrapping_add(1013904223);
            random.push((rng_state >> 24) as u8);
        }
        let tiny = b"hello".to_vec();
        let repetitive = b"the quick brown fox ".repeat(500);

        for data in [random, tiny, repetitive, Vec::new()] {
            let packed = compress(&data, lz77::Effort::DEFAULT);
            let unpacked = decompress(&packed).expect("round trip");
            assert_eq!(unpacked, data);
        }
    }
}
