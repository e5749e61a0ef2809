//! CRC-32 (IEEE) with zlib-style combination.
//!
//! [`crc32`] is the checksum the gzip trailer uses. [`crc32_update`] runs
//! slicing-by-8: eight 256-entry tables, built at compile time, where
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so one
//! step folds eight input bytes with eight independent lookups instead of
//! eight dependent ones. Fewer than eight trailing bytes go bytewise
//! through `TABLES[0]`.
//!
//! **Lanes.** Each step still waits on the previous step's CRC. Inputs of
//! at least 1.5 kB (a browser's decoded job body) split into three equal
//! lanes of whole words that advance together: three independent chains
//! the CPU overlaps, 2.5× the single-lane speed on a 2-vCPU x86-64 VM
//! (48 → 18 µs for a 70 kB body). The lanes are joined with the x^(8n)
//! mod P products [`crc32_combine`] uses, and the last few bytes follow on
//! one lane. Shorter inputs, every fragment and prefix a server checksums
//! among them, stay on one lane.
//!
//! [`crc32_combine`] merges the CRCs of two concatenated byte ranges
//! without touching the bytes. Appending `n` bytes multiplies the first
//! CRC by x^(8n) modulo the CRC polynomial; as in zlib, that power comes
//! from a table of x^(2^k) mod P in about log2(8n) polynomial products.
//! [`ShiftOp`] caches the operator as a 32×32 GF(2) matrix so a server can
//! combine a request's worth of cached fragments in nanoseconds each. This
//! is what makes the fragment-cached job encoder viable.

/// CRC-32 polynomial (reflected).
const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables: `TABLES[0]` is the classic bytewise table and
/// `TABLES[k][b]` advances `TABLES[k - 1][b]` past one more zero byte.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                POLY ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data` (IEEE 802.3, as used by gzip).
///
/// ```
/// assert_eq!(hyrec_wire::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Inputs at least this long run three interleaved lanes. The threshold
/// keeps every cached fragment and job prefix a server checksums on the
/// one-lane loop, although the join (about 0.1 µs) already pays for itself
/// from a few hundred bytes: at 1536 bytes three lanes take 0.45 µs where
/// one takes 0.99 µs (2-vCPU x86-64 VM).
const LANES_MIN_LEN: usize = 1536;

/// Streaming form: feed `state` (start from `0xFFFF_FFFF`, finalize by
/// xor with `0xFFFF_FFFF`).
#[must_use]
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    if data.len() < LANES_MIN_LEN {
        return crc32_lane(state, data);
    }
    // Three equal lanes of whole words run as independent dependency
    // chains; the remainder (under 24 bytes) follows on one lane.
    let lane = data.len() / 24 * 8;
    let (a, rest) = data.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, tail) = rest.split_at(lane);
    let (mut crc_a, mut crc_b, mut crc_c) = (state, 0, 0);
    for ((a, b), c) in a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
    {
        crc_a = fold_word(crc_a, a);
        crc_b = fold_word(crc_b, b);
        crc_c = fold_word(crc_c, c);
    }
    // The register is linear in its state: running `state` over a lane is
    // `state · x^(8 · lane)` xor running 0 over it, so the lanes join as
    // ((crc_a · x^(8 · lane)) ^ crc_b) · x^(8 · lane) ^ crc_c.
    let shift = x2nmodp(lane as u64, 3);
    let crc = multmodp(shift, multmodp(shift, crc_a) ^ crc_b) ^ crc_c;
    crc32_lane(crc, tail)
}

/// One slicing-by-8 lane, then the last bytes one at a time.
fn crc32_lane(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        crc = fold_word(crc, word);
    }
    for &byte in words.remainder() {
        crc = TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Advances `crc` past the eight bytes of `word` with eight independent
/// table lookups.
#[inline(always)]
fn fold_word(crc: u32, word: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
    let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// A 32×32 GF(2) matrix as 32 column vectors.
type Matrix = [u32; 32];

/// `mat · vec` over GF(2): the XOR of the columns selected by `vec`'s bits.
///
/// Branchless — every column is masked by its bit (all ones or all zeros)
/// and folded in — so the cost does not depend on the data and the loop
/// vectorizes.
fn matrix_times(mat: &Matrix, vec: u32) -> u32 {
    let mut sum = 0u32;
    for (i, column) in mat.iter().enumerate() {
        sum ^= column & ((vec >> i) & 1).wrapping_neg();
    }
    sum
}

// Polynomials over GF(2) modulo P, in the CRC's reflected bit order: bit
// 31 is the coefficient of x^0 and bit 0 that of x^31.

/// `b · x mod P`.
const fn times_x(b: u32) -> u32 {
    if b & 1 == 1 {
        POLY ^ (b >> 1)
    } else {
        b >> 1
    }
}

/// `a · b mod P` for nonzero `a` (zlib's `multmodp`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = times_x(b);
    }
}

/// `X2N[k]` is x^(2^k) mod P. The sequence repeats with period 32, so
/// `X2N[k & 31]` serves every k.
static X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        table[k] = p;
        k += 1;
    }
    table
};

/// x^(n · 2^k) mod P (zlib's `x2nmodp`).
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 == 1 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Combines `crc32(a)` and `crc32(b)` into `crc32(a ++ b)` where
/// `len2 = b.len()`.
///
/// ```
/// use hyrec_wire::crc::{crc32, crc32_combine};
/// let (a, b) = (b"hello ".as_slice(), b"world".as_slice());
/// let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
/// assert_eq!(combined, crc32(b"hello world"));
/// ```
#[must_use]
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    // x^(8 · len2): k = 3 scales the byte count to bits.
    multmodp(x2nmodp(len2, 3), crc1) ^ crc2
}

/// A cached "advance CRC past `len` zero bytes" operator.
///
/// Building the operator costs one x^(8·len) mod P (about log2(len)
/// polynomial products) and 31 multiplications by x to spread it into
/// matrix columns, a fraction of a microsecond; applying it costs one
/// branchless 32-column matrix-vector product (~15 ns on a 2-vCPU x86-64
/// VM), so callers that repeatedly append the *same* fragment amortize the
/// cost to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftOp {
    matrix: Matrix,
    len: u64,
}

impl ShiftOp {
    /// Builds the operator for appending `len` bytes.
    #[must_use]
    pub fn for_len(len: u64) -> Self {
        // Column i is the image of bit i, the polynomial x^(31 − i): the
        // operator's power times x^(31 − i), so each column is the next
        // one times x.
        let mut matrix = [0u32; 32];
        let mut column = x2nmodp(len, 3);
        for entry in matrix.iter_mut().rev() {
            *entry = column;
            column = times_x(column);
        }
        Self { matrix, len }
    }

    /// The fragment length this operator advances past.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for the zero-length (identity) operator.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `crc32(a ++ b)` given `crc1 = crc32(a)`, `crc2 = crc32(b)` and
    /// `self = ShiftOp::for_len(b.len())`.
    ///
    /// Like [`crc32_combine`], a zero-length operator is the identity
    /// matrix, so the result is `crc1 ^ crc2` (and `crc32(b"")` is 0).
    #[must_use]
    pub fn combine(&self, crc1: u32, crc2: u32) -> u32 {
        matrix_times(&self.matrix, crc1) ^ crc2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"some bytes fed in two chunks";
        let mut state = 0xFFFF_FFFFu32;
        state = crc32_update(state, &data[..10]);
        state = crc32_update(state, &data[10..]);
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn combine_matches_direct() {
        let a = b"first fragment with some length".as_slice();
        let b = b"and a second one".as_slice();
        let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
        let direct = crc32(&[a, b].concat());
        assert_eq!(combined, direct);
    }

    #[test]
    fn combine_zero_length_is_identity() {
        let a = b"anything";
        assert_eq!(crc32_combine(crc32(a), crc32(b""), 0), crc32(a));
    }

    #[test]
    fn shift_op_matches_combine() {
        let a = b"0123456789abcdef".as_slice();
        let b = b"ghijklmnop".as_slice();
        let op = ShiftOp::for_len(b.len() as u64);
        assert_eq!(
            op.combine(crc32(a), crc32(b)),
            crc32_combine(crc32(a), crc32(b), b.len() as u64)
        );
        assert_eq!(op.len(), b.len() as u64);
    }

    #[test]
    fn shift_op_chains_many_fragments() {
        let fragments: Vec<Vec<u8>> = (0..20u8)
            .map(|i| {
                (0..=i)
                    .map(|j| j.wrapping_mul(37).wrapping_add(i))
                    .collect()
            })
            .collect();
        let mut crc = crc32(b"");
        let mut raw = Vec::new();
        for fragment in &fragments {
            let op = ShiftOp::for_len(fragment.len() as u64);
            crc = op.combine(crc, crc32(fragment));
            raw.extend_from_slice(fragment);
        }
        assert_eq!(crc, crc32(&raw));
    }

    /// The one-table, one-byte-per-step CRC that slicing-by-8 replaces.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |crc, &byte| {
            TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8)
        })
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 151 + 7) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, data),
                        bytewise(state, data),
                        "offset {offset} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_stream_matches_oneshot_at_every_cut() {
        let data: Vec<u8> = (0..200u32).map(|i| ((i * 31) ^ (i >> 3)) as u8).collect();
        for cut in 0..=data.len() {
            let state = crc32_update(0xFFFF_FFFF, &data[..cut]);
            let state = crc32_update(state, &data[cut..]);
            assert_eq!(state ^ 0xFFFF_FFFF, crc32(&data), "cut {cut}");
        }
    }

    /// Bytes from a xorshift generator.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn lanes_match_bytewise_at_every_length_to_4096() {
        let data = noise(1, 4096 + 7);
        for len in 0..=4096 {
            // Unaligned starts too: the lanes split at byte offsets.
            let offset = len % 8;
            let data = &data[offset..offset + len];
            assert_eq!(
                crc32_update(0xFFFF_FFFF, data),
                bytewise(0xFFFF_FFFF, data),
                "len {len}"
            );
        }
        for state in [0, 0x1234_5678, 0xFFFF_FFFF] {
            for len in [LANES_MIN_LEN - 1, LANES_MIN_LEN, LANES_MIN_LEN + 23, 4096] {
                let data = &data[..len];
                assert_eq!(crc32_update(state, data), bytewise(state, data), "{len}");
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn lanes_match_bytewise_up_to_256k(
                seed in any::<u64>(),
                len in prop_oneof![0usize..4096, 0usize..=256 * 1024],
                state in any::<u32>(),
            ) {
                let data = noise(seed, len);
                prop_assert_eq!(crc32_update(state, &data), bytewise(state, &data));
            }

            #[test]
            fn streamed_in_arbitrary_splits_matches_oneshot(
                seed in any::<u64>(),
                len in 0usize..40_000,
                cuts in proptest::collection::vec(any::<usize>(), 0..6),
            ) {
                let data = noise(seed, len);
                let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (len + 1)).collect();
                cuts.push(len);
                cuts.sort_unstable();
                let mut state = 0xFFFF_FFFF;
                let mut start = 0;
                for cut in cuts {
                    state = crc32_update(state, &data[start..cut]);
                    start = cut;
                }
                prop_assert_eq!(state ^ 0xFFFF_FFFF, crc32(&data));
                prop_assert_eq!(crc32(&data), bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF);
            }
        }

        proptest! {
            #[test]
            fn matches_bytewise_reference(
                data in proptest::collection::vec(any::<u8>(), 0..300),
                state in any::<u32>(),
            ) {
                prop_assert_eq!(crc32_update(state, &data), bytewise(state, &data));
            }

            #[test]
            fn combine_is_correct(
                a in proptest::collection::vec(any::<u8>(), 0..200),
                b in proptest::collection::vec(any::<u8>(), 0..200),
            ) {
                let combined = crc32_combine(crc32(&a), crc32(&b), b.len() as u64);
                prop_assert_eq!(combined, crc32(&[a, b].concat()));
            }

            #[test]
            fn branchless_shift_matches_combine(
                crc1 in any::<u32>(),
                crc2 in any::<u32>(),
                len in prop_oneof![Just(0u64), 1u64..64, 64u64..1_000_000, any::<u32>().prop_map(u64::from)],
            ) {
                prop_assert_eq!(
                    ShiftOp::for_len(len).combine(crc1, crc2),
                    crc32_combine(crc1, crc2, len)
                );
            }
        }
    }
}
