//! LSB-first bit I/O as required by DEFLATE (RFC 1951 §3.1.1).
//!
//! Data elements are packed starting from the least-significant bit of each
//! byte. Huffman codes are the one exception — they are packed starting from
//! the most-significant bit of the *code* — which callers handle by
//! bit-reversing codes before writing ([`reverse_bits`]).

/// Writes bit fields LSB-first into a byte vector.
///
/// Fields collect in a 64-bit accumulator that is stored to the buffer a
/// whole little-endian word at a time; [`Self::align_to_byte`] and
/// [`Self::into_bytes`] store what remains of the last word. A writer made
/// by `with_capacity` with a block's exact size never reallocates
/// and hands back an exact-size buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits accumulated but not yet stored (low bits are oldest).
    bit_buf: u64,
    /// Number of valid bits in `bit_buf` (always < 64).
    bit_count: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose buffer holds `bytes` bytes before it
    /// grows.
    #[must_use]
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Appends the low `count` bits of `value`, LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32` (DEFLATE fields never exceed 16 bits).
    pub fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "bit field too wide: {count}");
        debug_assert!(count == 32 || u64::from(value) < (1u64 << count));
        self.put(u64::from(value), count);
    }

    /// Appends `count < 64` bits; `value` must have no bits above them.
    /// A whole match (length code and extra bits, distance code and extra
    /// bits: at most 48 bits) goes in one call.
    #[inline(always)]
    pub(crate) fn put(&mut self, value: u64, count: u32) {
        debug_assert!(count < 64 && value >> count == 0);
        self.bit_buf |= value << self.bit_count;
        self.bit_count += count;
        if self.bit_count >= 64 {
            self.bytes.extend_from_slice(&self.bit_buf.to_le_bytes());
            self.bit_count -= 64;
            // The high bits of `value` that did not fit in the stored word
            // (none when it filled the word exactly).
            self.bit_buf = value >> (count - self.bit_count);
        }
    }

    /// Pads with zero bits to the next byte boundary (stored-block headers).
    pub fn align_to_byte(&mut self) {
        let whole = self.bit_count.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.bit_buf.to_le_bytes()[..whole]);
        self.bit_buf = 0;
        self.bit_count = 0;
    }

    /// Appends whole bytes; the writer must be byte-aligned.
    ///
    /// # Panics
    ///
    /// Panics if called while not at a byte boundary.
    pub fn write_bytes(&mut self, data: &[u8]) {
        assert_eq!(self.bit_count % 8, 0, "write_bytes requires byte alignment");
        self.align_to_byte();
        self.bytes.extend_from_slice(data);
    }

    /// Finishes the stream, flushing any partial byte (zero-padded).
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.bytes
    }
}

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
    #[must_use]
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
    pub(crate) fn refill(&mut self) {
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
    pub(crate) fn peek_word(&self) -> u64 {
        self.bit_buf
    }

    /// Number of buffered bits.
    #[inline(always)]
    pub(crate) fn buffered(&self) -> u32 {
        self.bit_count
    }

    /// Drops `count` buffered bits without refilling; `false` (consuming
    /// nothing) if fewer are buffered.
    #[inline(always)]
    pub(crate) fn consume(&mut self, count: u32) -> bool {
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

    /// Peeks up to `count` bits without consuming; missing high bits are zero
    /// (valid streams are padded, so a short peek near EOF still decodes).
    pub fn peek_bits(&mut self, count: u32) -> u32 {
        debug_assert!(count <= 32);
        self.refill();
        self.peek_bits_buffered(count)
    }

    fn peek_bits_buffered(&self, count: u32) -> u32 {
        (self.bit_buf & ((1u64 << count) - 1)) as u32
    }

    /// Consumes `count` bits previously peeked.
    ///
    /// Returns `false` if fewer than `count` bits remain.
    pub fn consume_bits(&mut self, count: u32) -> bool {
        if self.bit_count < count {
            self.refill();
        }
        self.consume(count)
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

    /// Input bytes consumed so far, counting a partly consumed byte whole.
    pub(crate) fn consumed_bytes(&self) -> usize {
        // The buffered bits are the last ones loaded before `pos`; whole
        // buffered bytes are not consumed yet.
        self.pos - (self.bit_count / 8) as usize
    }

    /// True when every bit has been consumed (ignoring final-byte padding).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.bytes.len() && self.bit_count < 8
    }
}

/// Reverses the low `count` bits of `value` (MSB-first Huffman packing).
///
/// ```
/// use hyrec_wire::deflate::bitio::reverse_bits;
/// assert_eq!(reverse_bits(0b110, 3), 0b011);
/// assert_eq!(reverse_bits(0b1, 1), 0b1);
/// ```
#[must_use]
pub const fn reverse_bits(value: u32, count: u32) -> u32 {
    // Reverse all 32 bits, then drop the reversed high bits (none survive
    // for count 0).
    if count == 0 {
        0
    } else {
        value.reverse_bits() >> (32 - count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11, 2);
        w.write_bits(0x5AA5, 16);
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.read_bits(16), Some(0x5AA5));
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_to_byte();
        w.write_bytes(&[0xAB, 0xCD]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 3);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1), Some(1));
        r.align_to_byte();
        assert_eq!(r.read_bytes(2), Some(&[0xAB, 0xCD][..]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = BitReader::new(&[0b1010_1010]);
        assert_eq!(r.peek_bits(4), 0b1010);
        assert_eq!(r.peek_bits(4), 0b1010);
        assert!(r.consume_bits(2));
        assert_eq!(r.peek_bits(2), 0b10);
    }

    #[test]
    fn peek_near_eof_zero_pads() {
        let mut r = BitReader::new(&[0b1]);
        assert_eq!(r.peek_bits(16), 1);
        assert!(r.consume_bits(8));
        assert!(!r.consume_bits(8));
    }

    #[test]
    fn reverse_bits_cases() {
        assert_eq!(reverse_bits(0, 0), 0);
        assert_eq!(reverse_bits(0b0001, 4), 0b1000);
        assert_eq!(reverse_bits(0b10110, 5), 0b01101);
        assert_eq!(reverse_bits(u32::MAX, 32), u32::MAX);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn arbitrary_fields_round_trip(
                fields in proptest::collection::vec((0u32..=u16::MAX as u32, 1u32..=16), 0..100)
            ) {
                let mut w = BitWriter::new();
                for (value, count) in &fields {
                    let masked = value & ((1 << count) - 1);
                    w.write_bits(masked, *count);
                }
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                for (value, count) in &fields {
                    let masked = value & ((1 << count) - 1);
                    prop_assert_eq!(r.read_bits(*count), Some(masked));
                }
            }

            #[test]
            fn double_reverse_is_identity(value in any::<u32>(), count in 0u32..=32) {
                let masked = if count == 32 { value } else { value & ((1u32 << count) - 1) };
                prop_assert_eq!(reverse_bits(reverse_bits(masked, count), count), masked);
            }

            #[test]
            fn reverse_matches_bit_by_bit(value in any::<u32>(), count in 0u32..=32) {
                let mut v = value;
                let mut expected = 0u32;
                for _ in 0..count {
                    expected = (expected << 1) | (v & 1);
                    v >>= 1;
                }
                prop_assert_eq!(reverse_bits(value, count), expected);
            }
        }
    }
}
