//! gzip (RFC 1952) framing over our DEFLATE implementation.
//!
//! The paper's server compresses JSON messages "on the fly" with gzip and
//! browsers decompress natively (Section 4.2). This module provides the same
//! frame: 10-byte header, DEFLATE payload, CRC-32 and length trailer.

use crate::deflate::{self, lz77::Effort};
use crate::error::WireError;

/// CRC-32 (IEEE 802.3) used by the gzip trailer; see [`crate::crc`].
pub use crate::crc::crc32;

/// The fixed gzip header we emit: deflate method, no flags, no mtime,
/// "unknown" OS — byte-stable so message sizes are reproducible. Public so
/// chunk-assembling encoders (`hyrec_server::encoder`) can frame members
/// themselves.
pub const HEADER: [u8; 10] = [0x1F, 0x8B, 0x08, 0, 0, 0, 0, 0, 0, 0xFF];

/// Compresses `data` into a gzip member with default effort.
#[must_use]
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with(data, Effort::DEFAULT)
}

/// Compresses `data` into a gzip member with explicit matcher effort.
#[must_use]
pub fn compress_with(data: &[u8], effort: Effort) -> Vec<u8> {
    let body = deflate::compress(data, effort);
    let mut out = Vec::with_capacity(HEADER.len() + body.len() + 8);
    out.extend_from_slice(&HEADER);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses a single-member gzip frame, verifying CRC-32 and length.
///
/// # Errors
///
/// Returns [`WireError::Gzip`] on bad magic/method/flags, a header that
/// runs past the frame, bytes between the end of the DEFLATE stream and
/// the trailer (a second member included), or trailer mismatches, [`WireError::Deflate`] if
/// the payload is malformed, and [`WireError::TooLarge`] if it inflates
/// past the 1 GiB safety cap.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, WireError> {
    decompress_limited(data, deflate::MAX_OUTPUT)
}

/// [`decompress`], failing with [`WireError::TooLarge`] as soon as the
/// output would pass `max_len` bytes: neither the output buffer nor the
/// capacity reserved from the trailer ever exceeds `max_len`, so an
/// untrusted body buys at most that much memory whatever it inflates to.
///
/// # Errors
///
/// As [`decompress`], plus output longer than `max_len`.
pub fn decompress_limited(data: &[u8], max_len: usize) -> Result<Vec<u8>, WireError> {
    if data.len() < 18 {
        return Err(WireError::Gzip(
            "frame shorter than header + trailer".into(),
        ));
    }
    if data[0] != 0x1F || data[1] != 0x8B {
        return Err(WireError::Gzip("bad magic bytes".into()));
    }
    if data[2] != 0x08 {
        return Err(WireError::Gzip(format!("unsupported method {}", data[2])));
    }
    let flags = data[3];
    // Optional header fields lie between the fixed header and the trailer;
    // every skip is checked against that span.
    let (body, trailer) = data.split_at(data.len() - 8);
    let truncated = |field: &str| WireError::Gzip(format!("truncated {field}"));
    let mut offset = 10usize;
    // FEXTRA
    if flags & 0x04 != 0 {
        let xlen = body
            .get(offset..offset + 2)
            .ok_or_else(|| truncated("FEXTRA"))?;
        let xlen = usize::from(u16::from_le_bytes([xlen[0], xlen[1]]));
        offset += 2 + xlen;
        if offset > body.len() {
            return Err(truncated("FEXTRA"));
        }
    }
    // FNAME, FCOMMENT: zero-terminated strings.
    for flag in [0x08u8, 0x10] {
        if flags & flag != 0 {
            let end = body[offset..]
                .iter()
                .position(|&b| b == 0)
                .ok_or_else(|| WireError::Gzip("unterminated name/comment".into()))?;
            offset += end + 1;
        }
    }
    // FHCRC
    if flags & 0x02 != 0 {
        offset += 2;
        if offset > body.len() {
            return Err(truncated("FHCRC"));
        }
    }
    let payload = &body[offset..];
    let expect_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let expect_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    let out = Vec::with_capacity(output_capacity(payload.len(), expect_len, max_len));
    let (out, consumed) = deflate::decompress_into(payload, out, max_len)?;
    if consumed != payload.len() {
        return Err(WireError::Gzip(
            "bytes between the deflate stream and the trailer".into(),
        ));
    }
    if crc32(&out) != expect_crc {
        return Err(WireError::Gzip("crc mismatch".into()));
    }
    if out.len() as u32 != expect_len {
        return Err(WireError::Gzip("length mismatch".into()));
    }
    Ok(out)
}

/// Most bytes one DEFLATE payload byte can inflate to: a 258-byte match
/// coded in two bits.
const MAX_EXPANSION: usize = 1032;

/// Output capacity to reserve for a `payload_len`-byte DEFLATE payload
/// whose trailer claims `isize` bytes: the claim, but never more than the
/// payload could expand to, the caller's `max_len` or the inflate safety
/// cap, since the trailer is untrusted until the CRC and length checks
/// pass.
pub(crate) fn output_capacity(payload_len: usize, isize: u32, max_len: usize) -> usize {
    (isize as usize)
        .min(payload_len.saturating_mul(MAX_EXPANSION))
        .min(max_len)
        .min(deflate::MAX_OUTPUT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trip() {
        let data = b"{\"uid\":7,\"profile\":[1,2,3]}".repeat(50);
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn empty_round_trip() {
        let packed = compress(b"");
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn detects_corruption() {
        let data = b"sensitive payload that must be integrity checked".repeat(10);
        let mut packed = compress(&data);
        // Flip a payload byte: either inflate fails or the CRC catches it.
        let middle = packed.len() / 2;
        packed[middle] ^= 0xFF;
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn detects_bad_magic_and_short_input() {
        assert!(decompress(&[0u8; 4]).is_err());
        let mut packed = compress(b"x");
        packed[0] = 0;
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn rejects_wrong_method() {
        let mut packed = compress(b"x");
        packed[2] = 0x07;
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn accepts_fname_flag() {
        // Hand-build a frame with FNAME set.
        let inner = compress(b"hello world hello world");
        let mut framed = Vec::new();
        framed.extend_from_slice(&[0x1F, 0x8B, 0x08, 0x08, 0, 0, 0, 0, 0, 0xFF]);
        framed.extend_from_slice(b"file.json\0");
        framed.extend_from_slice(&inner[10..]); // deflate body + trailer
        assert_eq!(decompress(&framed).unwrap(), b"hello world hello world");
    }

    #[test]
    fn oversized_fextra_is_an_error_not_a_panic() {
        // FEXTRA | FNAME with XLEN = 0xFFFF in a 22-byte frame: the skip
        // runs past the end, where the name scan must not slice.
        let mut frame = vec![0x1F, 0x8B, 0x08, 0x0C, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF];
        frame.extend_from_slice(&[0; 10]);
        assert_eq!(frame.len(), 22);
        assert!(matches!(decompress(&frame), Err(WireError::Gzip(_))));
    }

    #[test]
    fn header_fields_past_the_payload_are_errors() {
        let frame = |flags: u8, tail: &[u8]| {
            let mut f = vec![0x1F, 0x8B, 0x08, flags, 0, 0, 0, 0, 0, 0xFF];
            f.extend_from_slice(tail);
            f
        };
        for bad in [
            // FEXTRA whose XLEN reaches into the trailer.
            frame(0x04, &[7, 0, 1, 2, 3, 4, 5, 6, 7, 8]),
            // FHCRC with no room before the trailer.
            frame(0x02, &[0; 9]),
            // FNAME terminated only inside the trailer.
            frame(0x08, &[b'a', 1, 1, 1, 0, 0, 0, 0, 0]),
            // FCOMMENT never terminated.
            frame(0x10, &[b'c'; 12]),
        ] {
            assert!(
                matches!(decompress(&bad), Err(WireError::Gzip(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn accepts_every_optional_header_field() {
        let inner = compress(b"header fields");
        let mut framed = vec![0x1F, 0x8B, 0x08, 0x1E, 0, 0, 0, 0, 0, 0xFF];
        framed.extend_from_slice(&[3, 0, b'x', b'y', b'z']); // FEXTRA
        framed.extend_from_slice(b"name\0comment\0"); // FNAME, FCOMMENT
        framed.extend_from_slice(&[0xAB, 0xCD]); // FHCRC (not verified)
        framed.extend_from_slice(&inner[10..]);
        assert_eq!(decompress(&framed).unwrap(), b"header fields");
    }

    #[test]
    fn lying_isize_is_a_length_mismatch_and_capacity_is_clamped() {
        let mut packed = compress(b"tiny");
        let payload_len = packed.len() - 18;
        let n = packed.len();
        packed[n - 4..].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        assert_eq!(
            decompress(&packed),
            Err(WireError::Gzip("length mismatch".into()))
        );
        let max = deflate::MAX_OUTPUT;
        assert_eq!(
            output_capacity(payload_len, 0xFFFF_FFF0, max),
            payload_len * MAX_EXPANSION
        );
        assert_eq!(output_capacity(payload_len, 4, max), 4);
        assert_eq!(
            output_capacity(usize::MAX, u32::MAX, max),
            max.min(u32::MAX as usize)
        );
        assert_eq!(output_capacity(usize::MAX, u32::MAX, 1000), 1000);
    }

    #[test]
    fn output_past_the_limit_is_an_error() {
        let data = b" ".repeat(10_000);
        let packed = compress(&data);
        assert_eq!(decompress_limited(&packed, data.len()).unwrap(), data);
        assert_eq!(
            decompress_limited(&packed, data.len() - 1),
            Err(WireError::TooLarge {
                limit: data.len() - 1
            })
        );
    }

    #[test]
    fn bytes_between_the_final_block_and_the_trailer_are_an_error() {
        let data = b"{\"uid\":7,\"neighbors\":[8,9]}".repeat(3);
        let packed = compress(&data);
        let (front, trailer) = packed.split_at(packed.len() - 8);
        let mut padded = front.to_vec();
        padded.extend_from_slice(&[0xA5; 1000]);
        padded.extend_from_slice(trailer);
        assert!(matches!(decompress(&padded), Err(WireError::Gzip(_))));
        // One stray byte, even a zero one, is enough.
        let mut padded = front.to_vec();
        padded.push(0);
        padded.extend_from_slice(trailer);
        assert!(matches!(decompress(&padded), Err(WireError::Gzip(_))));
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn concatenated_members_are_an_error() {
        let packed = compress(b"one member, then the same member again");
        let twice = [packed.as_slice(), packed.as_slice()].concat();
        assert!(matches!(decompress(&twice), Err(WireError::Gzip(_))));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn mutated_header_fields_never_panic(
                flags in any::<u8>(),
                xlen in any::<u16>(),
                name in proptest::collection::vec(any::<u8>(), 0..12),
                cut in any::<usize>(),
            ) {
                let inner = compress(b"{\"uid\":1,\"neighbors\":[]}");
                let mut frame = inner[..10].to_vec();
                frame[3] = flags;
                frame.extend_from_slice(&xlen.to_le_bytes());
                frame.extend_from_slice(&name);
                frame.extend_from_slice(&inner[10..]);
                let _ = decompress(&frame);
                // Truncated anywhere, too.
                let _ = decompress(&frame[..cut % (frame.len() + 1)]);
            }

            #[test]
            fn gzip_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
                let packed = compress(&data);
                prop_assert_eq!(decompress(&packed).unwrap(), data);
            }

            #[test]
            fn decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
                let _ = decompress(&data);
            }
        }
    }
}
