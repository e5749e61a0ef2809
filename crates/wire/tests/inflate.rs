//! Differential tests for inflate: hand-built and encoder-built DEFLATE
//! streams must decode to exactly the bytes they describe, and broken ones
//! must fail without panicking.
//!
//! The hand-built streams use the fixed Huffman code through an encoder
//! written here from RFC 1951's tables, so they pin the decoder's match
//! handling (overlapping copies, distance equal to the output length)
//! independently of the crate's own compressor.

use hyrec_wire::crc::crc32;
use hyrec_wire::deflate::bitio::BitWriter;
use hyrec_wire::deflate::huffman::{assign_codes, FIXED_DISTANCE_LENGTHS, FIXED_LITERAL_LENGTHS};
use hyrec_wire::deflate::lz77::Effort;
use hyrec_wire::deflate::{self, compress_chunk, STREAM_TERMINATOR};
use hyrec_wire::{gzip, WireError};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single allocation each thread asks for, so a test
/// can bound what one decode reserves.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; `note` only updates a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

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

/// Appends one fixed-Huffman block holding `tokens`.
fn fixed_block(w: &mut BitWriter, tokens: &[Token], last: bool) {
    let lit_codes = assign_codes(&FIXED_LITERAL_LENGTHS);
    let dist_codes = assign_codes(&FIXED_DISTANCE_LENGTHS);
    let symbol = |w: &mut BitWriter, s: usize| {
        w.write_bits(u32::from(lit_codes[s]), u32::from(FIXED_LITERAL_LENGTHS[s]));
    };
    w.write_bits(u32::from(last), 1);
    w.write_bits(0b01, 2);
    for &token in tokens {
        match token {
            Token::Literal(byte) => symbol(w, usize::from(byte)),
            Token::Match { len, dist } => {
                let i = code_index(&LENGTH_BASE, len);
                symbol(w, 257 + i);
                w.write_bits(u32::from(len - LENGTH_BASE[i]), u32::from(LENGTH_EXTRA[i]));
                let j = code_index(&DIST_BASE, dist);
                w.write_bits(u32::from(dist_codes[j]), 5);
                w.write_bits(u32::from(dist - DIST_BASE[j]), u32::from(DIST_EXTRA[j]));
            }
        }
    }
    symbol(w, 256);
}

fn fixed_stream(tokens: &[Token]) -> Vec<u8> {
    let mut w = BitWriter::new();
    fixed_block(&mut w, tokens, true);
    w.into_bytes()
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

fn gzip_frame(deflated: &[u8], raw: &[u8]) -> Vec<u8> {
    let mut frame = gzip::HEADER.to_vec();
    frame.extend_from_slice(deflated);
    frame.extend_from_slice(&crc32(raw).to_le_bytes());
    frame.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    frame
}

fn literals(bytes: &[u8]) -> impl Iterator<Item = Token> + '_ {
    bytes.iter().map(|&b| Token::Literal(b))
}

/// A job body as the fragment-caching encoder assembles it: a prefix
/// chunk, one chunk per candidate, a suffix chunk, then the terminator.
fn assembled_body(candidates: u32, effort: Effort) -> (Vec<u8>, Vec<u8>) {
    let mut pieces = vec![b"{\"uid\":7,\"k\":10,\"r\":10,\"profile\":{\"liked\":[1,2,3],\"disliked\":[]},\"candidates\":[null".to_vec()];
    for c in 0..candidates {
        let items: Vec<String> = (0..100u32)
            .map(|i| ((c * 17 + i * 3) % 60_000).to_string())
            .collect();
        pieces.push(
            format!(
                ",{{\"uid\":{c},\"profile\":{{\"liked\":[{}],\"disliked\":[]}}}}",
                items.join(",")
            )
            .into_bytes(),
        );
    }
    pieces.push(b"]}".to_vec());
    let raw = pieces.concat();
    let mut deflated = Vec::new();
    for piece in &pieces {
        deflated.extend_from_slice(&compress_chunk(piece, effort));
    }
    deflated.extend_from_slice(&STREAM_TERMINATOR);
    (gzip_frame(&deflated, &raw), raw)
}

#[test]
fn assembled_bodies_round_trip() {
    for effort in [Effort::FAST, Effort::DEFAULT] {
        for candidates in [0, 1, 3, 119] {
            let (body, raw) = assembled_body(candidates, effort);
            assert_eq!(gzip::decompress(&body).unwrap(), raw, "{candidates}");
        }
    }
}

#[test]
fn overlapping_and_boundary_matches_round_trip() {
    let cases: Vec<Vec<Token>> = vec![
        // Distance 1, the longest length: a run.
        vec![Token::Literal(b'x'), Token::Match { len: 258, dist: 1 }],
        // Distance shorter than the length, for every short period.
        literals(b"abcdefg")
            .chain((2..=7).map(|dist| Token::Match { len: 40, dist }))
            .collect(),
        // Periods 8..16 under 16 bytes: the two-word copy overlaps itself.
        literals(b"0123456789abcdef")
            .chain((8..=16).map(|dist| Token::Match { len: 16, dist }))
            .chain((8..=16).map(|dist| Token::Match { len: 3, dist }))
            .collect(),
        // Distance equal to the output length, at the smallest and at a
        // longer output.
        vec![
            Token::Literal(b'q'),
            Token::Match { len: 3, dist: 1 },
            Token::Match { len: 4, dist: 4 },
            Token::Match { len: 258, dist: 8 },
            Token::Match { len: 10, dist: 266 },
        ],
        // Long non-overlapping copies.
        literals(&(0..=255u8).collect::<Vec<_>>())
            .chain([
                Token::Match {
                    len: 258,
                    dist: 256,
                },
                Token::Match {
                    len: 200,
                    dist: 300,
                },
            ])
            .collect(),
    ];
    for tokens in cases {
        let expected = expand(&tokens);
        let stream = fixed_stream(&tokens);
        assert_eq!(deflate::decompress(&stream).unwrap(), expected);
        // Framed, too: the sized output path must agree.
        let frame = gzip_frame(&stream, &expected);
        assert_eq!(gzip::decompress(&frame).unwrap(), expected);
    }
}

#[test]
fn distance_past_the_output_start_is_an_error() {
    for (prefix, dist) in [(1usize, 2u16), (5, 6), (300, 301)] {
        let tokens: Vec<Token> = literals(&vec![b'z'; prefix])
            .chain([Token::Match { len: 3, dist }])
            .collect();
        assert!(matches!(
            deflate::decompress(&fixed_stream(&tokens)),
            Err(WireError::Deflate(_))
        ));
    }
}

#[test]
fn blocks_ending_in_the_last_eight_bytes_round_trip() {
    // A long first block, then blocks small enough to sit entirely in the
    // stream's last 8 bytes, where the reader refills a byte at a time.
    let first: Vec<Token> = literals(&b"fragment-assembled body ".repeat(20)).collect();
    for tail in 0..=3usize {
        let second: Vec<Token> = literals(&b"!?."[..tail]).collect();
        let mut expected = expand(&first);
        expected.extend(expand(&second));

        let mut w = BitWriter::new();
        fixed_block(&mut w, &first, false);
        fixed_block(&mut w, &second, true);
        let stream = w.into_bytes();
        assert_eq!(deflate::decompress(&stream).unwrap(), expected, "{tail}");

        // Or ending as an assembled body does: a sync flush (an empty
        // stored block) and the stored terminator.
        let mut w = BitWriter::new();
        fixed_block(&mut w, &first, false);
        fixed_block(&mut w, &second, false);
        w.write_bits(0b000, 3);
        w.align_to_byte();
        w.write_bytes(&[0x00, 0x00, 0xFF, 0xFF]);
        let mut stream = w.into_bytes();
        stream.extend_from_slice(&STREAM_TERMINATOR);
        assert_eq!(deflate::decompress(&stream).unwrap(), expected, "{tail}");
    }
}

#[test]
fn every_strict_prefix_errors_or_differs() {
    let (body, raw) = assembled_body(6, Effort::FAST);
    for cut in 0..body.len() {
        if let Ok(out) = gzip::decompress(&body[..cut]) {
            assert_ne!(out, raw, "prefix of {cut} bytes decoded to the body");
        }
    }
    let payload = &body[10..body.len() - 8];
    for cut in 0..payload.len() {
        if let Ok(out) = deflate::decompress(&payload[..cut]) {
            assert_ne!(out, raw, "payload prefix of {cut} bytes decoded");
        }
    }
}

#[test]
fn lying_isize_is_a_length_mismatch_within_the_clamp() {
    let mut body = gzip::compress(b"0123456789");
    assert_eq!(body.len(), 30);
    let payload = body.len() - 18;
    let n = body.len();
    body[n - 4..].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());

    LARGEST.with(|largest| largest.set(0));
    let result = gzip::decompress(&body);
    let largest = LARGEST.with(Cell::get);
    assert_eq!(result, Err(WireError::Gzip("length mismatch".into())));
    // The trailer claims ~4 GiB; the reservation is bounded by what the
    // payload could expand to (1032 bytes per payload byte).
    assert!(largest <= payload * 1032, "reserved {largest} bytes");
}

#[test]
fn long_codes_round_trip_through_subtables() {
    // Byte frequencies that grow like Fibonacci numbers give the rarest
    // literals codes longer than the first-level table, so decoding them
    // goes through subtables.
    let mut data = Vec::new();
    let (mut a, mut b) = (1usize, 1usize);
    for byte in 0..20u8 {
        data.extend(std::iter::repeat_n(byte, a));
        (a, b) = (b, a + b);
    }
    // Interleave so LZ77 finds few long runs and literals dominate.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..data.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.swap(i, (state % (i as u64 + 1)) as usize);
    }
    for effort in [Effort::FAST, Effort::DEFAULT] {
        let packed = deflate::compress(&data, effort);
        assert_eq!(deflate::decompress(&packed).unwrap(), data);
    }
    // Between blocks with short codes, so the tables rebuilt in place
    // start from another code's entries.
    let text = b"{\"uid\":12,\"profile\":{\"liked\":[4,8,15,16,23,42]}}".repeat(12);
    let mut stream = Vec::new();
    for piece in [&text[..], &data, &text, &data] {
        stream.extend_from_slice(&compress_chunk(piece, Effort::FAST));
    }
    stream.extend_from_slice(&STREAM_TERMINATOR);
    let expected = [&text[..], &data, &text, &data].concat();
    assert_eq!(deflate::decompress(&stream).unwrap(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn corrupted_assembled_bodies_never_panic(
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let (mut body, _) = assembled_body(3, Effort::FAST);
        for (at, mask) in flips {
            let n = body.len();
            body[at % n] ^= mask | 1;
        }
        let _ = gzip::decompress(&body);
        let _ = deflate::decompress(&body[10..body.len() - 8]);
    }

    #[test]
    fn random_token_streams_round_trip(
        seed in proptest::collection::vec(any::<u8>(), 1..40),
        ops in proptest::collection::vec((any::<bool>(), 3u16..=258, any::<u16>()), 0..60),
    ) {
        let mut tokens: Vec<Token> = literals(&seed).collect();
        let mut len = seed.len();
        for (is_match, match_len, dist) in ops {
            if is_match {
                let dist = 1 + dist % len.min(32_768) as u16;
                tokens.push(Token::Match { len: match_len, dist });
                len += usize::from(match_len);
            } else {
                tokens.push(Token::Literal(match_len as u8));
                len += 1;
            }
        }
        let expected = expand(&tokens);
        let stream = fixed_stream(&tokens);
        prop_assert_eq!(deflate::decompress(&stream).unwrap(), expected.clone());
        prop_assert_eq!(gzip::decompress(&gzip_frame(&stream, &expected)).unwrap(), expected);
    }
}
