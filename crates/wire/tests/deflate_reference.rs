//! Differential tests of the DEFLATE compressor and the CRC shift operator
//! against the implementations they replaced.
//!
//! `reference` below is the encoder `hyrec_wire::deflate` used before its
//! per-call work went allocation-free: the linear-scan symbol lookups, the
//! `BinaryHeap` Huffman builder, the `Vec`-built dynamic header, the
//! byte-at-a-time bit writer, a freshly zeroed hash table per call, and the
//! matrix-squaring `ShiftOp::for_len`. The compressed bytes are part of the
//! wire contract (message sizes, cached fragments, byte-identity suites), so
//! `compress` and `compress_chunk` must emit exactly the reference's bytes
//! for every effort, `build_code_lengths` must return its lengths, and
//! `ShiftOp` must be the same matrix.

use hyrec_wire::crc::ShiftOp;
use hyrec_wire::deflate::huffman::{build_code_lengths, MAX_BITS};
use hyrec_wire::deflate::lz77::{tokenize, Effort};
use hyrec_wire::deflate::{compress, compress_chunk};
use proptest::prelude::*;

mod reference {
    use hyrec_wire::deflate::lz77::{Effort, Token, MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

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

    fn length_to_code(len: u16) -> (u16, u8, u16) {
        let mut idx = LENGTH_CODES.len() - 1;
        for (i, &(base, _)) in LENGTH_CODES.iter().enumerate() {
            if base > len {
                idx = i - 1;
                break;
            }
        }
        if len == 258 {
            idx = 28;
        }
        let (base, extra) = LENGTH_CODES[idx];
        (257 + idx as u16, extra, len - base)
    }

    fn dist_to_code(dist: u16) -> (u16, u8, u16) {
        let mut idx = DIST_CODES.len() - 1;
        for (i, &(base, _)) in DIST_CODES.iter().enumerate() {
            if base > dist {
                idx = i - 1;
                break;
            }
        }
        let (base, extra) = DIST_CODES[idx];
        (idx as u16, extra, dist - base)
    }

    // ---- bit writer -------------------------------------------------------

    #[derive(Default)]
    struct BitWriter {
        bytes: Vec<u8>,
        bit_buf: u64,
        bit_count: u32,
    }

    impl BitWriter {
        fn write_bits(&mut self, value: u32, count: u32) {
            self.bit_buf |= u64::from(value) << self.bit_count;
            self.bit_count += count;
            while self.bit_count >= 8 {
                self.bytes.push((self.bit_buf & 0xFF) as u8);
                self.bit_buf >>= 8;
                self.bit_count -= 8;
            }
        }

        fn align_to_byte(&mut self) {
            if self.bit_count > 0 {
                self.bytes.push((self.bit_buf & 0xFF) as u8);
                self.bit_buf = 0;
                self.bit_count = 0;
            }
        }

        fn write_bytes(&mut self, data: &[u8]) {
            assert_eq!(self.bit_count, 0);
            self.bytes.extend_from_slice(data);
        }

        fn into_bytes(mut self) -> Vec<u8> {
            self.align_to_byte();
            self.bytes
        }
    }

    // ---- LZ77 -------------------------------------------------------------

    const HASH_BITS: usize = 15;
    const HASH_SIZE: usize = 1 << HASH_BITS;

    fn hash3(data: &[u8], pos: usize) -> usize {
        let h = (u32::from(data[pos]) << 16)
            ^ (u32::from(data[pos + 1]) << 8)
            ^ u32::from(data[pos + 2]);
        ((h.wrapping_mul(2_654_435_761)) >> (32 - HASH_BITS)) as usize & (HASH_SIZE - 1)
    }

    fn match_length(data: &[u8], a: usize, b: usize, max: usize) -> usize {
        let mut len = 0;
        while len < max && data[a + len] == data[b + len] {
            len += 1;
        }
        len
    }

    struct Matcher {
        head: Vec<u32>,
        prev: Vec<u32>,
        effort: Effort,
    }

    impl Matcher {
        fn insert(&mut self, data: &[u8], pos: usize) {
            if pos + MIN_MATCH <= data.len() {
                let h = hash3(data, pos);
                self.prev[pos % WINDOW_SIZE] = self.head[h];
                self.head[h] = pos as u32 + 1;
            }
        }

        fn best_match(&self, data: &[u8], pos: usize) -> Option<(usize, usize)> {
            if pos + MIN_MATCH > data.len() {
                return None;
            }
            let max_len = (data.len() - pos).min(MAX_MATCH);
            let mut candidate = self.head[hash3(data, pos)];
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0usize;
            let mut chain = self.effort.max_chain;
            while candidate != 0 && chain > 0 {
                let cand = (candidate - 1) as usize;
                if cand >= pos || pos - cand > WINDOW_SIZE {
                    break;
                }
                if data[cand + best_len] == data[pos + best_len] {
                    let len = match_length(data, cand, pos, max_len);
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - cand;
                        if len >= self.effort.good_enough || len == max_len {
                            break;
                        }
                    }
                }
                candidate = self.prev[cand % WINDOW_SIZE];
                chain -= 1;
            }
            (best_len >= MIN_MATCH).then_some((best_len, best_dist))
        }
    }

    /// The old tokenizer over a freshly zeroed hash table (the per-thread
    /// table it used was all zeros between calls).
    pub fn tokenize(data: &[u8], effort: Effort) -> Vec<Token> {
        let n = data.len();
        if n < MIN_MATCH + 1 {
            return data.iter().map(|&b| Token::Literal(b)).collect();
        }
        let mut tokens = Vec::new();
        let mut matcher = Matcher {
            head: vec![0; HASH_SIZE],
            prev: vec![0; n.min(WINDOW_SIZE)],
            effort,
        };
        let mut pos = 0usize;
        while pos < n {
            match matcher.best_match(data, pos) {
                None => {
                    tokens.push(Token::Literal(data[pos]));
                    matcher.insert(data, pos);
                    pos += 1;
                }
                Some((len, dist)) => {
                    matcher.insert(data, pos);
                    if effort.lazy && pos + 1 < n {
                        if let Some((lazy_len, _)) = matcher.best_match(data, pos + 1) {
                            if lazy_len > len {
                                tokens.push(Token::Literal(data[pos]));
                                pos += 1;
                                continue;
                            }
                        }
                    }
                    tokens.push(Token::Match {
                        len: len as u16,
                        dist: dist as u16,
                    });
                    if effort.dense_insert {
                        for p in pos + 1..pos + len {
                            matcher.insert(data, p);
                        }
                    } else {
                        matcher.insert(data, pos + len - 1);
                    }
                    pos += len;
                }
            }
        }
        tokens
    }

    // ---- Huffman ----------------------------------------------------------

    pub fn build_code_lengths(freqs: &[u64], max_bits: usize) -> Vec<u8> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        enum Kind {
            Leaf(usize),
            Internal(usize, usize),
        }

        let n = freqs.len();
        let used: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
        let mut lengths = vec![0u8; n];
        match used.len() {
            0 => return lengths,
            1 => {
                lengths[used[0]] = 1;
                return lengths;
            }
            _ => {}
        }
        let mut nodes: Vec<(u64, Kind)> = used.iter().map(|&s| (freqs[s], Kind::Leaf(s))).collect();
        let mut heap: BinaryHeap<(Reverse<u64>, usize)> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (Reverse(node.0), i))
            .collect();
        while heap.len() > 1 {
            let (Reverse(fa), a) = heap.pop().unwrap();
            let (Reverse(fb), b) = heap.pop().unwrap();
            nodes.push((fa + fb, Kind::Internal(a, b)));
            heap.push((Reverse(fa + fb), nodes.len() - 1));
        }
        let root = heap.pop().unwrap().1;
        let mut depth_of_symbol = Vec::new();
        let mut stack = vec![(root, 0usize)];
        while let Some((idx, depth)) = stack.pop() {
            match nodes[idx].1 {
                Kind::Leaf(symbol) => depth_of_symbol.push((symbol, depth.max(1))),
                Kind::Internal(a, b) => {
                    stack.push((a, depth + 1));
                    stack.push((b, depth + 1));
                }
            }
        }
        for &(symbol, depth) in &depth_of_symbol {
            lengths[symbol] = depth.min(max_bits) as u8;
        }

        let cap = 1u64 << max_bits;
        let weight = |l: u8| 1u64 << (max_bits - l as usize);
        let mut k: u64 = used.iter().map(|&s| weight(lengths[s])).sum();
        if k > cap {
            let mut by_rarity = used.clone();
            by_rarity.sort_by(|&a, &b| freqs[a].cmp(&freqs[b]).then(a.cmp(&b)));
            'outer: while k > cap {
                for &s in &by_rarity {
                    if (lengths[s] as usize) < max_bits {
                        k -= weight(lengths[s]) / 2;
                        lengths[s] += 1;
                        continue 'outer;
                    }
                }
                unreachable!();
            }
        }
        while k < cap {
            let gap = cap - k;
            let candidate = used
                .iter()
                .copied()
                .filter(|&s| lengths[s] > 1 && weight(lengths[s]) <= gap)
                .max_by_key(|&s| (lengths[s], freqs[s], Reverse(s)));
            match candidate {
                Some(s) => {
                    k += weight(lengths[s]);
                    lengths[s] -= 1;
                }
                None => break,
            }
        }
        lengths
    }

    fn reverse_bits(value: u32, count: usize) -> u32 {
        let mut out = 0;
        for i in 0..count {
            out |= ((value >> i) & 1) << (count - 1 - i);
        }
        out
    }

    fn assign_codes(lengths: &[u8]) -> Vec<u16> {
        let mut count = [0u32; 16];
        for &l in lengths {
            count[l as usize] += 1;
        }
        let mut next = [0u32; 16];
        let mut code = 0;
        for bits in 2..16 {
            code = (code + count[bits - 1]) << 1;
            next[bits] = code;
        }
        let mut codes = vec![0u16; lengths.len()];
        for (symbol, &l) in lengths.iter().enumerate() {
            if l > 0 {
                codes[symbol] = reverse_bits(next[l as usize], l as usize) as u16;
                next[l as usize] += 1;
            }
        }
        codes
    }

    fn fixed_literal_lengths() -> Vec<u8> {
        (0..288)
            .map(|i| match i {
                0..=143 => 8,
                144..=255 => 9,
                256..=279 => 7,
                _ => 8,
            })
            .collect()
    }

    // ---- blocks -----------------------------------------------------------

    pub fn compress(data: &[u8], effort: Effort) -> Vec<u8> {
        let mut writer = BitWriter::default();
        write_blocks(&mut writer, data, effort, true);
        writer.into_bytes()
    }

    pub fn compress_chunk(data: &[u8], effort: Effort) -> Vec<u8> {
        let mut writer = BitWriter::default();
        write_blocks(&mut writer, data, effort, false);
        writer.write_bits(0, 1);
        writer.write_bits(0b00, 2);
        writer.align_to_byte();
        writer.write_bytes(&0u16.to_le_bytes());
        writer.write_bytes(&(!0u16).to_le_bytes());
        writer.into_bytes()
    }

    fn write_blocks(writer: &mut BitWriter, data: &[u8], effort: Effort, final_stream: bool) {
        let tokens = tokenize(data, effort);
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
        let dyn_lit = build_code_lengths(&lit_freqs, 15);
        let dyn_dist = build_code_lengths(&dist_freqs, 15);
        let fixed_lit = fixed_literal_lengths();
        let fixed_dist = vec![5u8; 32];
        let fixed_cost = body_cost(&fixed_lit, &fixed_dist, &lit_freqs, &dist_freqs);
        let (header, header_cost) = dynamic_header(&dyn_lit, &dyn_dist);
        let dyn_cost = header_cost + body_cost(&dyn_lit, &dyn_dist, &lit_freqs, &dist_freqs);
        let blocks = (data.len() / 65535 + 1) as u64;
        let stored_cost = blocks * (7 + 3 + 32) + data.len() as u64 * 8;

        let bfinal = u32::from(final_stream);
        if stored_cost <= fixed_cost.min(dyn_cost) {
            let mut chunks: Vec<&[u8]> = data.chunks(65535).collect();
            if chunks.is_empty() {
                chunks.push(&[]);
            }
            let last = chunks.len() - 1;
            for (i, chunk) in chunks.iter().enumerate() {
                writer.write_bits(u32::from(i == last && final_stream), 1);
                writer.write_bits(0b00, 2);
                writer.align_to_byte();
                let len = chunk.len() as u16;
                writer.write_bytes(&len.to_le_bytes());
                writer.write_bytes(&(!len).to_le_bytes());
                writer.write_bytes(chunk);
            }
        } else if fixed_cost <= dyn_cost {
            writer.write_bits(bfinal, 1);
            writer.write_bits(0b01, 2);
            write_body(writer, &tokens, &fixed_lit, &fixed_dist);
        } else {
            writer.write_bits(bfinal, 1);
            writer.write_bits(0b10, 2);
            writer.write_bits((header.hlit - 257) as u32, 5);
            writer.write_bits((header.hdist - 1) as u32, 5);
            writer.write_bits((header.hclen - 4) as u32, 4);
            for &order in CLC_ORDER.iter().take(header.hclen) {
                writer.write_bits(u32::from(header.clc_lengths[order]), 3);
            }
            let clc_codes = assign_codes(&header.clc_lengths);
            for &(symbol, extra, value) in &header.rle {
                writer.write_bits(
                    u32::from(clc_codes[symbol as usize]),
                    u32::from(header.clc_lengths[symbol as usize]),
                );
                if extra > 0 {
                    writer.write_bits(u32::from(value), u32::from(extra));
                }
            }
            write_body(writer, &tokens, &dyn_lit, &dyn_dist);
        }
    }

    fn body_cost(lit: &[u8], dist: &[u8], lit_freqs: &[u64], dist_freqs: &[u64]) -> u64 {
        let mut bits = 0u64;
        for (symbol, &freq) in lit_freqs.iter().enumerate() {
            let mut per = u64::from(lit[symbol]);
            if symbol >= 257 {
                per += u64::from(LENGTH_CODES[symbol - 257].1);
            }
            bits += freq * per;
        }
        for (symbol, &freq) in dist_freqs.iter().enumerate() {
            bits += freq * (u64::from(dist[symbol]) + u64::from(DIST_CODES[symbol].1));
        }
        bits + 3
    }

    fn write_body(writer: &mut BitWriter, tokens: &[Token], lit: &[u8], dist: &[u8]) {
        let lit_codes = assign_codes(lit);
        let dist_codes = assign_codes(dist);
        for token in tokens {
            match *token {
                Token::Literal(b) => {
                    writer.write_bits(u32::from(lit_codes[b as usize]), u32::from(lit[b as usize]));
                }
                Token::Match { len, dist: d } => {
                    let (lcode, lextra, lvalue) = length_to_code(len);
                    let l = lcode as usize;
                    writer.write_bits(u32::from(lit_codes[l]), u32::from(lit[l]));
                    if lextra > 0 {
                        writer.write_bits(u32::from(lvalue), u32::from(lextra));
                    }
                    let (dcode, dextra, dvalue) = dist_to_code(d);
                    let c = dcode as usize;
                    writer.write_bits(u32::from(dist_codes[c]), u32::from(dist[c]));
                    if dextra > 0 {
                        writer.write_bits(u32::from(dvalue), u32::from(dextra));
                    }
                }
            }
        }
        writer.write_bits(u32::from(lit_codes[256]), u32::from(lit[256]));
    }

    struct DynamicHeader {
        hlit: usize,
        hdist: usize,
        hclen: usize,
        clc_lengths: Vec<u8>,
        rle: Vec<(u8, u8, u8)>,
    }

    fn dynamic_header(lit: &[u8], dist: &[u8]) -> (DynamicHeader, u64) {
        let hlit = (257..=286)
            .rev()
            .find(|&n| n == 257 || lit[n - 1] != 0)
            .unwrap();
        let hdist = (1..=30)
            .rev()
            .find(|&n| n == 1 || dist[n - 1] != 0)
            .unwrap();
        let mut all = Vec::new();
        all.extend_from_slice(&lit[..hlit]);
        all.extend_from_slice(&dist[..hdist]);
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
        let mut clc_freqs = vec![0u64; 19];
        for &(symbol, _, _) in &rle {
            clc_freqs[symbol as usize] += 1;
        }
        let clc_lengths = build_code_lengths(&clc_freqs, 7);
        let hclen = (4..=19)
            .rev()
            .find(|&n| n == 4 || clc_lengths[CLC_ORDER[n - 1]] != 0)
            .unwrap();
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
                rle,
            },
            cost,
        )
    }

    // ---- CRC shift operator -----------------------------------------------

    const POLY: u32 = 0xEDB8_8320;

    type Matrix = [u32; 32];

    fn matrix_times(mat: &Matrix, vec: u32) -> u32 {
        let mut sum = 0u32;
        for (i, column) in mat.iter().enumerate() {
            if (vec >> i) & 1 == 1 {
                sum ^= column;
            }
        }
        sum
    }

    fn matrix_square(square: &mut Matrix, mat: &Matrix) {
        for n in 0..32 {
            square[n] = matrix_times(mat, mat[n]);
        }
    }

    fn matrix_mul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = [0u32; 32];
        for n in 0..32 {
            out[n] = matrix_times(a, b[n]);
        }
        out
    }

    /// The columns of the "advance past `len` zero bytes" operator, built
    /// by repeated squaring of the one-zero-bit matrix (zlib's old
    /// `crc32_combine`).
    pub fn shift_matrix(len: u64) -> Matrix {
        let mut total: Matrix = std::array::from_fn(|n| 1u32 << n);
        if len == 0 {
            return total;
        }
        let mut even: Matrix = [0; 32];
        let mut odd: Matrix = [0; 32];
        odd[0] = POLY;
        for (n, entry) in odd.iter_mut().enumerate().skip(1) {
            *entry = 1 << (n - 1);
        }
        matrix_square(&mut even, &odd);
        matrix_square(&mut odd, &even);
        let mut len = len;
        loop {
            matrix_square(&mut even, &odd);
            if len & 1 != 0 {
                total = matrix_mul(&even, &total);
            }
            len >>= 1;
            if len == 0 {
                break;
            }
            matrix_square(&mut odd, &even);
            if len & 1 != 0 {
                total = matrix_mul(&odd, &total);
            }
            len >>= 1;
            if len == 0 {
                break;
            }
        }
        total
    }
}

const EFFORTS: [Effort; 3] = [Effort::FAST, Effort::DEFAULT, Effort::BEST];

/// Asserts both entry points emit the reference's bytes at every effort.
fn assert_identical(data: &[u8]) -> Result<(), TestCaseError> {
    for effort in EFFORTS {
        let n = data.len();
        prop_assert!(
            tokenize(data, effort) == reference::tokenize(data, effort),
            "tokens differ, effort {effort:?}, {n} bytes"
        );
        prop_assert!(
            compress(data, effort) == reference::compress(data, effort),
            "compress differs, effort {effort:?}, {n} bytes"
        );
        prop_assert!(
            compress_chunk(data, effort) == reference::compress_chunk(data, effort),
            "compress_chunk differs, effort {effort:?}, {n} bytes"
        );
    }
    Ok(())
}

/// `[a,b,c,…]` as the encoder serializes profile item lists.
fn number_list(ids: &[u32]) -> Vec<u8> {
    let body: Vec<String> = ids.iter().map(u32::to_string).collect();
    format!("[{}]", body.join(",")).into_bytes()
}

/// A candidate fragment as `JobEncoder` caches it: a stride-3 run of ids.
fn stride_fragment(user: u32, items: u32) -> Vec<u8> {
    let liked: Vec<u32> = (0..items).map(|i| (user * 17 + 3 * i) % 60_000).collect();
    let mut out = format!(",{{\"uid\":{user},\"profile\":{{\"liked\":").into_bytes();
    out.extend_from_slice(&number_list(&liked));
    out.extend_from_slice(b",\"disliked\":[]}}");
    out
}

/// Deterministic xorshift noise.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// Frequencies that grow like Fibonacci numbers give the deepest Huffman
/// trees: past ~16 used symbols the depth exceeds 15 bits, so the clamp
/// oversubscribes the code (repair phase 1) and the lengthening can
/// overshoot into an incomplete code (phase 2).
fn fibonacci(len: usize, offset: usize) -> Vec<u64> {
    let (mut a, mut b) = (1u64, 1u64);
    let mut out = vec![0u64; offset];
    for _ in 0..len {
        out.push(a);
        (a, b) = (b, a + b);
    }
    out
}

#[test]
fn tiny_inputs_are_identical() {
    for len in 0..=8 {
        for seed in 0..64 {
            let data = noise(seed, len);
            assert_identical(&data).unwrap();
            assert_identical(&vec![b'a'; len]).unwrap();
        }
    }
}

#[test]
fn stored_fallback_is_identical() {
    // Incompressible and longer than one stored block (65 535 bytes).
    for seed in [1, 2] {
        let data = noise(seed, 70_000);
        assert_identical(&data).unwrap();
        assert!(compress(&data, Effort::FAST).len() > data.len());
    }
}

#[test]
fn job_shaped_inputs_are_identical() {
    for user in 0..40 {
        assert_identical(&stride_fragment(user, 100)).unwrap();
        assert_identical(&stride_fragment(user * 101, user + 1)).unwrap();
    }
    // Past the 32 KiB window, and interleaved with small inputs on the same
    // thread so the reused hash table sees both.
    let big: Vec<u8> = (0..300).flat_map(|u| stride_fragment(u, 60)).collect();
    assert!(big.len() > 64 * 1024);
    assert_identical(&big).unwrap();
    assert_identical(&stride_fragment(7, 100)).unwrap();
    assert_identical(&big[..40_000]).unwrap();
}

#[test]
fn skewed_code_lengths_are_identical() {
    for len in 2..=40 {
        for offset in [0, 1, 5, 246] {
            let freqs = fibonacci(len, offset);
            for max_bits in [7, MAX_BITS] {
                if freqs.len() <= 1 << max_bits {
                    assert_eq!(
                        build_code_lengths(&freqs, max_bits),
                        reference::build_code_lengths(&freqs, max_bits),
                        "fibonacci {len} from {offset}, max_bits {max_bits}"
                    );
                }
            }
        }
    }
}

#[test]
fn shift_op_matches_matrix_squaring_up_to_4096() {
    for len in 0..=4096u64 {
        assert_shift_matches(len);
    }
}

/// Reads back every column of `ShiftOp::for_len(len)` and compares it
/// with the reference matrix.
fn assert_shift_matches(len: u64) {
    let op = ShiftOp::for_len(len);
    let expected = reference::shift_matrix(len);
    for (bit, column) in expected.iter().enumerate() {
        assert_eq!(op.combine(1 << bit, 0), *column, "len {len}, column {bit}");
    }
    assert_eq!(op.len(), len);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_are_identical(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
        assert_identical(&data)?;
    }

    #[test]
    fn small_alphabet_text_is_identical(words in proptest::collection::vec("[a-f ]{1,12}", 0..400)) {
        assert_identical(words.concat().as_bytes())?;
    }

    #[test]
    fn stride_number_lists_are_identical(user in 0u32..100_000, items in 0u32..400) {
        assert_identical(&stride_fragment(user, items))?;
    }

    #[test]
    fn random_id_lists_are_identical(ids in proptest::collection::vec(0u32..60_000, 0..300)) {
        assert_identical(&number_list(&ids))?;
    }

    #[test]
    fn code_lengths_are_identical(
        freqs in proptest::collection::vec(
            prop_oneof![3 => Just(0u64), 5 => 1u64..50, 2 => 0u64..1_000_000],
            0..=286,
        ),
        max_bits in prop_oneof![Just(7usize), Just(MAX_BITS)],
    ) {
        prop_assume!(freqs.len() <= 1 << max_bits);
        prop_assert_eq!(
            build_code_lengths(&freqs, max_bits),
            reference::build_code_lengths(&freqs, max_bits)
        );
    }

    #[test]
    fn skewed_mixtures_are_identical(
        len in 2usize..60,
        noise_freqs in proptest::collection::vec(0u64..4, 0..200),
    ) {
        let mut freqs = fibonacci(len, 0);
        freqs.extend(noise_freqs);
        freqs.truncate(286);
        prop_assert_eq!(
            build_code_lengths(&freqs, MAX_BITS),
            reference::build_code_lengths(&freqs, MAX_BITS)
        );
    }

    #[test]
    fn shift_op_matches_at_sampled_lengths(len in prop_oneof![0u64..1 << 20, 0u64..1 << 40]) {
        assert_shift_matches(len);
    }
}
