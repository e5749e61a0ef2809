//! `compress_chunk` reuses a per-thread hash table across calls. Its output
//! must still depend on the input alone: compressing a sequence of inputs
//! on one thread, in any order, yields the bytes a fresh thread yields for
//! each input, and the chunks assemble into a valid gzip member.

use hyrec_wire::crc::crc32;
use hyrec_wire::deflate::lz77::Effort;
use hyrec_wire::deflate::{compress_chunk, STREAM_TERMINATOR};
use hyrec_wire::gzip;

const EFFORTS: [Effort; 2] = [Effort::FAST, Effort::DEFAULT];

/// Deterministic xorshift for shuffles and noise.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn json_like(entries: u32) -> Vec<u8> {
    let mut doc = String::from("{\"uid\":7,\"k\":10,\"r\":10,\"profile\":{\"liked\":[");
    for i in 0..entries {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&(i * 37 % 10_007).to_string());
    }
    doc.push_str("],\"disliked\":[]},\"candidates\":[null");
    doc.into_bytes()
}

fn inputs() -> Vec<Vec<u8>> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let noise: Vec<u8> = (0..3000).map(|_| rng.next() as u8).collect();
    let big = json_like(9000); // > 32 KiB: exercises the window wrap
    assert!(big.len() > 32 * 1024);
    let mut inputs = vec![
        big,
        b"]}".to_vec(),
        Vec::new(),
        b"abc".to_vec(),
        b"abcd".to_vec(),
        json_like(120), // about the size of a job's dynamic prefix
        json_like(1100),
        noise,
        b"abcabcabcabcabcabcabcabc".repeat(300),
        vec![b'a'; 5000],
    ];
    // Inputs that share structure, like one job's candidate fragments: a
    // table entry left over from one of them would point at a matching
    // string in the next, so a missed reset changes the tokens.
    for i in 0..40u64 {
        let mut doc = format!(",{{\"uid\":{},\"profile\":{{\"liked\":[", i * 7919);
        let items = 5 + rng.next() % 150;
        for j in 0..items {
            if j > 0 {
                doc.push(',');
            }
            doc.push_str(&(rng.next() % (200 + i * 50)).to_string());
        }
        doc.push_str("],\"disliked\":[]}}");
        inputs.push(doc.into_bytes());
    }
    inputs
}

/// Each input compressed on a thread of its own, whose table nothing has
/// touched before.
fn fresh_thread_reference(inputs: &[Vec<u8>], effort: Effort) -> Vec<Vec<u8>> {
    inputs
        .iter()
        .map(|input| {
            let input = input.clone();
            std::thread::spawn(move || compress_chunk(&input, effort))
                .join()
                .expect("reference thread")
        })
        .collect()
}

/// Compresses `order` on the calling thread; the big input is always
/// followed directly by the tiny one.
fn run_sequence(inputs: &[Vec<u8>], order: &[usize], effort: Effort) -> Vec<(usize, Vec<u8>)> {
    let mut out = vec![(0, compress_chunk(&inputs[0], effort))];
    out.push((1, compress_chunk(&inputs[1], effort)));
    for &i in order {
        out.push((i, compress_chunk(&inputs[i], effort)));
    }
    out.push((0, compress_chunk(&inputs[0], effort)));
    out.push((1, compress_chunk(&inputs[1], effort)));
    out
}

#[test]
fn reused_tables_match_fresh_threads_in_any_order() {
    let inputs = inputs();
    for effort in EFFORTS {
        let reference = fresh_thread_reference(&inputs, effort);
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let inputs = inputs.clone();
                std::thread::spawn(move || {
                    let mut rng = XorShift(0x2545_F491_4F6C_DD1D + t);
                    let mut results = Vec::new();
                    for _ in 0..4 {
                        let mut order: Vec<usize> = (0..inputs.len()).collect();
                        rng.shuffle(&mut order);
                        results.extend(run_sequence(&inputs, &order, effort));
                    }
                    results
                })
            })
            .collect();
        for worker in workers {
            for (i, chunk) in worker.join().expect("worker thread") {
                assert_eq!(
                    chunk,
                    reference[i],
                    "input {i} ({} bytes) diverged under {effort:?}",
                    inputs[i].len()
                );
            }
        }
    }
}

#[test]
fn chunks_assemble_into_a_gzip_member() {
    let inputs = inputs();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    XorShift(0xD1B5_4A32_D192_ED03).shuffle(&mut order);
    for effort in EFFORTS {
        let mut member = gzip::HEADER.to_vec();
        let mut raw = Vec::new();
        for &i in order.iter().chain(&[0, 1]) {
            member.extend_from_slice(&compress_chunk(&inputs[i], effort));
            raw.extend_from_slice(&inputs[i]);
        }
        member.extend_from_slice(&STREAM_TERMINATOR);
        member.extend_from_slice(&crc32(&raw).to_le_bytes());
        member.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        assert_eq!(gzip::decompress(&member).expect("valid member"), raw);
    }
}
