//! A `POST /neighbors/` body is untrusted gzip. A bomb that inflates to
//! 256 MiB must cost `KnnUpdate::decode` no more than its 1 MiB JSON cap:
//! a counting allocator records the largest single allocation while the
//! bomb is rejected. Neighbour ids in an update are untrusted too: ids
//! chosen to collide under a weak hash must not make the server's dedup
//! quadratic.

use hyrec_core::{Neighbor, UserId};
use hyrec_wire::crc::{crc32, crc32_combine};
use hyrec_wire::deflate::lz77::Effort;
use hyrec_wire::deflate::{compress_chunk, STREAM_TERMINATOR};
use hyrec_wire::gzip;
use hyrec_wire::{KnnUpdate, WireError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// The system allocator, recording the largest block each thread asks
/// for: tests run on parallel threads, and another test's allocations
/// must not count against the bomb's.
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown find no slot.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A valid gzip member of 256 MiB of spaces in ~256 KiB: one sync-flushed
/// chunk of 1 MiB repeated, with the matching CRC and length trailer.
fn bomb() -> Vec<u8> {
    const MIB: usize = 1 << 20;
    let spaces = vec![b' '; MIB];
    let chunk = compress_chunk(&spaces, Effort::FAST);
    let chunk_crc = crc32(&spaces);
    let mut body = gzip::HEADER.to_vec();
    let mut crc = 0;
    for _ in 0..256 {
        body.extend_from_slice(&chunk);
        crc = crc32_combine(crc, chunk_crc, MIB as u64);
    }
    body.extend_from_slice(&STREAM_TERMINATOR);
    body.extend_from_slice(&crc.to_le_bytes());
    body.extend_from_slice(&((256 * MIB) as u32).to_le_bytes());
    body
}

#[test]
fn bomb_is_rejected_within_twice_the_cap() {
    let body = bomb();
    assert!(body.len() < 300 << 10, "bomb body is {} bytes", body.len());
    let update = KnnUpdate {
        uid: UserId(1),
        lease: 7,
        epoch: 3,
        neighbors: (0..1000)
            .map(|u| Neighbor {
                user: UserId(u),
                similarity: 0.5,
            })
            .collect(),
    };
    let honest = update.encode();

    LARGEST.with(|largest| largest.set(0));
    let verdict = KnnUpdate::decode(&body);
    let largest = LARGEST.with(Cell::get);
    assert!(
        matches!(
            verdict,
            Err(WireError::TooLarge {
                limit: KnnUpdate::MAX_JSON_BYTES
            })
        ),
        "bomb must fail to inflate: {verdict:?}"
    );
    assert!(
        largest <= 2 * KnnUpdate::MAX_JSON_BYTES,
        "bomb bought a {largest}-byte allocation"
    );

    // A k = 1000 update is far below the cap and still decodes.
    assert_eq!(KnnUpdate::decode(&honest).unwrap(), update);
}

/// ~30k neighbour ids that are all multiples of 2^16 — under a plain
/// multiplicative hash they share their low bits and so their bucket. The
/// update fits under the cap, and turning it into a neighbourhood (the
/// server's dedup of an untrusted update) stays fast.
#[test]
fn colliding_neighbor_ids_dedup_in_bounded_time() {
    const N: u32 = 30_000;
    let update = KnnUpdate {
        uid: UserId(1),
        lease: 0,
        epoch: 0,
        neighbors: (0..N)
            .map(|i| Neighbor {
                user: UserId(i << 16),
                similarity: 0.5,
            })
            .collect(),
    };
    assert!(update.to_json().to_string().len() <= KnnUpdate::MAX_JSON_BYTES);
    let decoded = KnnUpdate::decode(&update.encode()).unwrap();

    let started = Instant::now();
    let hood = decoded.to_neighborhood();
    let elapsed = started.elapsed();
    assert_eq!(hood.len(), N as usize);
    assert!(
        elapsed < Duration::from_secs(1),
        "dedup of {N} colliding ids took {elapsed:?}"
    );
}
