//! The compressor's output is part of the wire contract: message sizes
//! (Figure 10) and the byte-identity suites depend on it. These bodies were
//! produced before the fixed Huffman tables became compile-time constants
//! and must not change by a single byte.

use hyrec_core::{CandidateSet, Neighbor, Profile, UserId};
use hyrec_wire::{KnnUpdate, PersonalizationJob};

const UPDATE_GZIP: &str = concat!(
    "1f8b08000000000000ff4dca3d0ec2300c40e1bb788eaaf8278993ab20067e22",
    "5a0928a26242b93b0bd8acef7b6f782d67684201aefdb0756825407faca7191a",
    "07b8f7e5321fd7e7066df75d31c600db728316a73ac2af72b1aa94ffa0884149",
    "ac06846890351607518758b2832683c4920c98c840328a43aa06acca0e353b60",
    "2203613620211cfbf101b5bd2e8423010000",
);

const JOB_GZIP: &str = concat!(
    "1f8b08000000000000ff6d914b6ac3401044ef32eb5af46f7ebe8ad1c2440e08",
    "9b24d8c9cae8eea9899d8540ab81a6d5af5ee9917e96391d32d2251d54906ecf",
    "e7ebf6f9be5ccfe9f048d7e572e6ca51a03038021905150d1d5c55851ad4a101",
    "cdd002add006ed3081f11b83392c6019566015d6607d429a97fbfff169457a3b",
    "7dcccb7cfa3edf397805e3f5bd2c4a3a61e374871784230b72450954456d6819",
    "ddd04744261af1984609578f2d5a45645a57bc88bcb947b461e682a07e433534",
    "9e95a14f6d0a6970230f79ce1a679d922cc68672b088cc024adba26d8b76df45",
    "ff95172cbda031bf10466ba5b0d255a969f4331f0db3934a60af70fe03f7d18e",
    "c09b22c4b6707fc2a7f517b2f9190404020000",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn update() -> KnnUpdate {
    KnnUpdate {
        uid: UserId(42),
        lease: 7,
        epoch: 3,
        neighbors: (0..10u32)
            .map(|i| Neighbor {
                user: UserId(100 + i * 37),
                similarity: 0.9 - f64::from(i) * 0.0731,
            })
            .collect(),
    }
}

fn three_candidate_job() -> PersonalizationJob {
    let mut candidates = CandidateSet::new();
    for c in 1..=3u32 {
        candidates.insert(
            UserId(c * 11),
            Profile::from_votes((0..20u32).map(|i| i * c * 7 + c), [c * 1000]),
        );
    }
    PersonalizationJob {
        uid: UserId(5),
        k: 10,
        r: 10,
        lease: 0,
        epoch: 0,
        profile: Profile::from_liked(0u32..30).into(),
        candidates,
    }
}

#[test]
fn update_gzip_bytes_are_unchanged() {
    let update = update();
    let bytes = update.encode();
    assert_eq!(hex(&bytes), UPDATE_GZIP);
    // Similarities travel quantized, so compare wire shapes.
    assert_eq!(
        KnnUpdate::decode(&bytes).unwrap().to_json(),
        update.to_json()
    );
}

#[test]
fn job_gzip_bytes_are_unchanged() {
    let job = three_candidate_job();
    let bytes = job.encode();
    assert_eq!(hex(&bytes), JOB_GZIP);
    assert_eq!(PersonalizationJob::decode(&bytes).unwrap(), job);
}
