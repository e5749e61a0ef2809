//! Wire-format interoperability: our gzip must interoperate with the
//! system `gzip` binary (browsers natively decompress the paper's
//! messages, so we cannot afford a dialect), and the chunked encoder's
//! streams must be plain RFC-1951/1952 to any decoder.

use hyrec::prelude::*;
use hyrec::wire::deflate::{self, lz77::Effort, STREAM_TERMINATOR};
use hyrec::wire::{crc, gzip};
use std::io::Write;
use std::process::{Command, Stdio};

fn system_gzip_available() -> bool {
    Command::new("gzip")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn sample_payload() -> Vec<u8> {
    let server = HyRecServer::builder()
        .k(8)
        .anonymize_users(false)
        .seed(31)
        .build();
    for u in 0..120u32 {
        for i in 0..60u32 {
            server.record(UserId(u), ItemId((u * 37 + i * 13) % 5_000), Vote::Like);
        }
    }
    let widget = Widget::new();
    for u in 0..120u32 {
        let job = server.build_job(UserId(u));
        server.apply_update(&widget.run_job(&job).update);
    }
    server.build_job(UserId(7)).to_json().into_bytes()
}

/// `zcat` must decode our gzip output byte-for-byte.
#[test]
fn system_gzip_decodes_our_output() {
    if !system_gzip_available() {
        eprintln!("skipping: no system gzip");
        return;
    }
    let payload = sample_payload();
    for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
        let packed = gzip::compress_with(&payload, effort);
        let mut child = Command::new("gzip")
            .args(["-dc"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gzip");
        child.stdin.as_mut().unwrap().write_all(&packed).unwrap();
        let out = child.wait_with_output().expect("gzip runs");
        assert!(out.status.success(), "gzip rejected our frame ({effort:?})");
        assert_eq!(out.stdout, payload, "payload mismatch ({effort:?})");
    }
}

/// Our decoder must accept system-gzip output.
#[test]
fn we_decode_system_gzip_output() {
    if !system_gzip_available() {
        eprintln!("skipping: no system gzip");
        return;
    }
    let payload = sample_payload();
    for level in ["-1", "-6", "-9"] {
        let mut child = Command::new("gzip")
            .args([level, "-c"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gzip");
        child.stdin.as_mut().unwrap().write_all(&payload).unwrap();
        let out = child.wait_with_output().expect("gzip runs");
        let decoded = gzip::decompress(&out.stdout).expect("our decoder accepts");
        assert_eq!(decoded, payload, "level {level}");
    }
}

/// The chunk-assembled streams of the fragment encoder are plain DEFLATE:
/// the system decoder must accept a member built from sync-flushed chunks.
#[test]
fn chunked_streams_are_standard_deflate() {
    let parts: [&[u8]; 4] = [b"alpha,", b"beta,", b"", b"gamma"];
    let mut stream = Vec::new();
    stream.extend_from_slice(&gzip::HEADER);
    let mut combined_crc = crc::crc32(b"");
    let mut total = 0u64;
    for part in parts {
        stream.extend_from_slice(&deflate::compress_chunk(part, Effort::FAST));
        combined_crc = crc::crc32_combine(combined_crc, crc::crc32(part), part.len() as u64);
        total += part.len() as u64;
    }
    stream.extend_from_slice(&STREAM_TERMINATOR);
    stream.extend_from_slice(&combined_crc.to_le_bytes());
    stream.extend_from_slice(&(total as u32).to_le_bytes());

    // Our own decoder accepts it…
    assert_eq!(gzip::decompress(&stream).unwrap(), b"alpha,beta,gamma");

    // …and so does the system one.
    if system_gzip_available() {
        let mut child = Command::new("gzip")
            .args(["-dc"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gzip");
        child.stdin.as_mut().unwrap().write_all(&stream).unwrap();
        let out = child.wait_with_output().expect("gzip runs");
        assert!(out.status.success(), "system gzip rejected chunked stream");
        assert_eq!(out.stdout, b"alpha,beta,gamma");
    }
}

/// Torture the JSON path with hostile item sets and ids through the whole
/// job pipeline (encode → decode → widget → update → decode).
#[test]
fn hostile_ids_survive_the_full_pipeline() {
    let mut candidates = hyrec::core::CandidateSet::new();
    candidates.insert(
        UserId(u32::MAX),
        Profile::from_liked([0u32, 1, u32::MAX - 1, u32::MAX]),
    );
    candidates.insert(UserId(0), Profile::from_votes([u32::MAX], [0u32]));
    let job = PersonalizationJob {
        uid: UserId(u32::MAX - 7),
        k: 2,
        r: 3,
        lease: 0,
        epoch: 0,
        profile: Profile::from_liked([42u32]).into(),
        candidates,
    };
    let bytes = job.encode();
    let widget = Widget::new();
    let (out, update_bytes) = widget.run_encoded_job(&bytes).expect("pipeline survives");
    let update = KnnUpdate::decode(&update_bytes).expect("update decodes");
    assert_eq!(update.uid, UserId(u32::MAX - 7));
    assert_eq!(update.neighbors.len(), out.update.neighbors.len());
}
