//! Wire-substrate micro-benches: JSON codec and DEFLATE/gzip throughput
//! (the per-message costs behind Figures 8 and 10).
//!
//! The `-assembled` cases decode what browsers actually receive: a body
//! the fragment-caching `JobEncoder` assembles, with one dynamic Huffman
//! block per candidate (about 120 at k = 10 and 100-item profiles) plus
//! empty sync-flush blocks, rather than a single-stream `gzip::compress`
//! body with one block.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrec_server::JobEncoder;
use hyrec_sim::device::synthetic_job;
use hyrec_wire::crc::crc32;
use hyrec_wire::deflate::lz77::Effort;
use hyrec_wire::json::JsonValue;
use hyrec_wire::{gzip, PersonalizationJob};

fn job_bytes(ps: usize) -> Vec<u8> {
    synthetic_job(ps, 10, hyrec_core::candidate_set_bound(10))
        .to_json()
        .into_bytes()
}

fn bench_json(c: &mut Criterion) {
    let mut group = c.benchmark_group("json");
    group.sample_size(20);
    for ps in [10usize, 100, 300] {
        let job = synthetic_job(ps, 10, hyrec_core::candidate_set_bound(10));
        let raw = job_bytes(ps);
        let text = String::from_utf8(raw.clone()).unwrap();
        group.throughput(Throughput::Bytes(raw.len() as u64));
        group.bench_with_input(BenchmarkId::new("serialize", ps), &ps, |bench, _| {
            bench.iter(|| std::hint::black_box(job.to_json().into_bytes()));
        });
        group.bench_with_input(BenchmarkId::new("parse", ps), &ps, |bench, _| {
            bench.iter(|| std::hint::black_box(JsonValue::parse(&text).unwrap()));
        });
        // What the browser's decode stage costs: the tape plus the
        // schema walk that builds the job.
        group.bench_with_input(
            BenchmarkId::new("parse-and-read-job", ps),
            &ps,
            |bench, _| {
                bench.iter(|| {
                    let doc = JsonValue::parse(&text).unwrap();
                    std::hint::black_box(PersonalizationJob::from_json(&doc).unwrap())
                });
            },
        );
    }
    group.finish();
}

fn bench_gzip(c: &mut Criterion) {
    let mut group = c.benchmark_group("gzip");
    group.sample_size(20);
    for ps in [100usize, 300] {
        let raw = job_bytes(ps);
        group.throughput(Throughput::Bytes(raw.len() as u64));
        group.bench_with_input(BenchmarkId::new("compress-fast", ps), &ps, |bench, _| {
            bench.iter(|| std::hint::black_box(gzip::compress_with(&raw, Effort::FAST)));
        });
        group.bench_with_input(BenchmarkId::new("compress-default", ps), &ps, |bench, _| {
            bench.iter(|| std::hint::black_box(gzip::compress_with(&raw, Effort::DEFAULT)));
        });
        let packed = gzip::compress(&raw);
        group.bench_with_input(BenchmarkId::new("decompress", ps), &ps, |bench, _| {
            bench.iter(|| std::hint::black_box(gzip::decompress(&packed).unwrap()));
        });
    }
    let assembled = assembled_body();
    group.bench_function("decompress-assembled", |bench| {
        bench.iter(|| std::hint::black_box(gzip::decompress(&assembled).unwrap()));
    });
    group.finish();
}

/// The gzip trailer check a browser runs on every job: CRC-32 of the
/// ~70 kB decoded assembled body.
fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc");
    group.sample_size(20);
    let raw = gzip::decompress(&assembled_body()).unwrap();
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("crc32-assembled", |bench| {
        bench.iter(|| std::hint::black_box(crc32(std::hint::black_box(&raw))));
    });
    group.finish();
}

fn bench_messages(c: &mut Criterion) {
    let mut group = c.benchmark_group("messages");
    group.sample_size(20);
    let job = synthetic_job(100, 10, hyrec_core::candidate_set_bound(10));
    let encoded = job.encode();
    group.bench_function("job-encode-uncached", |bench| {
        bench.iter(|| std::hint::black_box(job.encode()));
    });
    group.bench_function("job-decode", |bench| {
        bench.iter(|| std::hint::black_box(PersonalizationJob::decode(&encoded).unwrap()));
    });
    let assembled = assembled_body();
    group.bench_function("job-decode-assembled", |bench| {
        bench.iter(|| std::hint::black_box(PersonalizationJob::decode(&assembled).unwrap()));
    });
    group.finish();
}

/// A 100-item, 120-candidate job as the fragment-caching encoder ships it.
fn assembled_body() -> Vec<u8> {
    let job = synthetic_job(100, 10, hyrec_core::candidate_set_bound(10));
    JobEncoder::new().encode(&job)
}

criterion_group!(benches, bench_json, bench_gzip, bench_crc, bench_messages);
criterion_main!(benches);
