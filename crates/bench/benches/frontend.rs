//! Front-end service-time micro-benches — the per-request work compared in
//! Figures 8 and 9: HyRec's orchestration vs CRec's server-side
//! recommendation vs the online-ideal full scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyrec_core::{recommend, Cosine, UserId};
use hyrec_server::OnlineIdeal;
use hyrec_sim::load::{build_converged_population, build_population, warm_cache};

fn bench_frontends(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend");
    group.sample_size(20);
    for ps in [100usize, 300] {
        let population = build_population(1_000, ps, 10, 42);
        // Warm the fragment cache (batched job build).
        warm_cache(&population, 64);

        group.bench_with_input(BenchmarkId::new("hyrec-job-build", ps), &ps, |bench, _| {
            let mut i = 0usize;
            bench.iter(|| {
                let user = population.users[i % population.users.len()];
                i += 1;
                std::hint::black_box(population.server.build_job(user))
            });
        });
        group.bench_with_input(
            BenchmarkId::new("hyrec-job-build+encode", ps),
            &ps,
            |bench, _| {
                let mut i = 0usize;
                bench.iter(|| {
                    let user = population.users[i % population.users.len()];
                    i += 1;
                    let job = population.server.build_job(user);
                    std::hint::black_box(population.encoder.encode(&job))
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("crec-recommend", ps), &ps, |bench, _| {
            let mut i = 0usize;
            bench.iter(|| {
                let user = population.users[i % population.users.len()];
                i += 1;
                let job = population.server.build_job(user);
                std::hint::black_box(recommend::most_popular(
                    &job.profile,
                    job.candidates.profiles(),
                    job.r,
                ))
            });
        });
        group.bench_with_input(
            BenchmarkId::new("online-ideal-recommend", ps),
            &ps,
            |bench, _| {
                let ideal = OnlineIdeal::new(population.server.table(), Cosine, 10);
                let mut i = 0usize;
                bench.iter(|| {
                    let user = population.users[i % population.users.len()];
                    i += 1;
                    std::hint::black_box(ideal.recommend(user, 10))
                });
            },
        );
    }
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    // The acceptance bench for the batched pipeline: on a 10k-user
    // population, building a coalesced batch of jobs through `build_jobs`
    // must beat the same work done as N sequential `build_job` calls
    // (RNG lock, anonymizer and the table's slot views taken per batch).
    // `build_job` is `build_jobs` on a batch of one, so the `*sequential*`
    // cases time N batches of one — a lone `/online/` request's job build,
    // N times.
    let mut group = c.benchmark_group("batched");
    group.sample_size(15);
    let population = build_population(10_000, 100, 10, 11);
    const BATCH: usize = 256;
    let n = population.users.len();

    group.bench_with_input(
        BenchmarkId::new("sequential-build_job", BATCH),
        &BATCH,
        |bench, _| {
            let mut i = 0usize;
            bench.iter(|| {
                let jobs: Vec<_> = (0..BATCH)
                    .map(|j| population.server.build_job(population.users[(i + j) % n]))
                    .collect();
                i = (i + BATCH) % n;
                std::hint::black_box(jobs)
            });
        },
    );
    group.bench_with_input(BenchmarkId::new("build_jobs", BATCH), &BATCH, |bench, _| {
        let mut i = 0usize;
        bench.iter(|| {
            let users: Vec<UserId> = (0..BATCH).map(|j| population.users[(i + j) % n]).collect();
            i = (i + BATCH) % n;
            std::hint::black_box(population.server.build_jobs(&users))
        });
    });

    // Steady state: a converged KNN table, where a batch's candidate pool
    // collapses onto shared communities.
    let converged = build_converged_population(10_000, 100, 10, 12);
    let n_converged = converged.users.len();
    group.bench_with_input(
        BenchmarkId::new("converged-sequential-build_job", BATCH),
        &BATCH,
        |bench, _| {
            let mut i = 0usize;
            bench.iter(|| {
                let jobs: Vec<_> = (0..BATCH)
                    .map(|j| {
                        converged
                            .server
                            .build_job(converged.users[(i + j) % n_converged])
                    })
                    .collect();
                i = (i + BATCH) % n_converged;
                std::hint::black_box(jobs)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("converged-build_jobs", BATCH),
        &BATCH,
        |bench, _| {
            let mut i = 0usize;
            bench.iter(|| {
                let users: Vec<UserId> = (0..BATCH)
                    .map(|j| converged.users[(i + j) % n_converged])
                    .collect();
                i = (i + BATCH) % n_converged;
                std::hint::black_box(converged.server.build_jobs(&users))
            });
        },
    );
    group.finish();
}

fn bench_batched_encoder(c: &mut Criterion) {
    // The coalescing front-end's serialization path over warm memos, at
    // the benchmark's shape (10k users x 100 items, k = 10, batches of 32
    // jobs): the whole `encode_jobs`, the same jobs encoded one by one, and
    // its stages — `resolve` (a memo read on the profile for each job's
    // requester chunk and candidate fragments) and `assemble` (stored
    // heads, memcpys, CRC folds, trailers). Divide a median by 32 for the
    // cost per job. `requester-miss` and `fragment-miss` are what a vote
    // adds to `resolve` when the voter next requests a job or next appears
    // as a candidate.
    let mut group = c.benchmark_group("encoder");
    group.sample_size(15);
    let population = build_population(10_000, 100, 10, 11);
    const BATCH: usize = 32;
    const BATCHES: usize = 8;
    let batches: Vec<Vec<_>> = population.users[..BATCH * BATCHES]
        .chunks(BATCH)
        .map(|users| population.server.build_jobs(users))
        .collect();
    for jobs in &batches {
        let _ = population.encoder.encode_jobs(jobs); // fill the memos
    }
    let mut next = 0usize;
    let mut cycle = || {
        next = (next + 1) % BATCHES;
        &batches[next]
    };

    group.bench_with_input(
        BenchmarkId::new("scalar-encode", BATCH),
        &BATCH,
        |bench, _| {
            bench.iter(|| {
                let bodies: Vec<_> = cycle()
                    .iter()
                    .map(|job| population.encoder.encode(job))
                    .collect();
                std::hint::black_box(bodies)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("encode_jobs", BATCH),
        &BATCH,
        |bench, _| {
            bench.iter(|| std::hint::black_box(population.encoder.encode_jobs(cycle())));
        },
    );
    group.bench_with_input(BenchmarkId::new("resolve", BATCH), &BATCH, |bench, _| {
        bench.iter(|| std::hint::black_box(population.encoder.resolve(cycle())));
    });
    let resolved: Vec<_> = batches
        .iter()
        .map(|jobs| population.encoder.resolve(jobs))
        .collect();
    group.bench_with_input(BenchmarkId::new("assemble", BATCH), &BATCH, |bench, _| {
        let mut i = 0usize;
        bench.iter(|| {
            i = (i + 1) % BATCHES;
            std::hint::black_box(resolved[i].assemble(&batches[i]))
        });
    });

    // A requester-chunk miss as `JobEncoder::resolve` handles one: the
    // requester's profile and the opening of the candidates array (about
    // 400 bytes at 100 liked items) compressed and its CRC-32 taken. Its
    // shift operator is interned by length, built only for a length not
    // yet interned.
    let job = &batches[0][0];
    let items = |items: &mut dyn Iterator<Item = hyrec_core::ItemId>| {
        items
            .map(|item| item.raw().to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let requester = format!(
        "{{\"liked\":[{}],\"disliked\":[{}]}},\"candidates\":[null",
        items(&mut job.profile.liked()),
        items(&mut job.profile.disliked()),
    );
    group.bench_with_input(
        BenchmarkId::new("requester-miss", requester.len()),
        &requester,
        |bench, requester| {
            let raw = requester.as_bytes();
            bench.iter(|| {
                std::hint::black_box((
                    hyrec_wire::deflate::compress_chunk(
                        raw,
                        hyrec_wire::deflate::lz77::Effort::FAST,
                    ),
                    hyrec_wire::crc::crc32(raw),
                ))
            });
        },
    );

    // A fragment miss as `JobEncoder::resolve` handles one: a candidate's
    // fragment (about 650 bytes at 100 liked items) compressed, its CRC-32
    // taken and its CRC shift operator built (as for a length not yet
    // interned; other lengths reuse an interned one). Candidate order is hashed,
    // so the job's longest fragment (lowest uid on ties) is timed: the
    // same input on every run.
    let (fragment, _) = job
        .candidates
        .iter()
        .map(|candidate| {
            let fragment = format!(
                ",{{\"uid\":{},\"profile\":{{\"liked\":[{}],\"disliked\":[{}]}}}}",
                candidate.user.raw(),
                items(&mut candidate.profile.liked()),
                items(&mut candidate.profile.disliked()),
            );
            (fragment, candidate.user)
        })
        .max_by_key(|(fragment, user)| (fragment.len(), std::cmp::Reverse(*user)))
        .expect("jobs have candidates");
    group.bench_with_input(
        BenchmarkId::new("fragment-miss", fragment.len()),
        &fragment,
        |bench, fragment| {
            let raw = fragment.as_bytes();
            bench.iter(|| {
                std::hint::black_box((
                    hyrec_wire::deflate::compress_chunk(
                        raw,
                        hyrec_wire::deflate::lz77::Effort::FAST,
                    ),
                    hyrec_wire::crc::crc32(raw),
                    hyrec_wire::crc::ShiftOp::for_len(raw.len() as u64),
                ))
            });
        },
    );
    group.finish();
}

fn bench_sampler(c: &mut Criterion) {
    // `candidate-set`: one job per call, i.e. `build_jobs` on a batch of
    // one — what a lone `/online/` request runs.
    let mut group = c.benchmark_group("sampler");
    group.sample_size(30);
    for k in [10usize, 20] {
        let population = build_population(2_000, 100, k, 7);
        group.bench_with_input(BenchmarkId::new("candidate-set", k), &k, |bench, _| {
            let mut i = 0usize;
            bench.iter(|| {
                let user = population.users[i % population.users.len()];
                i += 1;
                std::hint::black_box(population.server.build_job(UserId(user.0)))
            });
        });
    }

    // `build_jobs/32`: the batch a coalesced `/online/` burst serves, on
    // perfbench's `online_read` population (10k users, 100-item profiles,
    // k = 10 random neighbours) with distinct, scattered requesters.
    const BATCH: usize = 32;
    let population = build_population(10_000, 100, 10, 1);
    let n = population.users.len();
    group.bench_with_input(BenchmarkId::new("build_jobs", BATCH), &BATCH, |bench, _| {
        let mut i = 0usize;
        bench.iter(|| {
            let users: Vec<UserId> = (0..BATCH)
                .map(|j| population.users[((i + j) * 7_919) % n])
                .collect();
            i += BATCH;
            std::hint::black_box(population.server.build_jobs(&users))
        });
    });
    group.finish();
}

fn bench_http_framing(c: &mut Criterion) {
    // The reactor's per-request framing cost: `Request::try_parse` over a
    // rolling buffer holding 1–16 pipelined Table 1 calls — the hot loop
    // every kept-alive connection runs on every read.
    let mut group = c.benchmark_group("http-framing");
    group.sample_size(30);
    for pipeline in [1usize, 4, 16] {
        let mut wire = Vec::new();
        for uid in 0..pipeline {
            wire.extend_from_slice(
                format!(
                    "GET /online/?uid={uid} HTTP/1.1\r\nhost: hyrec\r\n\
                     connection: keep-alive\r\naccept-encoding: gzip\r\n\r\n"
                )
                .as_bytes(),
            );
        }
        group.bench_with_input(
            BenchmarkId::new("try_parse-pipelined", pipeline),
            &pipeline,
            |bench, _| {
                bench.iter(|| {
                    let mut offset = 0usize;
                    let mut framed = 0usize;
                    while let Some((request, consumed)) =
                        hyrec_http::Request::try_parse(&wire[offset..]).expect("valid frames")
                    {
                        offset += consumed;
                        framed += 1;
                        std::hint::black_box(request);
                    }
                    assert_eq!(framed, pipeline);
                    std::hint::black_box(offset)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_frontends,
    bench_batched,
    bench_batched_encoder,
    bench_sampler,
    bench_http_framing
);
criterion_main!(benches);
