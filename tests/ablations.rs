//! Ablations of three design choices: the sampler's three legs,
//! offline-user leverage, and compression effort.

use hyrec::prelude::*;
use hyrec::server::sampler::{NoRandomSampler, RandomOnlySampler};
use hyrec_server::HyRecServer;

fn populate(server: &HyRecServer, users: u32) {
    for u in 0..users {
        for i in 0..8u32 {
            server.record(UserId(u), ItemId((u % 5) * 100 + i), Vote::Like);
        }
    }
}

fn run_rounds(server: &HyRecServer, users: u32, rounds: usize) -> f64 {
    let widget = Widget::new();
    for _ in 0..rounds {
        for u in 0..users {
            let job = server.build_job(UserId(u));
            let out = widget.run_job(&job);
            server.apply_update(&out.update);
        }
    }
    server.average_view_similarity()
}

/// Section 3.1's justification for the sampler's structure: the 2-hop
/// feedback leg accelerates convergence beyond pure random sampling, and
/// the random leg is what lets the process bootstrap at all.
///
/// Uses *graded* similarity structure (overlapping item windows, so each
/// user has a distinct best-neighbour set): finding the true top-k then
/// requires exploitation, which is exactly what the gossip feedback
/// provides and blind random sampling lacks.
#[test]
fn sampler_legs_each_earn_their_keep() {
    let users = 300u32;
    let config = || {
        HyRecConfig::builder()
            .k(5)
            .anonymize_users(false)
            .seed(17)
            .build()
    };

    let default_server = HyRecServer::with_config(config());
    let random_only = HyRecServer::with_sampler(config(), RandomOnlySampler);
    let no_random = HyRecServer::with_sampler(config(), NoRandomSampler);
    for server in [&default_server, &random_only, &no_random] {
        for u in 0..users {
            // Sliding 10-item window over a 400-item wheel: neighbours at
            // distance d share 10 - d items — graded, not flat.
            for i in 0..10u32 {
                server.record(UserId(u), ItemId((u + i) % 400), Vote::Like);
            }
        }
    }

    let q_default = run_rounds(&default_server, users, 8);
    let q_random = run_rounds(&random_only, users, 8);
    let q_no_random = run_rounds(&no_random, users, 8);

    // Without the random leg the process cannot even bootstrap: the KNN
    // table starts empty, so candidate sets stay empty forever.
    assert_eq!(q_no_random, 0.0, "no-random sampler must fail to bootstrap");
    // The feedback loop exploits structure that random sampling cannot.
    assert!(
        q_default > q_random,
        "2-hop feedback should beat random-only on graded structure: \
         {q_default:.3} vs {q_random:.3}"
    );
    // And it climbs toward the true optimum (top-5 of the wheel: two
    // distance-1 and two distance-2 neighbours plus one distance-3, mean
    // cosine = (2*0.9 + 2*0.8 + 0.7)/5 = 0.82; ring topologies are the
    // slowest case for greedy gossip, so partial convergence is expected).
    assert!(
        q_default > 0.6,
        "default sampler should converge: {q_default:.3}"
    );
}

/// Section 2.4: "Unlike [P2P systems], HyRec allows clients to have offline
/// users within their KNN, thus leveraging clients that are not
/// concurrently online." The server samples from the *profile table*, so
/// users who never return still serve as candidates and neighbours.
#[test]
fn offline_users_still_serve_as_neighbors() {
    let server = HyRecServer::builder()
        .k(4)
        .anonymize_users(false)
        .seed(23)
        .build();
    // Users 0-19 rated once and left forever (they never issue requests).
    for u in 0..20u32 {
        for i in 0..8u32 {
            server.record(UserId(u), ItemId(i), Vote::Like);
        }
    }
    // User 99 is the only online user, with the same taste.
    for i in 0..8u32 {
        server.record(UserId(99), ItemId(i), Vote::Like);
    }
    let widget = Widget::new();
    for _ in 0..3 {
        let job = server.build_job(UserId(99));
        let out = widget.run_job(&job);
        server.apply_update(&out.update);
    }
    let hood = server.knn_of(UserId(99)).expect("knn");
    assert_eq!(hood.len(), 4);
    assert!(
        hood.iter().all(|n| n.user.0 < 20),
        "all neighbours are offline users"
    );
    assert!((hood.view_similarity() - 1.0).abs() < 1e-9);
}

/// The compression-effort trade-off the encoder exploits: FAST costs
/// bandwidth but compresses the same stream correctly.
#[test]
fn compression_effort_tradeoff_is_monotone() {
    use hyrec::wire::deflate::lz77::Effort;
    use hyrec::wire::gzip;
    let server = HyRecServer::builder()
        .k(10)
        .anonymize_users(false)
        .seed(5)
        .build();
    populate(&server, 150);
    let widget = Widget::new();
    for u in 0..150u32 {
        let job = server.build_job(UserId(u));
        server.apply_update(&widget.run_job(&job).update);
    }
    let raw = server.build_job(UserId(0)).to_json().into_bytes();
    let fast = gzip::compress_with(&raw, Effort::FAST);
    let default = gzip::compress_with(&raw, Effort::DEFAULT);
    let best = gzip::compress_with(&raw, Effort::BEST);
    assert!(
        default.len() <= fast.len(),
        "{} vs {}",
        default.len(),
        fast.len()
    );
    assert!(best.len() <= default.len());
    for packed in [&fast, &default, &best] {
        assert_eq!(gzip::decompress(packed).unwrap(), raw);
    }
}
