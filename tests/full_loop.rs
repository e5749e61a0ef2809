//! End-to-end integration: dataset → wire → server → widget → convergence.
//!
//! Unlike the in-process unit tests, every personalization job and KNN
//! update here crosses the *real wire encoding* (JSON + gzip), exercising
//! datasets, core, wire, client and server together.

use hyrec::prelude::*;
use hyrec_datasets::{DatasetSpec, TraceGenerator};

/// Replays a scaled ML1 trace with full wire encoding on every exchange.
#[test]
fn trace_replay_over_the_wire_converges() {
    let spec = DatasetSpec::ML1.scaled(0.05);
    let trace = TraceGenerator::new(spec, 21).generate().binarize();
    let server = HyRecServer::builder().k(5).seed(4).build();
    let encoder = JobEncoder::new();
    let widget = Widget::new();

    for event in trace.iter() {
        server.record(event.user, event.item, event.vote);
        let job = server.build_job(event.user);

        // Server → browser: chunk-cached gzip JSON.
        let bytes = encoder.encode(&job);
        let received = PersonalizationJob::decode(&bytes).expect("job decodes");
        assert_eq!(received, job);

        // Browser computes and replies over the wire.
        let (_, update_bytes) = widget
            .run_encoded_job(&bytes)
            .expect("widget handles wire job");
        let update = KnnUpdate::decode(&update_bytes).expect("update decodes");
        server.apply_update(&update);
    }

    assert!(
        server.average_view_similarity() > 0.1,
        "converged similarity too low: {}",
        server.average_view_similarity()
    );
    assert_eq!(server.requests_served(), trace.len() as u64);
    assert_eq!(server.updates_applied(), trace.len() as u64);
}

/// Pseudonym rotation mid-replay must not corrupt the KNN table.
#[test]
fn anonymization_rotation_is_transparent_to_convergence() {
    let server = HyRecServer::builder().k(4).seed(9).build();
    let widget = Widget::new();
    for u in 0..30u32 {
        for i in 0..6u32 {
            server.record(UserId(u), ItemId((u % 3) * 100 + i), Vote::Like);
        }
    }
    for round in 0..6 {
        if round % 2 == 1 {
            server.rotate_pseudonyms();
        }
        for u in 0..30u32 {
            let job = server.build_job(UserId(u));
            // All candidate ids must be pseudonyms, never real ids.
            for c in job.candidates.iter() {
                assert!(c.user.0 >= 30, "real id {} leaked", c.user);
            }
            let out = widget.run_job(&job);
            server.apply_update(&out.update);
        }
    }
    assert!(server.average_view_similarity() > 0.9);
    // Stored neighbours are real ids again.
    for u in 0..30u32 {
        let hood = server.knn_of(UserId(u)).expect("knn");
        for n in hood.iter() {
            assert!(n.user.0 < 30, "pseudonym {} stored", n.user);
        }
    }
}

/// New users (cold start) get jobs immediately and join the graph.
#[test]
fn cold_start_user_joins_within_one_round() {
    let server = HyRecServer::builder()
        .k(3)
        .seed(1)
        .anonymize_users(false)
        .build();
    let widget = Widget::new();
    for u in 0..20u32 {
        for i in 0..5u32 {
            server.record(UserId(u), ItemId(i), Vote::Like);
        }
        let job = server.build_job(UserId(u));
        let out = widget.run_job(&job);
        server.apply_update(&out.update);
    }
    // Newcomer rates one item and immediately gets neighbours.
    server.record(UserId(99), ItemId(0), Vote::Like);
    let job = server.build_job(UserId(99));
    assert!(!job.candidates.is_empty());
    let out = widget.run_job(&job);
    assert!(!out.update.neighbors.is_empty());
    assert!(!out.recommendations.is_empty());
    server.apply_update(&out.update);
    assert!(server.knn_of(UserId(99)).is_some());
}
