//! The deployment shape of the paper: a real HTTP server speaking the
//! Table 1 web API, with "browsers" talking to it over TCP.
//!
//! Spawns the HyRec server on an ephemeral port, registers some users over
//! `/rate/`, then runs widget clients against `/online/` + `/neighbors/` —
//! the same gunzip → compute → gzip round-trip a real browser widget (or a
//! WASM build of `hyrec-client`) would perform:
//!
//! ```text
//! cargo run --release --example http_server
//! ```

use hyrec::client::Widget;
use hyrec::http::{api, HttpClient, ReactorServer};
use hyrec::prelude::*;
use std::sync::Arc;

fn main() {
    let hyrec = Arc::new(HyRecServer::builder().k(5).r(5).seed(11).build());
    // The sharded epoll reactor front-end: two event loops, each with its
    // own SO_REUSEPORT listener, each running its own handlers; each loop
    // coalesces its connections' concurrent /online/ and /rate/ traffic
    // onto the batched pipeline (build_jobs / record_many).
    let server = ReactorServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr();
    println!(
        "== HyRec web API: {} reactor shards on http://{addr}",
        server.reactors()
    );
    let handle = server.serve(api::hyrec_router(Arc::clone(&hyrec)));

    // --- Users rate items through the web API.
    let client = HttpClient::new(addr);
    println!("== POSTing ratings through /rate/");
    for user in 0..30u32 {
        for i in 0..6u32 {
            let item = (user % 3) * 50 + i;
            let response = client
                .get(&format!("/rate/?uid={user}&item={item}&like=1"))
                .expect("rate");
            assert_eq!(response.status, 200);
        }
    }

    // --- Browser clients: fetch job, compute, report back; two rounds.
    let widget = Widget::new();
    println!("== running browser widgets over HTTP");
    for round in 1..=2 {
        let mut job_bytes = 0usize;
        for user in 0..30u32 {
            let response = client.get(&format!("/online/?uid={user}")).expect("online");
            assert_eq!(response.status, 200);
            job_bytes += response.body.len();

            let job = PersonalizationJob::decode(&response.body).expect("job decodes");
            let out = widget.run_job(&job);

            let posted = client
                .post("/neighbors/", &out.update.encode())
                .expect("neighbors");
            assert_eq!(posted.status, 200);
        }
        println!(
            "   round {round}: view similarity {:.3}, {} job bytes on the wire",
            hyrec.average_view_similarity(),
            job_bytes
        );
    }

    // --- The Table 1 GET form works too. Candidate ids in jobs are
    // pseudonyms (the anonymous mapping of Section 3.1), so a widget
    // reports back the pseudonymous ids it received.
    let response = client.get("/online/?uid=0").expect("online");
    let job = PersonalizationJob::decode(&response.body).expect("job");
    let mut query = String::from("/neighbors/?uid=0");
    for (i, candidate) in job.candidates.iter().take(3).enumerate() {
        query.push_str(&format!(
            "&id{i}={}&sim{i}=0.{}",
            candidate.user.raw(),
            9 - i
        ));
    }
    let response = client.get(&query).expect("get form");
    assert_eq!(response.status, 200);
    println!(
        "== Table 1 GET form accepted; u0 now has {} stored neighbours (pseudonyms resolved)",
        hyrec.knn_of(UserId(0)).map_or(0, |h| h.len())
    );

    let shard_requests: Vec<u64> = handle
        .stats()
        .shards()
        .iter()
        .map(|shard| shard.requests())
        .collect();
    println!(
        "== {} requests served ({} coalesced into {} batches; per shard: {shard_requests:?})",
        handle.request_count(),
        handle.stats().batched_requests(),
        handle.stats().batches()
    );
    handle.stop();
    println!("== server stopped cleanly");
}
