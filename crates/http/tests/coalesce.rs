//! Coalescing equivalence: traffic served through the reactor front-end's
//! gather-and-batch path must be **byte-identical** to the scalar
//! `build_job` + encode pipeline.
//!
//! The populations here sample without a random leg
//! ([`NoRandomSampler`]), which makes every personalization job a pure
//! function of table state — so concurrent arrival order (which the OS
//! scheduler controls) cannot change any response, and each client's body
//! can be checked against a twin server driven scalarly.

use hyrec_core::{ItemId, Neighbor, Neighborhood, UserId, Vote};
use hyrec_http::api;
use hyrec_http::{BatchPolicy, HttpClient, ReactorServer};
use hyrec_server::{HyRecConfig, HyRecServer, JobEncoder, NoRandomSampler};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const USERS: u32 = 48;
const K: usize = 4;

/// A deterministic population: dense profiles in five taste groups and a
/// warm ring-shaped KNN table. No RNG is consumed building jobs.
fn populated_server() -> Arc<HyRecServer> {
    let server = HyRecServer::with_sampler(
        HyRecConfig::builder()
            .k(K)
            .r(5)
            .anonymize_users(false)
            .seed(77)
            .build(),
        NoRandomSampler,
    );
    for u in 0..USERS {
        for i in 0..10u32 {
            server.record(UserId(u), ItemId((u % 5) * 100 + i), Vote::Like);
        }
    }
    for u in 0..USERS {
        let hood = Neighborhood::from_neighbors((1..=K as u32).map(|d| Neighbor {
            user: UserId((u + d) % USERS),
            similarity: 0.5,
        }));
        server.table().update(UserId(u), hood);
    }
    Arc::new(server)
}

fn spawn_reactor(server: &Arc<HyRecServer>) -> (hyrec_http::reactor::ReactorHandle, HttpClient) {
    let (handle, client, _) = spawn_sharded(server, 1);
    (handle, client)
}

/// Spins up the HyRec API on a `reactors`-sharded reactor front-end.
fn spawn_sharded(
    server: &Arc<HyRecServer>,
    reactors: usize,
) -> (
    hyrec_http::reactor::ReactorHandle,
    HttpClient,
    std::net::SocketAddr,
) {
    let policy = BatchPolicy { max_batch: 32 };
    let router = api::hyrec_router_with(Arc::clone(server), Arc::new(JobEncoder::new()), policy);
    let http = ReactorServer::bind("127.0.0.1:0", reactors).expect("bind reactor");
    let addr = http.local_addr();
    let handle = http.serve(router);
    (handle, HttpClient::new(addr), addr)
}

#[test]
fn concurrent_online_bodies_match_sequential_scalar_path() {
    let live = populated_server();
    let twin = populated_server();
    let (handle, client) = spawn_reactor(&live);

    // Expected bodies from the scalar pipeline: build_job + encode per
    // user, on the twin.
    let twin_encoder = JobEncoder::new();
    let expected: Vec<Vec<u8>> = (0..USERS)
        .map(|u| twin_encoder.encode(&twin.build_job(UserId(u))))
        .collect();

    let mut joins = Vec::new();
    for u in 0..USERS {
        let expected_body = expected[u as usize].clone();
        let client = client.clone();
        joins.push(thread::spawn(move || {
            let response = client.get(&format!("/online/?uid={u}")).expect("online");
            assert_eq!(response.status, 200);
            assert_eq!(
                response.body, expected_body,
                "coalesced body diverged for uid {u}"
            );
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Every request went through the batch route, and the server really
    // did coalesce (fewer flushes than requests is expected but not
    // guaranteed under scheduling; the hard assertions are above).
    let stats = handle.stats();
    assert_eq!(stats.batched_requests(), u64::from(USERS));
    assert!(stats.batches() >= 1);
    assert_eq!(live.requests_served(), u64::from(USERS));
    handle.stop();
}

#[test]
fn interleaved_rate_and_online_traffic_matches_scalar_path() {
    let live = populated_server();
    let twin = populated_server();
    let (handle, client) = spawn_reactor(&live);

    // Phase 1 — a concurrent burst of votes: one new like and one flip per
    // user. Each user touches only their own profile, so cross-user arrival
    // order is immaterial and the twin can ingest scalarly.
    let mut joins = Vec::new();
    for u in 0..USERS {
        let client = client.clone();
        joins.push(thread::spawn(move || {
            let fresh = client
                .get(&format!("/rate/?uid={u}&item={}&like=1", 1000 + u))
                .expect("rate like");
            assert_eq!(fresh.status, 200);
            assert!(
                String::from_utf8_lossy(&fresh.body).contains("\"changed\":true"),
                "new like must change the profile"
            );
            let flip = client
                .get(&format!("/rate/?uid={u}&item={}&like=0", (u % 5) * 100))
                .expect("rate flip");
            assert_eq!(flip.status, 200);
            assert!(String::from_utf8_lossy(&flip.body).contains("\"changed\":true"));
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    for u in 0..USERS {
        assert!(twin.record(UserId(u), ItemId(1000 + u), Vote::Like));
        assert!(twin.record(UserId(u), ItemId((u % 5) * 100), Vote::Dislike));
    }

    // Phase 2 — a concurrent burst of job requests against the mutated
    // tables, checked byte-for-byte against the twin's scalar pipeline.
    let twin_encoder = JobEncoder::new();
    let expected: Vec<Vec<u8>> = (0..USERS)
        .map(|u| twin_encoder.encode(&twin.build_job(UserId(u))))
        .collect();
    let mut joins = Vec::new();
    for u in 0..USERS {
        let expected_body = expected[u as usize].clone();
        let client = client.clone();
        joins.push(thread::spawn(move || {
            let response = client.get(&format!("/online/?uid={u}")).expect("online");
            assert_eq!(response.status, 200);
            assert_eq!(
                response.body, expected_body,
                "post-ingest body diverged for uid {u}"
            );
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Phase 3 — one connection pipelines /rate/, /online/, /rate/,
    // /online/ and a 404 in a single write. Its shard frames the whole
    // burst in one pass and runs it batch by batch in route order, so the
    // responses reach the socket through the reorder queue: they must come
    // back in request order, with job bodies equal to the scalar path's.
    // The votes go to users outside both requesters' two-hop rings, so
    // neither job depends on when the votes land.
    {
        use std::io::{Read, Write};
        use std::net::TcpStream;

        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let wire: String = [
            "/rate/?uid=20&item=3000&like=1",
            "/online/?uid=0",
            "/rate/?uid=21&item=3001&like=1",
            "/online/?uid=1",
            "/missing/",
        ]
        .iter()
        .map(|target| format!("GET {target} HTTP/1.1\r\nhost: x\r\n\r\n"))
        .collect();
        stream
            .write_all(wire.as_bytes())
            .expect("pipeline requests");

        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        let mut responses = Vec::new();
        while responses.len() < 5 {
            let n = stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed mid-pipeline");
            buf.extend_from_slice(&chunk[..n]);
            while let Some((response, consumed)) =
                hyrec_http::Response::try_parse(&buf).expect("parse")
            {
                buf.drain(..consumed);
                responses.push(response);
            }
        }
        assert_eq!(
            responses.iter().map(|r| r.status).collect::<Vec<_>>(),
            vec![200, 200, 200, 200, 404]
        );
        for rate in [&responses[0], &responses[2]] {
            assert!(String::from_utf8_lossy(&rate.body).contains("\"changed\":true"));
        }
        for (response, uid) in [(&responses[1], 0), (&responses[3], 1)] {
            assert_eq!(
                response.body,
                twin_encoder.encode(&twin.build_job(UserId(uid))),
                "pipelined mixed-route body diverged for uid {uid}"
            );
        }
        assert!(twin.record(UserId(20), ItemId(3000), Vote::Like));
        assert!(twin.record(UserId(21), ItemId(3001), Vote::Like));
    }

    // The coalesced ingest produced identical profile state.
    for u in 0..USERS {
        assert_eq!(
            live.profile_of(UserId(u)),
            twin.profile_of(UserId(u)),
            "profile diverged for uid {u}"
        );
    }
    handle.stop();
}

#[test]
fn concurrent_knn_posts_match_scalar_apply() {
    use hyrec_client::Widget;

    let live = populated_server();
    let twin = populated_server();
    let (handle, client) = spawn_reactor(&live);

    // Widgets compute deterministic updates from twin-built jobs, then
    // report them back concurrently through the coalesced POST /neighbors/.
    let widget = Widget::new();
    let updates: Vec<_> = (0..USERS)
        .map(|u| widget.run_job(&twin.build_job(UserId(u))).update)
        .collect();

    let mut joins = Vec::new();
    for update in updates.clone() {
        let client = client.clone();
        joins.push(thread::spawn(move || {
            let response = client
                .post("/neighbors/", &update.encode())
                .expect("post update");
            assert_eq!(response.status, 200);
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    for update in &updates {
        twin.apply_update(update);
    }
    for u in 0..USERS {
        assert_eq!(
            live.knn_of(UserId(u)),
            twin.knn_of(UserId(u)),
            "knn diverged for uid {u}"
        );
    }
    assert_eq!(live.updates_applied(), twin.updates_applied());
    handle.stop();
}

#[test]
fn pipelined_keep_alive_bodies_match_scalar_path_in_order() {
    // The keep-alive acceptance check: each "browser" holds one persistent
    // connection and pipelines several /online/ calls back-to-back. The
    // batched responses must come back on the right connection, in request
    // order, byte-identical (modulo the Connection header) to the scalar
    // pipeline — and the pipelined bursts must actually reach the batch
    // layer as ready-made batches.
    use std::io::{Read, Write};
    use std::net::TcpStream;

    const PIPELINE: u32 = 3;
    let live = populated_server();
    let twin = populated_server();
    let (handle, client) = spawn_reactor(&live);
    let addr = {
        // Recover the address from a throwaway request (spawn_reactor only
        // hands back a client).
        drop(client);
        handle.addr()
    };

    let twin_encoder = JobEncoder::new();
    let expected: Vec<Vec<u8>> = (0..USERS)
        .map(|u| twin_encoder.encode(&twin.build_job(UserId(u))))
        .collect();

    let mut joins = Vec::new();
    for conn_index in 0..USERS / PIPELINE {
        let uids: Vec<u32> = (0..PIPELINE).map(|i| conn_index * PIPELINE + i).collect();
        let expected: Vec<Vec<u8>> = uids.iter().map(|&u| expected[u as usize].clone()).collect();
        joins.push(thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut wire = Vec::new();
            for &u in &uids {
                wire.extend_from_slice(
                    format!("GET /online/?uid={u} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes(),
                );
            }
            stream.write_all(&wire).expect("pipeline requests");

            let mut buf = Vec::new();
            let mut chunk = [0u8; 16 * 1024];
            let mut received = 0usize;
            while received < uids.len() {
                let n = stream.read(&mut chunk).expect("read");
                assert!(n > 0, "server closed mid-pipeline");
                buf.extend_from_slice(&chunk[..n]);
                while let Some((response, consumed)) =
                    hyrec_http::Response::try_parse(&buf).expect("parse")
                {
                    buf.drain(..consumed);
                    assert_eq!(response.status, 200);
                    assert_eq!(
                        response.body, expected[received],
                        "pipelined body diverged for uid {} (position {received})",
                        uids[received]
                    );
                    assert_eq!(response.header("connection"), Some("keep-alive"));
                    received += 1;
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let stats = handle.stats();
    assert_eq!(stats.batched_requests(), u64::from(USERS));
    assert_eq!(stats.connections(), u64::from(USERS / PIPELINE));
    // Every connection pipelined PIPELINE requests in one write, so the
    // gather layer must have seen far fewer batches than requests.
    assert!(
        stats.batches() <= u64::from(USERS / PIPELINE),
        "pipelining failed to widen batching: {} batches for {} requests",
        stats.batches(),
        USERS
    );
    handle.stop();
}

#[test]
fn sharded_online_bodies_match_single_reactor_byte_for_byte() {
    // The multi-reactor acceptance check: the same deterministic
    // population served through four event loops must produce responses
    // byte-identical to the single-reactor path (and, transitively, to the
    // scalar build_job + encode pipeline).
    let single_population = populated_server();
    let sharded_population = populated_server();
    let (single_handle, single_client) = spawn_reactor(&single_population);
    let (sharded_handle, sharded_client, _) = spawn_sharded(&sharded_population, 4);

    let mut joins = Vec::new();
    for u in 0..USERS {
        let single_client = single_client.clone();
        let sharded_client = sharded_client.clone();
        joins.push(thread::spawn(move || {
            let single = single_client
                .get(&format!("/online/?uid={u}"))
                .expect("1-reactor online");
            let sharded = sharded_client
                .get(&format!("/online/?uid={u}"))
                .expect("4-reactor online");
            assert_eq!(single.status, 200);
            assert_eq!(sharded.status, 200);
            assert_eq!(
                sharded.body, single.body,
                "sharded body diverged from the 1-reactor path for uid {u}"
            );
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let stats = sharded_handle.stats();
    assert_eq!(stats.batched_requests(), u64::from(USERS));
    assert_eq!(stats.shards().len(), 4);
    assert_eq!(
        stats.shards().iter().map(|s| s.requests()).sum::<u64>(),
        stats.requests(),
        "per-shard request counts must sum to the aggregate"
    );
    single_handle.stop();
    sharded_handle.stop();
}

#[test]
fn sharded_interleaved_rate_and_online_traffic_matches_scalar_path() {
    // The interleaved ingest + query replay of the 1-reactor suite, driven
    // against 4 shards: coalesced /rate/ ingest arriving on different
    // event loops must leave the tables byte-identical to scalar ingest,
    // and the follow-up /online/ bodies must match the scalar pipeline.
    let live = populated_server();
    let twin = populated_server();
    let (handle, client, _) = spawn_sharded(&live, 4);

    let mut joins = Vec::new();
    for u in 0..USERS {
        let client = client.clone();
        joins.push(thread::spawn(move || {
            let fresh = client
                .get(&format!("/rate/?uid={u}&item={}&like=1", 1000 + u))
                .expect("rate like");
            assert_eq!(fresh.status, 200);
            let flip = client
                .get(&format!("/rate/?uid={u}&item={}&like=0", (u % 5) * 100))
                .expect("rate flip");
            assert_eq!(flip.status, 200);
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    for u in 0..USERS {
        assert!(twin.record(UserId(u), ItemId(1000 + u), Vote::Like));
        assert!(twin.record(UserId(u), ItemId((u % 5) * 100), Vote::Dislike));
    }

    let twin_encoder = JobEncoder::new();
    let expected: Vec<Vec<u8>> = (0..USERS)
        .map(|u| twin_encoder.encode(&twin.build_job(UserId(u))))
        .collect();
    let mut joins = Vec::new();
    for u in 0..USERS {
        let expected_body = expected[u as usize].clone();
        let client = client.clone();
        joins.push(thread::spawn(move || {
            let response = client.get(&format!("/online/?uid={u}")).expect("online");
            assert_eq!(response.status, 200);
            assert_eq!(
                response.body, expected_body,
                "post-ingest sharded body diverged for uid {u}"
            );
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    for u in 0..USERS {
        assert_eq!(
            live.profile_of(UserId(u)),
            twin.profile_of(UserId(u)),
            "profile diverged for uid {u}"
        );
    }
    handle.stop();
}

#[test]
fn sharded_pipelined_keep_alive_bodies_stay_in_order_per_connection() {
    // The pipelined keep-alive replay against 4 shards: each "browser"
    // pipelines several /online/ calls on one persistent connection, which
    // lives on exactly one shard — responses must come back on the right
    // connection, in request order, byte-identical to the scalar pipeline,
    // even while other connections exercise other shards concurrently.
    use std::io::{Read, Write};
    use std::net::TcpStream;

    const PIPELINE: u32 = 3;
    let live = populated_server();
    let twin = populated_server();
    let (handle, client, addr) = spawn_sharded(&live, 4);
    drop(client);

    let twin_encoder = JobEncoder::new();
    let expected: Vec<Vec<u8>> = (0..USERS)
        .map(|u| twin_encoder.encode(&twin.build_job(UserId(u))))
        .collect();

    let mut joins = Vec::new();
    for conn_index in 0..USERS / PIPELINE {
        let uids: Vec<u32> = (0..PIPELINE).map(|i| conn_index * PIPELINE + i).collect();
        let expected: Vec<Vec<u8>> = uids.iter().map(|&u| expected[u as usize].clone()).collect();
        joins.push(thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut wire = Vec::new();
            for &u in &uids {
                wire.extend_from_slice(
                    format!("GET /online/?uid={u} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes(),
                );
            }
            stream.write_all(&wire).expect("pipeline requests");

            let mut buf = Vec::new();
            let mut chunk = [0u8; 16 * 1024];
            let mut received = 0usize;
            while received < uids.len() {
                let n = stream.read(&mut chunk).expect("read");
                assert!(n > 0, "server closed mid-pipeline");
                buf.extend_from_slice(&chunk[..n]);
                while let Some((response, consumed)) =
                    hyrec_http::Response::try_parse(&buf).expect("parse")
                {
                    buf.drain(..consumed);
                    assert_eq!(response.status, 200);
                    assert_eq!(
                        response.body, expected[received],
                        "pipelined body diverged for uid {} (position {received})",
                        uids[received]
                    );
                    received += 1;
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let stats = handle.stats();
    assert_eq!(stats.batched_requests(), u64::from(USERS));
    assert_eq!(stats.connections(), u64::from(USERS / PIPELINE));
    assert_eq!(
        stats.shards().iter().map(|s| s.connections()).sum::<u64>(),
        stats.connections()
    );
    handle.stop();
}

#[test]
fn trailing_slash_forms_are_equivalent_over_the_reactor() {
    let live = populated_server();
    let twin = populated_server();
    let (handle, client) = spawn_reactor(&live);
    let twin_encoder = JobEncoder::new();
    let expected = twin_encoder.encode(&twin.build_job(UserId(3)));
    let response = client.get("/online?uid=3").expect("bare path");
    assert_eq!(response.status, 200);
    assert_eq!(response.body, expected);
    handle.stop();
}
