//! Live-socket tests for the API router in both of its configurations:
//! leases threaded through `/online/` and both `/neighbors/` forms,
//! identical validation on the query and message forms, leased and
//! unleased, strict `/rate/` parsing (scalar and coalesced), and the
//! `/stats/` observability route.

use hyrec_client::Widget;
use hyrec_core::{ItemId, UserId, Vote};
use hyrec_http::api::{hyrec_router, hyrec_scheduled_router};
use hyrec_http::reactor::ReactorHandle;
use hyrec_http::{BatchPolicy, HttpClient, ReactorServer};
use hyrec_sched::{RejectReason, SchedConfig};
use hyrec_server::{HyRecServer, JobEncoder, ScheduledServer};
use hyrec_wire::{KnnUpdate, PersonalizationJob};
use std::sync::Arc;
use std::time::Duration;

fn populated_server(seed: u64) -> Arc<HyRecServer> {
    let server = Arc::new(
        HyRecServer::builder()
            .k(3)
            .r(5)
            .anonymize_users(false)
            .seed(seed)
            .build(),
    );
    for u in 0..12u32 {
        for i in 0..5u32 {
            server.record(UserId(u), ItemId(u % 3 * 100 + i), Vote::Like);
        }
    }
    server
}

/// The two configurations of the API router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leases {
    Off,
    On,
}

/// Serves `hyrec` through the API router, leased or unleased, with the
/// reactor's stats on `/stats/`.
fn spawn_router(
    hyrec: Arc<HyRecServer>,
    leases: Leases,
) -> (ReactorHandle, HttpClient, Arc<ScheduledServer>) {
    let scheduled = Arc::new(match leases {
        Leases::Off => ScheduledServer::unleased(hyrec),
        Leases::On => ScheduledServer::new(hyrec, SchedConfig::default()),
    });
    let server = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr();
    let stats = server.stats_handle();
    let handle = server.serve(hyrec_scheduled_router(
        Arc::clone(&scheduled),
        Arc::new(JobEncoder::new()),
        BatchPolicy::default(),
        Some(stats),
    ));
    (handle, HttpClient::new(addr), scheduled)
}

fn spawn_scheduled_reactor() -> (ReactorHandle, HttpClient, Arc<ScheduledServer>) {
    spawn_router(populated_server(5), Leases::On)
}

#[test]
fn leased_round_trip_and_duplicate_rejection_over_live_sockets() {
    let (handle, client, scheduled) = spawn_scheduled_reactor();

    // 1. The job carries lease credentials on the wire.
    let response = client.get("/online/?uid=1").unwrap();
    assert_eq!(response.status, 200);
    let job = PersonalizationJob::decode(&response.body).unwrap();
    assert!(job.lease > 0, "scheduled /online/ must lease its jobs");
    assert!(job.epoch > 0);

    // 2. The widget echoes them; the completion applies exactly once.
    let update = Widget::new().run_job(&job).update;
    assert_eq!(update.lease, job.lease);
    let response = client.post("/neighbors/", &update.encode()).unwrap();
    assert_eq!(response.status, 200);
    assert!(scheduled.server().knn_of(job.uid).is_some());

    // 3. A replayed (duplicate) completion is a 409 naming the reason.
    let response = client.post("/neighbors/", &update.encode()).unwrap();
    assert_eq!(response.status, 409);
    let body = String::from_utf8_lossy(&response.body).to_string();
    assert!(body.contains("\"reject\":\"duplicate\""), "body: {body}");

    // 4. An unleased completion is a 409 too (the scheduled pipeline
    //    accepts no anonymous work).
    let unleased = KnnUpdate {
        lease: 0,
        epoch: 0,
        ..update
    };
    let response = client.post("/neighbors/", &unleased.encode()).unwrap();
    assert_eq!(response.status, 409);
    assert!(String::from_utf8_lossy(&response.body).contains("not_leased"));

    // 5. /stats/ reports the whole story, scheduler and reactor halves.
    let response = client.get("/stats/").unwrap();
    assert_eq!(response.status, 200);
    let body = String::from_utf8_lossy(&response.body).to_string();
    assert!(body.contains("\"sched\":{\"issued\":1"), "body: {body}");
    assert!(body.contains("\"completed\":1"), "body: {body}");
    assert!(body.contains("\"duplicate\":1"), "body: {body}");
    assert!(body.contains("\"not_leased\":1"), "body: {body}");
    assert!(body.contains("\"reactor\":{\"requests\":"), "body: {body}");
    handle.stop();
}

#[test]
fn get_form_presents_lease_credentials() {
    let (handle, client, scheduled) = spawn_scheduled_reactor();
    let job = PersonalizationJob::decode(&client.get("/online/?uid=2").unwrap().body).unwrap();

    // The Table 1 query form with the lease attached applies…
    let path = format!(
        "/neighbors/?uid={}&lease={}&epoch={}&id0=5&sim0=0.75",
        job.uid.raw(),
        job.lease,
        job.epoch
    );
    let response = client.get(&path).unwrap();
    assert_eq!(response.status, 200, "leased GET form must apply");
    let hood = scheduled.server().knn_of(job.uid).unwrap();
    assert_eq!(hood.best().unwrap().user, UserId(5));

    // …and without credentials the same form is a 409.
    let response = client.get("/neighbors/?uid=3&id0=5&sim0=0.5").unwrap();
    assert_eq!(response.status, 409);

    // Malformed payloads stay a 400 on the leased router too (the
    // scheduler's own validation, surfaced with the reject reason). The
    // lease must be live — payload probing without one is just a 409, so
    // unauthenticated clients learn nothing about ids.
    let job = PersonalizationJob::decode(&client.get("/online/?uid=3").unwrap().body).unwrap();
    let bad = format!(
        "/neighbors/?uid={}&lease={}&epoch={}&id0=5&sim0=9.5",
        job.uid.raw(),
        job.lease,
        job.epoch
    );
    let response = client.get(&bad).unwrap();
    assert_eq!(response.status, 400);
    assert!(String::from_utf8_lossy(&response.body).contains("out_of_range_similarity"));
    // …and the lease survived the payload reject: a valid retry applies.
    let good = format!(
        "/neighbors/?uid={}&lease={}&epoch={}&id0=5&sim0=0.5",
        job.uid.raw(),
        job.lease,
        job.epoch
    );
    assert_eq!(client.get(&good).unwrap().status, 200);

    // A stale epoch (superseded by the completions above) is recognized.
    let replay = client.get(&path).unwrap();
    assert_eq!(replay.status, 409);
    assert_eq!(scheduled.scheduler().stats().completed(), 2);
    handle.stop();
}

#[test]
fn unknown_uids_get_unleased_cold_start_jobs_and_mint_no_state() {
    let (handle, client, scheduled) = spawn_scheduled_reactor();
    let users_before = scheduled.scheduler().user_count();

    // A browser-invented uid: cold-start job per the paper, but unleased —
    // no lease-table entry, no scheduler registration, and abandoning it
    // can never buy a server-side fallback compute.
    let response = client.get("/online/?uid=4000000000").unwrap();
    assert_eq!(response.status, 200);
    let job = PersonalizationJob::decode(&response.body).unwrap();
    assert_eq!(job.uid, UserId(4_000_000_000));
    assert_eq!((job.lease, job.epoch), (0, 0), "phantom uid must not lease");
    assert!(job.profile.is_empty(), "cold start");
    assert_eq!(scheduled.scheduler().user_count(), users_before);
    assert_eq!(scheduled.scheduler().outstanding_leases(), 0);

    // One recorded vote makes the user real: the next fetch is leased.
    let response = client.get("/rate/?uid=4000000000&item=5&like=1").unwrap();
    assert_eq!(response.status, 200);
    let job =
        PersonalizationJob::decode(&client.get("/online/?uid=4000000000").unwrap().body).unwrap();
    assert!(job.lease > 0, "voted user must lease");
    handle.stop();
}

#[test]
fn scheduler_pick_overrides_the_requested_uid() {
    let (handle, client, scheduled) = spawn_scheduled_reactor();
    // User 7 votes a lot; user 2 asks next. With default weights the
    // staleness queue outranks the fresh requester, so user 2's browser is
    // handed user 7's job.
    for _ in 0..3 {
        let response = client.get("/rate/?uid=7&item=901&like=1").unwrap();
        assert_eq!(response.status, 200);
        let response = client.get("/rate/?uid=7&item=901&like=0").unwrap();
        assert_eq!(response.status, 200);
    }
    let job = PersonalizationJob::decode(&client.get("/online/?uid=2").unwrap().body).unwrap();
    assert_eq!(job.uid, UserId(7), "staleness pick must override");
    assert!(scheduled.scheduler().outstanding_leases() >= 1);
    handle.stop();
}

/// `GET /neighbors/` query-form and `POST /neighbors/` body must validate
/// identically, unleased and leased — NaN, negative and `> 1`
/// similarities and malformed id/sim pairs are a 400 and are never
/// applied. Leased, every payload case presents a live lease, so the 400
/// is the payload's verdict and not a missing lease's 409.
#[test]
fn neighbors_validation_is_identical_across_forms() {
    for leases in [Leases::Off, Leases::On] {
        let hyrec = populated_server(9);
        let (handle, client, _) = spawn_router(Arc::clone(&hyrec), leases);
        // User 4's credentials: none unleased, a live lease leased (a
        // payload reject leaves it live; an applied update consumes it).
        let credentials = || match leases {
            Leases::Off => (0, 0),
            Leases::On => {
                let body = client.get("/online/?uid=4").unwrap().body;
                let job = PersonalizationJob::decode(&body).unwrap();
                assert_eq!(job.uid, UserId(4));
                (job.lease, job.epoch)
            }
        };
        let query = |path: &str, (lease, epoch): (u64, u64)| match leases {
            Leases::Off => path.to_owned(),
            Leases::On => format!("{path}&lease={lease}&epoch={epoch}"),
        };
        let update = |sim: f64, (lease, epoch): (u64, u64)| KnnUpdate {
            uid: UserId(4),
            lease,
            epoch,
            neighbors: vec![hyrec_core::Neighbor {
                user: UserId(5),
                similarity: sim,
            }],
        };
        let live = credentials();

        // Query form.
        for path in [
            "/neighbors/?uid=4&id0=5&sim0=NaN",
            "/neighbors/?uid=4&id0=5&sim0=-0.25",
            "/neighbors/?uid=4&id0=5&sim0=1.5",
            "/neighbors/?uid=4&id0=5&sim0=inf",
            "/neighbors/?uid=4&id0=5&sim0=0.5&sim1=0.5", // sim without id
            "/neighbors/?uid=4&id0=+5&sim0=0.5",         // sloppy id
            "/neighbors/?uid=4&id0=5&id1=6&sim1=0.9",    // gapped sim run
            "/neighbors/?uid=4&id0=5&id2=6&sim0=0.5",    // gapped id run
        ] {
            let response = client.get(&query(path, live)).unwrap();
            assert_eq!(response.status, 400, "{path} must be rejected ({leases:?})");
        }

        // Body form: the same out-of-range payloads, same verdict. (NaN is
        // unrepresentable in JSON, so its body-form twin dies in decoding —
        // also a 400.)
        for sim in [-0.25, 1.5, f64::INFINITY] {
            let response = client
                .post("/neighbors/", &update(sim, live).encode())
                .unwrap();
            assert_eq!(
                response.status, 400,
                "sim {sim} must be rejected ({leases:?})"
            );
        }

        // Nothing was applied by any of the rejected forms.
        assert!(hyrec.knn_of(UserId(4)).is_none());
        assert_eq!(hyrec.updates_applied(), 0);

        // The valid twin passes on both forms.
        assert_eq!(
            client
                .get(&query("/neighbors/?uid=4&id0=5&sim0=0.75", live))
                .unwrap()
                .status,
            200
        );
        assert_eq!(
            client
                .post("/neighbors/", &update(0.75, credentials()).encode())
                .unwrap()
                .status,
            200
        );
        assert_eq!(hyrec.updates_applied(), 2);
        handle.stop();
    }
}

/// Unleased, `GET /stats/` has the leased router's schema, and a NaN or
/// out-of-range completion is counted under its reject reason.
#[test]
fn unleased_stats_match_the_leased_schema_and_count_payload_rejects() {
    /// The body with every number replaced by `#`.
    fn schema(body: &[u8]) -> String {
        let mut out = String::new();
        for c in String::from_utf8_lossy(body).chars() {
            if !c.is_ascii_digit() {
                out.push(c);
            } else if !out.ends_with('#') {
                out.push('#');
            }
        }
        out
    }
    let (handle, client, scheduled) = spawn_router(populated_server(17), Leases::Off);
    let response = client.get("/neighbors/?uid=4&id0=5&sim0=NaN").unwrap();
    assert_eq!(response.status, 400);
    let body = String::from_utf8_lossy(&response.body).to_string();
    assert_eq!(body, "{\"ok\":false,\"reject\":\"nan_similarity\"}");
    let out_of_range = KnnUpdate {
        uid: UserId(4),
        lease: 0,
        epoch: 0,
        neighbors: vec![hyrec_core::Neighbor {
            user: UserId(5),
            similarity: 1.5,
        }],
    };
    let response = client.post("/neighbors/", &out_of_range.encode()).unwrap();
    assert_eq!(response.status, 400);
    let body = String::from_utf8_lossy(&response.body).to_string();
    assert!(
        body.contains("\"reject\":\"out_of_range_similarity\""),
        "body: {body}"
    );

    let stats = scheduled.scheduler().stats();
    assert_eq!(stats.rejected(RejectReason::NanSimilarity), 1);
    assert_eq!(stats.rejected(RejectReason::OutOfRangeSimilarity), 1);
    assert_eq!(stats.rejected_total(), 2);
    assert_eq!(scheduled.server().updates_applied(), 0);

    let unleased = client.get("/stats/").unwrap();
    assert_eq!(unleased.status, 200);
    let body = String::from_utf8_lossy(&unleased.body).to_string();
    assert!(body.contains("\"nan_similarity\":1"), "body: {body}");
    assert!(
        body.contains("\"out_of_range_similarity\":1"),
        "body: {body}"
    );
    let (leased_handle, leased_client, _) = spawn_scheduled_reactor();
    let leased = leased_client.get("/stats/").unwrap();
    assert_eq!(schema(&unleased.body), schema(&leased.body));
    assert!(
        schema(&unleased.body).starts_with("{\"sched\":{\"issued\":#,"),
        "body: {body}"
    );
    assert!(body.contains(",\"reactor\":{\"requests\":"), "body: {body}");
    leased_handle.stop();
    handle.stop();
}

/// Unleased, a vote from a never-seen uid writes the profile tables and
/// mints no scheduler state.
#[test]
fn unleased_rate_mints_no_scheduler_state() {
    let hyrec = populated_server(19);
    let (handle, client, scheduled) = spawn_router(Arc::clone(&hyrec), Leases::Off);
    let response = client.get("/rate/?uid=4000000000&item=5&like=1").unwrap();
    assert_eq!(response.status, 200);
    assert!(hyrec
        .profile_of(UserId(4_000_000_000))
        .is_some_and(|p| p.likes(ItemId(5))));
    assert_eq!(scheduled.scheduler().user_count(), 0);
    // Its job is unleased, and fetching it registers nothing either.
    let body = client.get("/online/?uid=4000000000").unwrap().body;
    let job = PersonalizationJob::decode(&body).unwrap();
    assert_eq!(
        (job.uid, job.lease, job.epoch),
        (UserId(4_000_000_000), 0, 0)
    );
    assert_eq!(scheduled.scheduler().user_count(), 0);
    handle.stop();
}

/// A valid gzip member of 256 MiB of spaces in ~256 KiB: one sync-flushed
/// chunk of 1 MiB repeated, with the matching CRC and length trailer.
fn inflation_bomb() -> Vec<u8> {
    use hyrec_wire::crc::{crc32, crc32_combine};
    use hyrec_wire::deflate::{compress_chunk, lz77::Effort, STREAM_TERMINATOR};
    const MIB: usize = 1 << 20;
    let spaces = vec![b' '; MIB];
    let chunk = compress_chunk(&spaces, Effort::FAST);
    let chunk_crc = crc32(&spaces);
    let mut body = hyrec_wire::gzip::HEADER.to_vec();
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

/// An update body that inflates far past `KnnUpdate::MAX_JSON_BYTES` is
/// a 413 unleased (`hyrec_router`) and leased, and so is a request whose
/// `Content-Length` is over the framing cap; the server keeps serving.
#[test]
fn inflation_bomb_gets_413_on_both_routers() {
    use std::io::{Read, Write};
    let bomb = inflation_bomb();
    let unleased = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
    let unleased_addr = unleased.local_addr();
    let hyrec = populated_server(11);
    let unleased = unleased.serve(hyrec_router(Arc::clone(&hyrec)));
    let scheduled = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
    let scheduled_addr = scheduled.local_addr();
    let scheduled = scheduled.serve(hyrec_scheduled_router(
        Arc::new(ScheduledServer::new(
            Arc::clone(&hyrec),
            SchedConfig::default(),
        )),
        Arc::new(JobEncoder::new()),
        BatchPolicy::default(),
        None,
    ));
    for addr in [unleased_addr, scheduled_addr] {
        let client = HttpClient::new(addr);
        let response = client.post("/neighbors/", &bomb).unwrap();
        assert_eq!(response.status, 413);
        assert_eq!(client.get("/online/?uid=1").unwrap().status, 200);

        // 16 MiB + 1 declared: refused from the header alone.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /neighbors/ HTTP/1.1\r\nContent-Length: 16777217\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(
            reply.starts_with("HTTP/1.1 413 Payload Too Large"),
            "{reply}"
        );
        assert_eq!(client.get("/online/?uid=1").unwrap().status, 200);
    }
    assert_eq!(hyrec.updates_applied(), 0);
    unleased.stop();
    scheduled.stop();
}

/// Satellite: `/rate/` must 400 on any `like` that is not exactly `0` or
/// `1`, and strict ids — no lenient coercion.
#[test]
fn rate_is_strict_about_votes() {
    let hyrec = populated_server(13);
    let server = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr();
    let handle = server.serve(hyrec_router(Arc::clone(&hyrec)));
    let client = HttpClient::new(addr);

    for query in [
        "/rate/?uid=1&item=2&like=2",
        "/rate/?uid=1&item=2&like=-1",
        "/rate/?uid=1&item=2&like=01",
        "/rate/?uid=1&item=2&like=true",
        "/rate/?uid=1&item=2&like=",
        "/rate/?uid=1&item=2",
        "/rate/?uid=+1&item=2&like=1",
        "/rate/?uid=1&item=2x&like=1",
    ] {
        let response = client.get(query).unwrap();
        assert_eq!(response.status, 400, "{query} must be rejected");
    }
    // No profile side effects from any rejected vote.
    assert!(!hyrec.profile_of(UserId(1)).unwrap().likes(ItemId(2)));
    assert_eq!(
        client.get("/rate/?uid=1&item=2&like=1").unwrap().status,
        200
    );
    assert!(hyrec.profile_of(UserId(1)).unwrap().likes(ItemId(2)));
    handle.stop();
}

/// Satellite: a bad vote inside a coalesced burst fails only its own
/// request — the valid votes in the same gathered batch all land.
#[test]
fn bad_vote_in_coalesced_burst_fails_alone() {
    let hyrec = populated_server(21);
    let server = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr();
    let handle = server.serve(hyrec_router(Arc::clone(&hyrec)));

    // A barrier-aligned burst, likely framed in one pass of a shard: 7
    // valid votes and one malformed one.
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let threads: Vec<_> = (0..8u32)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let client = HttpClient::new(addr).with_timeout(Duration::from_secs(10));
                let path = if i == 3 {
                    format!("/rate/?uid={i}&item=700&like=7")
                } else {
                    format!("/rate/?uid={i}&item=700&like=1")
                };
                barrier.wait();
                (i, client.get(&path).unwrap().status)
            })
        })
        .collect();
    for thread in threads {
        let (i, status) = thread.join().unwrap();
        if i == 3 {
            assert_eq!(status, 400, "the bad vote must fail");
        } else {
            assert_eq!(status, 200, "vote {i} must not be poisoned by the bad one");
        }
    }
    for i in 0..8u32 {
        let likes = hyrec
            .profile_of(UserId(i))
            .is_some_and(|p| p.likes(ItemId(700)));
        assert_eq!(likes, i != 3, "vote {i} application state");
    }
    handle.stop();
}

/// The scheduled pipeline under a real coalescing reactor with churn:
/// half the fetched jobs are abandoned; the sweeper re-issues and
/// eventually recovers every user server-side.
#[test]
fn scheduled_reactor_recovers_abandoned_browsers() {
    let scheduled = Arc::new(ScheduledServer::new(
        populated_server(33),
        SchedConfig {
            lease_timeout: 50, // ms
            max_reissues: 1,
            ..SchedConfig::default()
        },
    ));
    let server = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr();
    let stats = server.stats_handle();
    let handle = server.serve(hyrec_scheduled_router(
        Arc::clone(&scheduled),
        Arc::new(JobEncoder::new()),
        BatchPolicy::default(),
        Some(stats),
    ));
    let sweeper = scheduled.spawn_sweeper(Duration::from_millis(10));
    let client = HttpClient::new(addr);
    let widget = Widget::new();

    for round in 0..6u32 {
        for u in 0..12u32 {
            let response = client.get(&format!("/online/?uid={u}")).unwrap();
            assert_eq!(response.status, 200);
            if (round + u) % 2 == 0 {
                continue; // browser navigates away
            }
            let job = PersonalizationJob::decode(&response.body).unwrap();
            let update = widget.run_job(&job).update;
            // 200 or 409 (superseded by the sweeper) are both legitimate.
            let status = client.post("/neighbors/", &update.encode()).unwrap().status;
            assert!(status == 200 || status == 409, "unexpected status {status}");
        }
    }

    // Every abandoned lease drains through re-issue or fallback: wait for
    // live leases, the re-issue backlog and the fallback pen to all empty.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (report, _) = scheduled.sweep_and_recover(scheduled.now_ms());
        if report.reissue_backlog == 0
            && report.fallback_ready == 0
            && scheduled.scheduler().outstanding_leases() == 0
        {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "leases never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    sweeper.stop();

    let stats = scheduled.scheduler().stats();
    assert!(stats.expired() > 0, "churn must expire leases");
    assert!(stats.completed() > 0);
    assert!(
        stats.reissued() + stats.fallbacks() > 0,
        "recovery must have fired"
    );
    // Every user ends with a neighbourhood despite 50% abandonment.
    for u in 0..12u32 {
        assert!(
            scheduled.server().knn_of(UserId(u)).is_some(),
            "u{u} lost to churn"
        );
    }
    handle.stop();
}
