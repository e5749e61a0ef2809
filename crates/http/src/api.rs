//! The HyRec web API (Table 1 of the paper) mounted on the HTTP stack.
//!
//! | Call | Meaning |
//! |------|---------|
//! | `GET /online/?uid=<uid>` | Client request: returns the gzipped JSON personalization job |
//! | `GET /neighbors/?uid=<uid>&id0=<fid0>&sim0=…&id1=…` | Update KNN selection |
//! | `POST /neighbors/` (gzipped [`KnnUpdate`] body) | Same update, message form |
//! | `` GET /rate/?uid=&item=&like=0|1 `` | Record a rating (profile update) |
//! | `GET /stats/` | Scheduler (and reactor) counters as JSON |
//!
//! The `/online` + `/neighbors` pair is verbatim from the paper; `/rate` is
//! the profile-update entry point the paper folds into "the server first
//! updates u's profile".
//!
//! ## One router, leased or unleased
//!
//! [`hyrec_scheduled_router`] holds the only handlers. It serves a
//! [`ScheduledServer`], and that server decides whether jobs are leased:
//! [`hyrec_router`] and [`hyrec_router_with`] wrap a bare [`HyRecServer`]
//! as [`ScheduledServer::unleased`], whose jobs carry no lease and whose
//! completions pass the scheduler's payload check alone.
//!
//! ## Coalescing
//!
//! The hot endpoints register [`crate::Handler`]s with batched
//! [`BatchPolicy`]s: under the reactor front-end, the `/online/` requests
//! one shard frames in one pass of its event loop — concurrent
//! connections' and, with keep-alive, *pipelined* ones — funnel into a
//! single [`ScheduledServer::issue_jobs`] call (one
//! [`HyRecServer::build_jobs`]) whose outputs are planned by the batched,
//! fragment-caching [`JobEncoder::plan_jobs`] and copied once, piece by
//! piece, into the connection's send buffer; `/rate/` bursts stage their
//! votes through the shard-grouped [`HyRecServer::record_many`];
//! `POST /neighbors/` bursts apply through [`HyRecServer::apply_updates`].
//! A request that gathers alone runs as a batch of one. Those batched
//! calls are the server's only implementations (its scalar calls are
//! batches of one), so a response is byte-identical however its requests
//! were gathered, by construction.

use crate::reactor::ReactorStats;
use crate::request::Request;
use crate::response::Response;
use crate::router::{BatchPolicy, Router};
use hyrec_core::{ItemId, Neighbor, UserId, Vote};
use hyrec_sched::RejectReason;
use hyrec_server::{HyRecServer, JobEncoder, ScheduledServer};
use hyrec_wire::{KnnUpdate, WireError};
use std::sync::Arc;

/// Builds the unleased HyRec API router around a shared server, with a
/// fresh fragment-cache encoder and default coalescing policy.
#[must_use]
pub fn hyrec_router(server: Arc<HyRecServer>) -> Router {
    hyrec_router_with(server, Arc::new(JobEncoder::new()), BatchPolicy::default())
}

/// Builds the unleased HyRec API router around a shared server and a
/// shared [`JobEncoder`] (so several front-ends reuse one fragment cache),
/// with an explicit coalescing policy for the batch routes: the server is
/// wrapped as [`ScheduledServer::unleased`] and served by
/// [`hyrec_scheduled_router`].
#[must_use]
pub fn hyrec_router_with(
    server: Arc<HyRecServer>,
    encoder: Arc<JobEncoder>,
    policy: BatchPolicy,
) -> Router {
    hyrec_scheduled_router(
        Arc::new(ScheduledServer::unleased(server)),
        encoder,
        policy,
        None,
    )
}

/// Builds the HyRec API router over a [`ScheduledServer`], leased
/// ([`ScheduledServer::new`]) or unleased ([`ScheduledServer::unleased`]).
///
/// * `GET /online/` serves [`ScheduledServer::issue_jobs`]. Leased, that is
///   the **scheduler's pick** — the churn backlog or the staleness queue
///   may override the requested uid — and every job carries
///   `lease`/`epoch` credentials the widget must echo. Unleased, it is the
///   job of the uid asked for, at the seed wire shape.
/// * Both `/neighbors/` forms go through
///   [`ScheduledServer::complete_updates`] (leased: query params
///   `lease=&epoch=` on GET, message fields on POST). A structurally
///   malformed query or body is a 400 (a body past the size cap a 413); a
///   NaN or out-of-range similarity is a 400 and a well-formed completion
///   whose lease is dead (expired, superseded, already consumed, wrong
///   user, fabricated neighbour) a 409, both with an
///   `{"ok":false,"reject":"<reason>"}` body, and neither is applied.
/// * `GET /rate/` records votes (leased: bumping staleness priorities).
/// * `GET /stats/` exposes the scheduler's [`hyrec_sched::SchedStats`]
///   (and, when a handle is supplied, the reactor's [`ReactorStats`]).
///
/// The lease sweeper is *not* spawned here: callers own its cadence via
/// [`ScheduledServer::spawn_sweeper`] (wall clock) or explicit
/// [`ScheduledServer::sweep_and_recover`] calls (logical clock).
#[must_use]
pub fn hyrec_scheduled_router(
    scheduled: Arc<ScheduledServer>,
    encoder: Arc<JobEncoder>,
    policy: BatchPolicy,
    reactor_stats: Option<Arc<ReactorStats>>,
) -> Router {
    let mut router = Router::new();

    // GET /online/?uid=N — the "Client request" row of Table 1. Gathered
    // requests become one issue_jobs + plan_jobs round; arrival order is
    // batch order, so the RNG stream matches the sequential path.
    let online = Arc::clone(&scheduled);
    router.route(
        "GET",
        "/online/",
        policy,
        move |requests: &[Request], out: &mut Vec<Response>| {
            let parsed: Vec<Result<UserId, String>> = requests.iter().map(parse_uid).collect();
            let uids: Vec<UserId> = parsed
                .iter()
                .filter_map(|p| p.as_ref().ok().copied())
                .collect();
            let jobs = online.issue_jobs(&uids, online.now_ms());
            let mut bodies = encoder.plan_jobs(&jobs).into_iter();
            out.extend(parsed.into_iter().map(|p| match p {
                Ok(_) => Response::ok_job(bodies.next().expect("one planned body per valid uid")),
                Err(reason) => Response::bad_request(&reason),
            }));
        },
    );

    // GET /neighbors/?uid=&lease=&epoch=&id0=&sim0=… — "Update KNN
    // selection" (the Table 1 query form). The HTTP layer rejects only
    // structurally malformed queries; payload checks run in the scheduler
    // with its configured similarity tolerance.
    let neighbors = Arc::clone(&scheduled);
    router.get("/neighbors/", move |req| match parse_knn_query(req) {
        Ok(update) => {
            let outcome = neighbors
                .complete_updates(std::slice::from_ref(&update), neighbors.now_ms())
                .pop()
                .expect("one outcome per update");
            completion_response(outcome)
        }
        Err(reason) => Response::bad_request(&reason),
    });

    // POST /neighbors/ with a gzipped KnnUpdate body (our wire form):
    // decode errors are a 400 (413 past the size cap); gathered updates go
    // through one batched validation + apply pass.
    let post = Arc::clone(&scheduled);
    router.route(
        "POST",
        "/neighbors/",
        policy,
        move |requests: &[Request], out: &mut Vec<Response>| {
            // Decoded updates move into the batch; each request keeps only
            // its decode error, if any.
            let mut updates = Vec::with_capacity(requests.len());
            let decode_errors: Vec<Option<Response>> = requests
                .iter()
                .map(|req| decode_update(&req.body).map(|u| updates.push(u)).err())
                .collect();
            let mut outcomes = post.complete_updates(&updates, post.now_ms()).into_iter();
            out.extend(decode_errors.into_iter().map(|error| {
                error.unwrap_or_else(|| {
                    completion_response(outcomes.next().expect("one outcome per update"))
                })
            }));
        },
    );

    // GET /rate/?uid=N&item=I&like=0|1 — profile update. Gathered votes
    // ingest through one record_many: one write lock per touched shard.
    let rate = Arc::clone(&scheduled);
    router.route(
        "GET",
        "/rate/",
        policy,
        move |requests: &[Request], out: &mut Vec<Response>| {
            let parsed: Vec<Result<(UserId, ItemId, Vote), String>> =
                requests.iter().map(parse_rate).collect();
            let votes: Vec<(UserId, ItemId, Vote)> = parsed
                .iter()
                .filter_map(|p| p.as_ref().ok().copied())
                .collect();
            let mut changed = rate.record_many(&votes, rate.now_ms()).into_iter();
            out.extend(parsed.into_iter().map(|p| match p {
                Ok(_) => {
                    let flag = changed.next().expect("one change flag per valid vote");
                    Response::ok(
                        "application/json",
                        format!("{{\"ok\":true,\"changed\":{flag}}}").into_bytes(),
                    )
                }
                Err(reason) => Response::bad_request(&reason),
            }));
        },
    );

    // GET /stats/ — scheduler + (optional) reactor observability.
    router.get("/stats/", move |_req| {
        let sched = scheduled.scheduler().stats().snapshot().to_json();
        let body = match &reactor_stats {
            Some(reactor) => format!("{{\"sched\":{sched},\"reactor\":{}}}", reactor.to_json()),
            None => format!("{{\"sched\":{sched}}}"),
        };
        Response::ok("application/json", body.into_bytes())
    });

    router
}

/// Decodes a `POST /neighbors/` body: one that inflates past
/// [`KnnUpdate::MAX_JSON_BYTES`] is a 413, any other undecodable body a
/// 400.
fn decode_update(body: &[u8]) -> Result<KnnUpdate, Response> {
    KnnUpdate::decode(body).map_err(|err| match err {
        WireError::TooLarge { .. } => Response::payload_too_large(&err.to_string()),
        _ => Response::bad_request(&err.to_string()),
    })
}

/// Maps a completion outcome onto the wire: applied completions ack;
/// malformed payloads (NaN / out-of-range similarities) are a 400 and
/// dead-lease conflicts a 409, both naming the (counted) reason.
fn completion_response(outcome: Result<(), RejectReason>) -> Response {
    match outcome {
        Ok(()) => Response::ok("application/json", b"{\"ok\":true}".to_vec()),
        Err(reason) => {
            let status = match reason {
                RejectReason::NanSimilarity | RejectReason::OutOfRangeSimilarity => 400,
                _ => 409,
            };
            let mut response = Response::ok(
                "application/json",
                format!("{{\"ok\":false,\"reject\":\"{reason}\"}}").into_bytes(),
            );
            response.status = status;
            response
        }
    }
}

/// Parses the `/rate/` query triple. Strict: `like` must be exactly `0`
/// or `1` (no coercion of `01`, `true`, `2`, …) and ids must be plain
/// decimal — anything else is a 400, on the scalar and the batched path
/// alike.
fn parse_rate(req: &Request) -> Result<(UserId, ItemId, Vote), String> {
    let uid = parse_uid(req)?;
    let item = req
        .query_param("item")
        .and_then(parse_u32_strict)
        .map(ItemId)
        .ok_or_else(|| "missing or invalid `item`".to_owned())?;
    let vote = match req.query_param("like") {
        Some("1") => Vote::Like,
        Some("0") => Vote::Dislike,
        _ => return Err("`like` must be 0 or 1".to_owned()),
    };
    Ok((uid, item, vote))
}

fn parse_uid(req: &Request) -> Result<UserId, String> {
    req.query_param("uid")
        .and_then(parse_u32_strict)
        .map(UserId)
        .ok_or_else(|| "missing or invalid `uid`".to_owned())
}

/// Parses the Table 1 query form: `id0=..&sim0=..&id1=..&sim1=..`, plus
/// the scheduler's optional `lease=..&epoch=..` credentials.
///
/// Structural strictness: malformed id/sim pairs — more sims than ids, or
/// `idN`/`simN` keys outside the contiguous run from 0 (a gap would
/// silently drop the keys after it) — are an error, never silently
/// applied. Similarity *range* validation is the scheduler's payload
/// check, leased or not ([`ScheduledServer::complete_updates`]).
fn parse_knn_query(req: &Request) -> Result<KnnUpdate, String> {
    let uid = parse_uid(req)?;
    let lease = parse_optional_u64(req, "lease")?;
    let epoch = parse_optional_u64(req, "epoch")?;
    let ids = req.indexed_params("id");
    let sims = req.indexed_params("sim");
    if sims.len() > ids.len() {
        return Err(format!(
            "{} sim values for {} ids (malformed id/sim pairs)",
            sims.len(),
            ids.len()
        ));
    }
    for (prefix, run) in [("id", ids.len()), ("sim", sims.len())] {
        let total = indexed_key_count(req, prefix);
        if total != run {
            return Err(format!(
                "{total} {prefix}N parameters but the contiguous run from \
                 {prefix}0 is {run} (gapped id/sim pairs)"
            ));
        }
    }
    let mut neighbors = Vec::with_capacity(ids.len());
    for (index, id) in ids.iter().enumerate() {
        let user = parse_u32_strict(id)
            .map(UserId)
            .ok_or_else(|| format!("invalid id{index}"))?;
        // Similarities are optional in the paper's GET form; default 0.
        let similarity = match sims.get(index) {
            Some(s) => s
                .parse::<f64>()
                .map_err(|_| format!("invalid sim{index}"))?,
            None => 0.0,
        };
        neighbors.push(Neighbor { user, similarity });
    }
    Ok(KnnUpdate {
        uid,
        lease,
        epoch,
        neighbors,
    })
}

/// How many query keys have the shape `<prefix><digits>` — compared with
/// the contiguous `indexed_params` run to detect gapped pairs.
fn indexed_key_count(req: &Request, prefix: &str) -> usize {
    req.query
        .iter()
        .filter(|(key, _)| {
            key.strip_prefix(prefix)
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        })
        .count()
}

/// Strict `u32` parse: ASCII digits only (no sign, no whitespace — the
/// lenient `str::parse` accepts `+7`).
fn parse_u32_strict(text: &str) -> Option<u32> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    text.parse::<u32>().ok()
}

/// Optional strict `u64` query parameter; absent ⇒ `0`.
fn parse_optional_u64(req: &Request, key: &str) -> Result<u64, String> {
    match req.query_param(key) {
        None => Ok(0),
        Some(text) if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) => {
            text.parse::<u64>().map_err(|_| format!("invalid `{key}`"))
        }
        Some(_) => Err(format!("invalid `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::reactor::{ReactorHandle, ReactorServer};
    use hyrec_client::Widget;
    use hyrec_wire::PersonalizationJob;

    fn spawn_api_on(server: ReactorServer) -> (ReactorHandle, HttpClient, Arc<HyRecServer>) {
        let addr = server.local_addr();
        let hyrec = Arc::new(
            hyrec_server::HyRecServer::builder()
                .k(3)
                .r(5)
                .anonymize_users(false)
                .seed(5)
                .build(),
        );
        for u in 0..12u32 {
            for i in 0..5u32 {
                hyrec.record(UserId(u), ItemId(u % 3 * 100 + i), Vote::Like);
            }
        }
        let handle = server.serve(hyrec_router(Arc::clone(&hyrec)));
        (handle, HttpClient::new(addr), hyrec)
    }

    fn spawn_api() -> (ReactorHandle, HttpClient, Arc<HyRecServer>) {
        spawn_api_on(ReactorServer::bind("127.0.0.1:0", 4).unwrap())
    }

    #[test]
    fn table1_get_form_updates_knn() {
        let (handle, client, hyrec) = spawn_api();
        let response = client
            .get("/neighbors/?uid=2&id0=5&sim0=0.75&id1=8&sim1=0.5")
            .unwrap();
        assert_eq!(response.status, 200);
        let hood = hyrec.knn_of(UserId(2)).unwrap();
        assert_eq!(hood.len(), 2);
        assert_eq!(hood.best().unwrap().user, UserId(5));
        handle.stop();
    }

    #[test]
    fn rate_endpoint_updates_profiles() {
        let (handle, client, hyrec) = spawn_api();
        let response = client.get("/rate/?uid=50&item=777&like=1").unwrap();
        assert_eq!(response.status, 200);
        assert!(String::from_utf8_lossy(&response.body).contains("\"changed\":true"));
        assert!(hyrec.profile_of(UserId(50)).unwrap().likes(ItemId(777)));

        let response = client.get("/rate/?uid=50&item=777&like=0").unwrap();
        assert_eq!(response.status, 200);
        assert!(!hyrec.profile_of(UserId(50)).unwrap().likes(ItemId(777)));
        handle.stop();
    }

    #[test]
    fn bad_inputs_get_400() {
        let (handle, client, _) = spawn_api();
        assert_eq!(client.get("/online/").unwrap().status, 400);
        assert_eq!(client.get("/online/?uid=abc").unwrap().status, 400);
        assert_eq!(client.get("/neighbors/?uid=1&id0=zz").unwrap().status, 400);
        assert_eq!(
            client.get("/rate/?uid=1&item=2&like=5").unwrap().status,
            400
        );
        assert_eq!(client.get("/rate/?uid=1").unwrap().status, 400);
        let post = client.post("/neighbors/", b"not gzip").unwrap();
        assert_eq!(post.status, 400);
        handle.stop();
    }

    #[test]
    fn unknown_route_is_404() {
        let (handle, client, _) = spawn_api();
        assert_eq!(client.get("/nope").unwrap().status, 404);
        handle.stop();
    }

    #[test]
    fn trailing_slash_is_optional_on_every_endpoint() {
        // Regression: the seed router 404'd on `/online` (no slash).
        let (handle, client, _) = spawn_api();
        let with = client.get("/online/?uid=1").unwrap();
        assert_eq!(with.status, 200);
        // Same endpoint without the slash: same route, fresh sampler draw.
        let without = client.get("/online?uid=1").unwrap();
        assert_eq!(without.status, 200);
        let job = PersonalizationJob::decode(&without.body).unwrap();
        assert_eq!(job.uid, UserId(1));
        assert_eq!(
            client.get("/rate?uid=60&item=1&like=1").unwrap().status,
            200
        );
        assert_eq!(client.get("/neighbors?uid=2&id0=5").unwrap().status, 200);
        handle.stop();
    }

    #[test]
    fn online_body_matches_scalar_pipeline() {
        // The HTTP body must be byte-identical to build_job + encode on an
        // identically-seeded twin server.
        let (handle, client, _) = spawn_api();
        let twin = hyrec_server::HyRecServer::builder()
            .k(3)
            .r(5)
            .anonymize_users(false)
            .seed(5)
            .build();
        for u in 0..12u32 {
            for i in 0..5u32 {
                twin.record(UserId(u), ItemId(u % 3 * 100 + i), Vote::Like);
            }
        }
        let encoder = JobEncoder::new();
        let expected = encoder.encode(&twin.build_job(UserId(1)));
        let response = client.get("/online/?uid=1").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(
            response.body, expected,
            "HTTP body diverged from scalar path"
        );
        handle.stop();
    }

    #[test]
    fn full_widget_round_trip_over_http() {
        let (handle, client, hyrec) = spawn_api();

        // 1. Client requests a personalization job.
        let response = client.get("/online/?uid=1").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("content-encoding"), Some("gzip"));
        let job = PersonalizationJob::decode(&response.body).unwrap();
        assert_eq!(job.uid, UserId(1));
        assert!(!job.candidates.is_empty());

        // 2. Widget computes locally.
        let out = Widget::new().run_job(&job);

        // 3. Widget posts the update back (message form).
        let response = client.post("/neighbors/", &out.update.encode()).unwrap();
        assert_eq!(response.status, 200);
        assert!(hyrec.knn_of(UserId(1)).is_some());
        handle.stop();
    }

    #[test]
    fn full_widget_round_trip_over_reactor() {
        // The same round trip on a sharded reactor, plus a vote on the
        // same keep-alive connection.
        let (handle, client, hyrec) = spawn_api_on(ReactorServer::bind("127.0.0.1:0", 2).unwrap());

        let response = client.get("/online/?uid=1").unwrap();
        assert_eq!(response.status, 200);
        let job = PersonalizationJob::decode(&response.body).unwrap();
        assert_eq!(job.uid, UserId(1));

        let out = Widget::new().run_job(&job);
        let response = client.post("/neighbors/", &out.update.encode()).unwrap();
        assert_eq!(response.status, 200);
        assert!(hyrec.knn_of(UserId(1)).is_some());

        let response = client.get("/rate/?uid=1&item=9999&like=1").unwrap();
        assert_eq!(response.status, 200);
        assert!(hyrec.profile_of(UserId(1)).unwrap().likes(ItemId(9999)));
        handle.stop();
    }
}
