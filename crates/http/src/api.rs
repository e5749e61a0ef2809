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
//! votes through the shard-grouped [`HyRecServer::record_many`]; bursts of
//! either `/neighbors/` form (one handler; GET and POST differ only in
//! the parse) are admitted and applied in one
//! [`ScheduledServer::complete_updates`] pass. A request that gathers
//! alone runs as a batch of one. Those batched calls are the server's only
//! implementations (its scalar calls are batches of one), so a response
//! is byte-identical however its requests were gathered, by construction.

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
/// shared [`JobEncoder`] (so several front-ends share one set of counters;
/// the compressed pieces live on the profiles, which every front-end over
/// one server shares anyway), with an explicit coalescing policy for the batch routes: the server is
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
/// * Both `/neighbors/` forms are one batched handler over
///   [`ScheduledServer::complete_updates`] (leased: query params
///   `lease=&epoch=` on GET, message fields on POST). A structurally
///   malformed query or body is a 400 (a body past the size cap a 413); a
///   NaN or out-of-range similarity is a 400, and a well-formed completion
///   that names a neighbour id the server cannot resolve (leased or not),
///   whose lease is dead (expired, superseded, already consumed, wrong
///   user) or, unleased, whose uid owns no profile a 409, both with an
///   `{"ok":false,"reject":"<reason>"}` body, and neither is applied.
/// * `GET /rate/` records votes (leased: bumping staleness priorities).
///   It is the only route that creates a user: a first vote creates the
///   profile, and nothing else grows the tables.
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

    // "Update KNN selection": the Table 1 query form (GET ?uid=&lease=&
    // epoch=&id0=&sim0=…) and our message form (POST, a gzipped KnnUpdate)
    // differ only in their parse; a burst's updates go through one
    // complete_updates pass, where the scheduler checks the payloads.
    let forms: [(&str, ParseUpdate); 2] = [
        ("GET", |req| {
            parse_knn_query(req).map_err(|reason| Response::bad_request(&reason))
        }),
        ("POST", decode_update),
    ];
    for (method, parse) in forms {
        let neighbors = Arc::clone(&scheduled);
        router.route(
            method,
            "/neighbors/",
            policy,
            move |requests: &[Request], out: &mut Vec<Response>| {
                // Parsed updates move into the batch; each request keeps
                // only its parse error, if any.
                let mut updates = Vec::with_capacity(requests.len());
                let errors: Vec<Option<Response>> = requests
                    .iter()
                    .map(|req| parse(req).map(|u| updates.push(u)).err())
                    .collect();
                let now = neighbors.now_ms();
                let mut outcomes = neighbors.complete_updates(&updates, now).into_iter();
                out.extend(errors.into_iter().map(|error| {
                    error.unwrap_or_else(|| {
                        completion_response(outcomes.next().expect("one outcome per update"))
                    })
                }));
            },
        );
    }

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

/// Parses a `/neighbors/` request into its update or its error response.
type ParseUpdate = fn(&Request) -> Result<KnnUpdate, Response>;

/// Decodes a `POST /neighbors/` body: one that inflates past
/// [`KnnUpdate::MAX_JSON_BYTES`] is a 413, any other undecodable body a
/// 400.
fn decode_update(req: &Request) -> Result<KnnUpdate, Response> {
    KnnUpdate::decode(&req.body).map_err(|err| match err {
        WireError::TooLarge { .. } => Response::payload_too_large(&err.to_string()),
        _ => Response::bad_request(&err.to_string()),
    })
}

/// Maps a completion outcome onto the wire: applied completions ack;
/// malformed payloads (NaN / out-of-range similarities) are a 400 and
/// unknown-neighbour, unknown-user or dead-lease conflicts a 409, both
/// naming the (counted) reason.
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
/// One pass over the query files each `idN`/`simN` value into slot `N` of
/// its run. Structural strictness: malformed id/sim pairs — more sims than
/// ids, a repeated or non-canonical key (`id01`), or a gap in a run from 0
/// (which would silently drop the keys after it) — are an error, never
/// silently applied. Similarity *range* and neighbour-id validation are
/// the scheduler's payload check, leased or not
/// ([`ScheduledServer::complete_updates`]).
fn parse_knn_query(req: &Request) -> Result<KnnUpdate, String> {
    let uid = parse_uid(req)?;
    let lease = parse_optional_u64(req, "lease")?;
    let epoch = parse_optional_u64(req, "epoch")?;
    let mut runs: [Vec<Option<&str>>; 2] = [Vec::new(), Vec::new()];
    for (key, value) in &req.query {
        let Some((run, digits)) = indexed_key(key) else {
            continue;
        };
        // A gapless run has at most one key per query parameter, so a
        // larger index leaves a gap; `id01` is not the key `id1`.
        let canonical = digits.len() == 1 || !digits.starts_with('0');
        let slot = match digits.parse::<usize>() {
            Ok(slot) if canonical && slot < req.query.len() => slot,
            _ => return Err(format!("`{key}` is out of range or not canonical")),
        };
        let run = &mut runs[run];
        if run.len() <= slot {
            run.resize(slot + 1, None);
        }
        if run[slot].replace(value).is_some() {
            return Err(format!("repeated `{key}` (malformed id/sim pairs)"));
        }
    }
    let [Some(ids), Some(sims)] = runs.map(|run| run.into_iter().collect::<Option<Vec<&str>>>())
    else {
        return Err("an idN or simN run from 0 has a gap (gapped id/sim pairs)".to_owned());
    };
    if sims.len() > ids.len() {
        return Err(format!(
            "{} sim values for {} ids (malformed id/sim pairs)",
            sims.len(),
            ids.len()
        ));
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

/// Splits an `idN`/`simN` query key into its run (0 for ids, 1 for sims)
/// and the digits of `N`; any other key is `None`.
fn indexed_key(key: &str) -> Option<(usize, &str)> {
    ["id", "sim"]
        .into_iter()
        .enumerate()
        .find_map(|(run, prefix)| {
            let digits = key.strip_prefix(prefix)?;
            (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
                .then_some((run, digits))
        })
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
    use proptest::prelude::*;

    /// The `GET /neighbors/` query parse that `parse_knn_query` replaced,
    /// kept to check it: one scan of the query per `idN`/`simN` key, so
    /// quadratic in the number of keys.
    mod reference {
        use super::super::{parse_optional_u64, parse_u32_strict, parse_uid};
        use crate::request::Request;
        use hyrec_core::{Neighbor, UserId};
        use hyrec_wire::KnnUpdate;

        /// Values of `prefix0`, `prefix1`, … in index order, up to the
        /// first missing index (first occurrence of each key).
        fn indexed_params<'a>(req: &'a Request, prefix: &str) -> Vec<&'a str> {
            let mut out = Vec::new();
            let mut index = 0usize;
            while let Some(value) = req.query_param(&format!("{prefix}{index}")) {
                out.push(value);
                index += 1;
            }
            out
        }

        /// How many query keys have the shape `<prefix><digits>`.
        fn indexed_key_count(req: &Request, prefix: &str) -> usize {
            req.query
                .iter()
                .filter(|(key, _)| {
                    key.strip_prefix(prefix).is_some_and(|rest| {
                        !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit())
                    })
                })
                .count()
        }

        pub fn parse_knn_query(req: &Request) -> Result<KnnUpdate, String> {
            let uid = parse_uid(req)?;
            let lease = parse_optional_u64(req, "lease")?;
            let epoch = parse_optional_u64(req, "epoch")?;
            let ids = indexed_params(req, "id");
            let sims = indexed_params(req, "sim");
            if sims.len() > ids.len() {
                return Err("more sims than ids".to_owned());
            }
            for (prefix, run) in [("id", ids.len()), ("sim", sims.len())] {
                if indexed_key_count(req, prefix) != run {
                    return Err("gapped id/sim pairs".to_owned());
                }
            }
            let mut neighbors = Vec::with_capacity(ids.len());
            for (index, id) in ids.iter().enumerate() {
                let user = parse_u32_strict(id)
                    .map(UserId)
                    .ok_or_else(|| format!("invalid id{index}"))?;
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
    }

    /// Index digits of an `idN`/`simN` key: canonical, non-canonical,
    /// past any query's length, past `usize`, or empty.
    fn index_digits() -> impl Strategy<Value = String> {
        prop_oneof![
            4 => (0usize..8).prop_map(|i| i.to_string()),
            1 => Just("00".to_owned()),
            1 => Just("01".to_owned()),
            1 => Just("99".to_owned()),
            1 => Just("18446744073709551616".to_owned()),
            1 => Just(String::new()),
        ]
    }

    /// A query parameter beyond the well-formed runs: a stray `idN` or
    /// `simN` key, or noise (a second `uid`, credentials, look-alikes).
    fn extra_param() -> impl Strategy<Value = (String, String)> {
        let key = prop_oneof![
            2 => index_digits().prop_map(|digits| format!("id{digits}")),
            2 => index_digits().prop_map(|digits| format!("sim{digits}")),
            1 => Just("uid".to_owned()),
            1 => Just("lease".to_owned()),
            1 => Just("epoch".to_owned()),
            1 => Just("idx".to_owned()),
            1 => Just("simid0".to_owned()),
            1 => Just("x".to_owned()),
        ];
        let value = prop_oneof![
            3 => "[0-9]{1,3}",
            1 => Just("0.25".to_owned()),
            1 => Just("1e-3".to_owned()),
            1 => Just("+7".to_owned()),
            1 => Just("4294967296".to_owned()),
            1 => Just("zz".to_owned()),
            1 => Just(String::new()),
        ];
        (key, value)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn one_pass_query_parse_matches_the_reference(
            ids in 0usize..6,
            sims in 0usize..7,
            dropped in prop_oneof![3 => Just(None), 1 => (1usize..12).prop_map(Some)],
            extras in proptest::collection::vec(extra_param(), 0..4),
            order in proptest::collection::vec(any::<u32>(), 24),
        ) {
            // Well-formed id and sim runs, perhaps with one key dropped,
            // plus stray keys, in a random order.
            let mut query = vec![("uid".to_owned(), "1".to_owned())];
            query.extend((0..ids).map(|i| (format!("id{i}"), (i * 7).to_string())));
            query.extend((0..sims).map(|i| (format!("sim{i}"), format!("0.{i}"))));
            if let Some(dropped) = dropped.filter(|&d| d < query.len()) {
                query.remove(dropped);
            }
            query.extend(extras);
            let mut keyed: Vec<_> = order.into_iter().zip(query).collect();
            keyed.sort_by_key(|&(rank, _)| rank);
            let req = Request {
                method: "GET".to_owned(),
                path: "/neighbors/".to_owned(),
                query: keyed.into_iter().map(|(_, param)| param).collect(),
                headers: std::collections::HashMap::new(),
                body: Vec::new(),
                minor_version: 1,
            };
            prop_assert_eq!(
                parse_knn_query(&req).ok(),
                reference::parse_knn_query(&req).ok()
            );
        }
    }

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
    fn a_long_get_update_is_stored_as_its_k_best() {
        // 1,500 known neighbours in one Table 1 query: the table keeps the
        // 3 most similar, so the sender's next job stays within the bound.
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let client = HttpClient::new(server.local_addr());
        let hyrec = Arc::new(
            HyRecServer::builder()
                .k(3)
                .anonymize_users(false)
                .seed(5)
                .build(),
        );
        for u in 0..=1_500u32 {
            hyrec.record(UserId(u), ItemId(u % 40), Vote::Like);
        }
        let handle = server.serve(hyrec_router(Arc::clone(&hyrec)));
        let mut target = "/neighbors/?uid=1".to_owned();
        let others = (0..=1_500u32).filter(|&u| u != 1);
        for (i, u) in others.enumerate() {
            target.push_str(&format!("&id{i}={u}&sim{i}={:.4}", f64::from(u) / 2_000.0));
        }
        assert_eq!(client.get(&target).unwrap().status, 200);
        let stored: Vec<UserId> = hyrec.knn_of(UserId(1)).unwrap().users().collect();
        assert_eq!(stored, vec![UserId(1_500), UserId(1_499), UserId(1_498)]);
        let job = hyrec.build_job(UserId(1));
        assert!(job.candidates.len() <= hyrec.config().candidate_bound());
        handle.stop();
    }

    #[test]
    fn unleased_completions_naming_unknown_users_are_rejected() {
        // Users 0–11 own profiles and 999 names nobody: both forms answer
        // 409, count the reject and store nothing.
        let (handle, client, hyrec) = spawn_api();
        let get = client.get("/neighbors/?uid=2&id0=999&sim0=0.5").unwrap();
        let update = KnnUpdate {
            uid: UserId(3),
            lease: 0,
            epoch: 0,
            neighbors: vec![Neighbor {
                user: UserId(999),
                similarity: 0.5,
            }],
        };
        let post = client.post("/neighbors/", &update.encode()).unwrap();
        for response in [get, post] {
            assert_eq!(response.status, 409);
            assert_eq!(
                response.body,
                b"{\"ok\":false,\"reject\":\"unknown_neighbor\"}"
            );
        }
        assert!(hyrec.knn_of(UserId(2)).is_none());
        assert!(hyrec.knn_of(UserId(3)).is_none());
        let stats = client.get("/stats/").unwrap();
        assert!(String::from_utf8_lossy(&stats.body).contains("\"unknown_neighbor\":2"));
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
