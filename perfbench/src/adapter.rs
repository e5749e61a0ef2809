//! Every call the benchmark makes into the HyRec program.
//!
//! The rest of the benchmark speaks HTTP over a socket or reads procfs;
//! only this module names the program's API, and only the part of it the
//! repository keeps: `ReactorServer::bind_sharded`, the two `api` router
//! constructors, the `Router`/`Request`/`Response` types the traced router
//! is built from, and the `HyRecServer`, `JobEncoder`, `ScheduledServer`,
//! `Widget` and `hyrec_wire` entry points. A change to that API should
//! need changes here and nowhere else.

use crate::plan::Config;
use crate::trace::{ChildSpan, HandlerSpan, Recorder};
use hyrec_client::Widget;
use hyrec_core::{ItemId, Neighbor, UserId, Vote};
use hyrec_http::reactor::ReactorHandle;
use hyrec_http::{api, BatchPolicy, ReactorServer, Request, Response, Router};
use hyrec_sched::{RejectReason, SchedConfig};
use hyrec_server::{HyRecServer, JobEncoder, ScheduledServer, SweeperHandle};
use hyrec_wire::{gzip, JsonValue, KnnUpdate, PersonalizationJob};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use hyrec_sched::SchedStatsSnapshot;

/// Items in the population's item space; liked items are drawn from it.
const ITEM_SPACE: u32 = 60_000;
/// Jobs per batch while warming the fragment cache (the reactor's default
/// gather cap).
const WARM_BATCH: usize = 128;

/// Builds the population of `config`, warms the fragment cache and starts
/// a server on it (the traced router when a `recorder` is given).
///
/// # Errors
///
/// Propagates bind errors.
pub fn set_up(config: &Config, recorder: Option<Arc<Recorder>>) -> io::Result<Server> {
    let hyrec = build_population(config.users, config.profile_size, config.k, config.seed);
    let encoder = Arc::new(JobEncoder::new());
    warm_encoder(&hyrec, &encoder, config.users);
    Server::start(
        hyrec,
        encoder,
        config.workload.scheduled(),
        config.workers,
        recorder,
    )
}

/// A population of `users` users with dense `profile_size`-item profiles
/// and `k` distinct random warm neighbours each (the shape of the
/// repository's response-time experiments, seeded from the workload seed).
fn build_population(users: u32, profile_size: u32, k: usize, seed: u64) -> Arc<HyRecServer> {
    let hyrec = HyRecServer::builder()
        .k(k)
        .anonymize_users(false)
        .seed(seed)
        .build();
    for user in 0..users {
        let votes: Vec<(UserId, ItemId, Vote)> = (0..profile_size)
            .map(|i| {
                let item = user.wrapping_mul(17).wrapping_add(i * 3) % ITEM_SPACE;
                (UserId(user), ItemId(item), Vote::Like)
            })
            .collect();
        let _ = hyrec.record_many(&votes);
    }
    let mut rng = crate::plan::SplitMix64::new(seed ^ 0x4E16_4B0B);
    let want = k.min(users.saturating_sub(1) as usize);
    let updates: Vec<KnnUpdate> = (0..users)
        .map(|user| {
            let mut picks: Vec<u32> = Vec::with_capacity(want);
            while picks.len() < want {
                let v = (rng.next_u64() % u64::from(users)) as u32;
                if v != user && !picks.contains(&v) {
                    picks.push(v);
                }
            }
            KnnUpdate {
                uid: UserId(user),
                lease: 0,
                epoch: 0,
                neighbors: picks
                    .into_iter()
                    .map(|v| Neighbor {
                        user: UserId(v),
                        similarity: 0.5,
                    })
                    .collect(),
            }
        })
        .collect();
    hyrec.apply_updates(&updates);
    Arc::new(hyrec)
}

/// Serves one job per user through `build_jobs` + `encode_jobs`, so every
/// profile's fragment is cached before timing starts.
fn warm_encoder(hyrec: &HyRecServer, encoder: &JobEncoder, users: u32) {
    let all: Vec<UserId> = (0..users).map(UserId).collect();
    for batch in all.chunks(WARM_BATCH) {
        let _ = encoder.encode_jobs(&hyrec.build_jobs(batch));
    }
}

/// Scheduler settings of `browser_loop`: leases on, never expiring within
/// a run, and no age term in the staleness priority. Both of those run on
/// the wall clock, so they could not repeat from the seed; with no votes in
/// the loop, every priority stays 0 and the scheduler serves the uid asked
/// for.
fn sched_config() -> SchedConfig {
    SchedConfig {
        lease_timeout: 3_600_000,
        age_weight: 0.0,
        ..SchedConfig::default()
    }
}

/// A running server: one reactor and `workers` workers in front of a
/// population, on the plain or the scheduled router.
pub struct Server {
    handle: Option<ReactorHandle>,
    sweeper: Option<SweeperHandle>,
    encoder: Arc<JobEncoder>,
    scheduled: Option<Arc<ScheduledServer>>,
    addr: SocketAddr,
}

impl Server {
    fn start(
        hyrec: Arc<HyRecServer>,
        encoder: Arc<JobEncoder>,
        scheduled: bool,
        workers: usize,
        recorder: Option<Arc<Recorder>>,
    ) -> io::Result<Self> {
        let reactor = ReactorServer::bind_sharded("127.0.0.1:0", 1, workers)?;
        let addr = reactor.local_addr();
        let policy = BatchPolicy::default();
        let (router, scheduled) = if scheduled {
            let sched = Arc::new(ScheduledServer::new(hyrec, sched_config()));
            let router = match recorder {
                Some(rec) => traced_scheduled_router(Arc::clone(&sched), Arc::clone(&encoder), rec),
                None => api::hyrec_scheduled_router(
                    Arc::clone(&sched),
                    Arc::clone(&encoder),
                    policy,
                    None,
                ),
            };
            (router, Some(sched))
        } else {
            let router = match recorder {
                Some(rec) => traced_plain_router(hyrec, Arc::clone(&encoder), rec),
                None => api::hyrec_router_with(hyrec, Arc::clone(&encoder), policy),
            };
            (router, None)
        };
        let sweeper = scheduled
            .as_ref()
            .map(|sched| sched.spawn_sweeper(Duration::from_millis(100)));
        Ok(Self {
            handle: Some(reactor.serve(router)),
            sweeper,
            encoder,
            scheduled,
            addr,
        })
    }

    /// The loopback address served.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(requests, connections)` counted by the reactor.
    #[must_use]
    pub fn reactor_counts(&self) -> (u64, u64) {
        let stats = self.handle.as_ref().expect("server is running").stats();
        (stats.requests(), stats.connections())
    }

    /// Scheduler counters (scheduled router only).
    #[must_use]
    pub fn sched_stats(&self) -> Option<SchedStatsSnapshot> {
        self.scheduled
            .as_ref()
            .map(|s| s.scheduler().stats().snapshot())
    }

    /// Live leases (0 on the plain router).
    #[must_use]
    pub fn outstanding_leases(&self) -> usize {
        self.scheduled
            .as_ref()
            .map_or(0, |s| s.scheduler().outstanding_leases())
    }

    /// Fragments in the encoder's cache.
    #[must_use]
    pub fn cached_profiles(&self) -> usize {
        self.encoder.cached_profiles()
    }

    /// Stops the sweeper, drains the reactor and joins every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(sweeper) = self.sweeper.take() {
            sweeper.stop();
        }
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the browser side got out of one `/online/` body.
#[derive(Debug, Clone)]
pub struct OpenedJob {
    /// The job's user.
    pub uid: u32,
    /// Lease id (0 when unleased).
    pub lease: u64,
    /// Refresh epoch (0 when unleased).
    pub epoch: u64,
    /// Candidates shipped in the job.
    pub candidates: usize,
    /// The gzipped `KnnUpdate` the widget would post back.
    pub update: Vec<u8>,
}

/// The browser side of the loop: the widget, run on job bodies.
#[derive(Debug, Default)]
pub struct Browser {
    widget: Widget,
}

impl Browser {
    /// Runs the browser's work on one body: gunzip, JSON decode,
    /// Algorithms 1–2, update encode. These are the steps of
    /// `Widget::run_encoded_job` (via `PersonalizationJob::decode`), called
    /// one by one so each can be timed. Returns the stage boundaries
    /// `[start, gunzipped, decoded, computed, encoded]`.
    ///
    /// # Errors
    ///
    /// Describes the first stage that failed.
    pub fn open_job(&self, body: &[u8]) -> Result<(OpenedJob, [Instant; 5]), String> {
        let t0 = Instant::now();
        let raw = gzip::decompress(body).map_err(|e| format!("gunzip: {e}"))?;
        let t1 = Instant::now();
        let text = std::str::from_utf8(&raw).map_err(|_| "job is not utf-8".to_owned())?;
        let job = JsonValue::parse(text)
            .and_then(|value| PersonalizationJob::from_json(&value))
            .map_err(|e| format!("job decode: {e}"))?;
        let t2 = Instant::now();
        let output = self.widget.run_job(&job);
        let t3 = Instant::now();
        let update = output.update.encode();
        let t4 = Instant::now();
        Ok((
            OpenedJob {
                uid: job.uid.raw(),
                lease: job.lease,
                epoch: job.epoch,
                candidates: job.candidates.len(),
                update,
            },
            [t0, t1, t2, t3, t4],
        ))
    }
}

// --- The traced router ---------------------------------------------------
//
// Same routes, same policy and the same calls as the program's handlers in
// `hyrec_http::api`, each call wrapped in a span. Only the routes the
// workloads use are mounted. A test checks that its bodies are
// byte-identical to the program's router.

fn traced_plain_router(
    hyrec: Arc<HyRecServer>,
    encoder: Arc<JobEncoder>,
    recorder: Arc<Recorder>,
) -> Router {
    let mut router = Router::new();
    let policy = BatchPolicy::default();

    let (server, rec) = (Arc::clone(&hyrec), Arc::clone(&recorder));
    router.route(
        "GET",
        "/online/",
        policy,
        move |requests: &[Request], out: &mut Vec<Response>| {
            let mut span = HandlerTrace::start(requests);
            let parsed: Vec<Result<UserId, String>> = requests.iter().map(parse_uid).collect();
            let uids: Vec<UserId> = parsed.iter().filter_map(|p| p.clone().ok()).collect();
            let jobs = span.call("sampler.build_jobs", uids.len(), || {
                server.build_jobs(&uids)
            });
            span.candidates(&jobs);
            let bodies = span.call("encoder.encode_jobs", jobs.len(), || {
                encoder.encode_jobs(&jobs)
            });
            span.body_bytes(&bodies);
            push_bodies(parsed, bodies, out);
            rec.push(span.finish());
        },
    );

    let rec = recorder;
    router.route(
        "GET",
        "/rate/",
        policy,
        move |requests: &[Request], out: &mut Vec<Response>| {
            let mut span = HandlerTrace::start(requests);
            let parsed: Vec<Result<(UserId, ItemId, Vote), String>> =
                requests.iter().map(parse_rate).collect();
            let votes: Vec<(UserId, ItemId, Vote)> =
                parsed.iter().filter_map(|p| p.clone().ok()).collect();
            let changed = span.call("tables.record_many", votes.len(), || {
                hyrec.record_many(&votes)
            });
            let mut changed = changed.into_iter();
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
            rec.push(span.finish());
        },
    );
    router
}

fn traced_scheduled_router(
    sched: Arc<ScheduledServer>,
    encoder: Arc<JobEncoder>,
    recorder: Arc<Recorder>,
) -> Router {
    let mut router = Router::new();
    let policy = BatchPolicy::default();

    let (online, rec) = (Arc::clone(&sched), Arc::clone(&recorder));
    router.route(
        "GET",
        "/online/",
        policy,
        move |requests: &[Request], out: &mut Vec<Response>| {
            let mut span = HandlerTrace::start(requests);
            let parsed: Vec<Result<UserId, String>> = requests.iter().map(parse_uid).collect();
            let uids: Vec<UserId> = parsed.iter().filter_map(|p| p.clone().ok()).collect();
            let jobs = span.call("sched.issue_jobs", uids.len(), || {
                online.issue_jobs(&uids, online.now_ms())
            });
            span.candidates(&jobs);
            let bodies = span.call("encoder.encode_jobs", jobs.len(), || {
                encoder.encode_jobs(&jobs)
            });
            span.body_bytes(&bodies);
            push_bodies(parsed, bodies, out);
            rec.push(span.finish());
        },
    );

    let rec = recorder;
    router.route(
        "POST",
        "/neighbors/",
        policy,
        move |requests: &[Request], out: &mut Vec<Response>| {
            let mut span = HandlerTrace::start(requests);
            let parsed: Vec<Result<KnnUpdate, String>> =
                span.call("wire.update_decode", requests.len(), || {
                    requests
                        .iter()
                        .map(|req| KnnUpdate::decode(&req.body).map_err(|err| err.to_string()))
                        .collect()
                });
            let updates: Vec<KnnUpdate> = parsed.iter().filter_map(|p| p.clone().ok()).collect();
            let outcomes = span.call("sched.complete_updates", updates.len(), || {
                sched.complete_updates(&updates, sched.now_ms())
            });
            let mut outcomes = outcomes.into_iter();
            out.extend(parsed.into_iter().map(|p| match p {
                Ok(_) => completion_response(outcomes.next().expect("one outcome per update")),
                Err(reason) => Response::bad_request(&reason),
            }));
            rec.push(span.finish());
        },
    );
    router
}

/// Builds one [`HandlerSpan`] while a traced handler runs.
struct HandlerTrace(HandlerSpan);

impl HandlerTrace {
    fn start(requests: &[Request]) -> Self {
        let now = Instant::now();
        Self(HandlerSpan {
            start: now,
            end: now,
            requests: requests.iter().filter_map(burst_key).collect(),
            children: Vec::new(),
            candidates: 0,
            body_bytes: 0,
        })
    }

    fn call<T>(&mut self, name: &'static str, items: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = f();
        self.0.children.push(ChildSpan {
            name,
            start,
            end: Instant::now(),
            items: items as u64,
        });
        result
    }

    fn candidates(&mut self, jobs: &[PersonalizationJob]) {
        self.0.candidates += jobs.iter().map(|j| j.candidates.len() as u64).sum::<u64>();
    }

    fn body_bytes(&mut self, bodies: &[Vec<u8>]) {
        self.0.body_bytes += bodies.iter().map(|b| b.len() as u64).sum::<u64>();
    }

    fn finish(mut self) -> HandlerSpan {
        self.0.end = Instant::now();
        self.0
    }
}

/// The request key carried in the `x-burst-id: <burst>.<index>` header.
fn burst_key(req: &Request) -> Option<u64> {
    let (burst, index) = req.header("x-burst-id")?.split_once('.')?;
    Some(crate::plan::request_key(
        burst.parse().ok()?,
        index.parse().ok()?,
    ))
}

fn push_bodies(parsed: Vec<Result<UserId, String>>, bodies: Vec<Vec<u8>>, out: &mut Vec<Response>) {
    let mut bodies = bodies.into_iter();
    out.extend(parsed.into_iter().map(|p| match p {
        Ok(_) => {
            Response::ok_pregzipped_json(bodies.next().expect("one encoded body per valid uid"))
        }
        Err(reason) => Response::bad_request(&reason),
    }));
}

fn completion_response(outcome: Result<(), RejectReason>) -> Response {
    match outcome {
        Ok(()) => Response::ok("application/json", b"{\"ok\":true}".to_vec()),
        Err(reason) => {
            let mut response = Response::ok(
                "application/json",
                format!("{{\"ok\":false,\"reject\":\"{reason}\"}}").into_bytes(),
            );
            response.status = match reason {
                RejectReason::NanSimilarity | RejectReason::OutOfRangeSimilarity => 400,
                _ => 409,
            };
            response
        }
    }
}

fn parse_u32(text: Option<&str>) -> Option<u32> {
    let text = text?;
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    text.parse().ok()
}

fn parse_uid(req: &Request) -> Result<UserId, String> {
    parse_u32(req.query_param("uid"))
        .map(UserId)
        .ok_or_else(|| "missing or invalid `uid`".to_owned())
}

fn parse_rate(req: &Request) -> Result<(UserId, ItemId, Vote), String> {
    let uid = parse_uid(req)?;
    let item = parse_u32(req.query_param("item"))
        .map(ItemId)
        .ok_or_else(|| "missing or invalid `item`".to_owned())?;
    let vote = match req.query_param("like") {
        Some("1") => Vote::Like,
        Some("0") => Vote::Dislike,
        _ => return Err("`like` must be 0 or 1".to_owned()),
    };
    Ok((uid, item, vote))
}
