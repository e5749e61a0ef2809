//! Response-time and concurrency measurement (Figures 8 and 9).
//!
//! Figure 8 measures *service time* per request as a function of profile
//! size for three front-ends:
//!
//! * **HyRec**: sample a candidate set + encode the job (cached fragments +
//!   fast gzip) — no recommendation computation at all.
//! * **CRec**: sample the same candidate set, then compute Algorithm 2
//!   server-side (the paper's "same algorithm as HyRec" centralized
//!   front-end) and encode the small result.
//! * **Online Ideal**: brute-force KNN over every user, then recommend.
//!
//! Figure 9 drives the real HTTP stack (the epoll reactor) with
//! closed-loop clients and measures latency as concurrency grows. It uses
//! only the scalar `/online-fast/` and `/crecommend/` routes, so each
//! request is one job on the reactor's worker pool and the pool size
//! bounds concurrent handler work, as the paper's servlet pool did.

use hyrec_core::{recommend, ItemId, Neighbor, Neighborhood, UserId, Vote};
use hyrec_http::{api, BatchPolicy, HttpClient, ReactorServer, Response, Router};
use hyrec_sched::SchedConfig;
use hyrec_server::{
    HyRecConfig, HyRecServer, JobEncoder, OnlineIdeal, ScheduledServer, SweeperHandle,
};
use hyrec_wire::{KnnUpdate, PersonalizationJob};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency summary over a measurement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Mean latency.
    pub mean: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 95th percentile latency.
    pub p95: Duration,
    /// Number of samples.
    pub samples: usize,
}

impl LatencyStats {
    /// Summarizes a sample vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    #[must_use]
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        assert!(!samples.is_empty(), "no samples collected");
        samples.sort_unstable();
        let total: Duration = samples.iter().sum();
        let n = samples.len();
        Self {
            mean: total / n as u32,
            p50: samples[n / 2],
            p95: samples[(n * 95 / 100).min(n - 1)],
            samples: n,
        }
    }
}

/// A server population prepared for response-time experiments: `n` users
/// with `profile_size`-item profiles and a warm KNN table (the paper's
/// "assume its KNN table is up to date").
#[derive(Debug)]
pub struct Population {
    /// The HyRec server holding the tables.
    pub server: Arc<HyRecServer>,
    /// Fragment-caching job encoder (shared with the HTTP front-end).
    pub encoder: Arc<JobEncoder>,
    /// User ids present.
    pub users: Vec<UserId>,
}

/// Builds a population of `n_users` users with dense `profile_size`-item
/// profiles and `k` random warm neighbours each.
#[must_use]
pub fn build_population(n_users: usize, profile_size: usize, k: usize, seed: u64) -> Population {
    let server = Arc::new(HyRecServer::with_config(
        HyRecConfig::builder()
            .k(k)
            .anonymize_users(false)
            .seed(seed)
            .build(),
    ));
    let mut rng = StdRng::seed_from_u64(seed);
    let users: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
    for &user in &users {
        for i in 0..profile_size as u32 {
            // Overlapping item space so similarities are non-trivial.
            let item = (user.0.wrapping_mul(17).wrapping_add(i * 3)) % 60_000;
            server.record(user, ItemId(item), Vote::Like);
        }
    }
    // Warm KNN table: k distinct random neighbours per user.
    for &user in &users {
        let mut picks = std::collections::HashSet::new();
        while picks.len() < k.min(n_users.saturating_sub(1)) {
            let v = users[rng.gen_range(0..users.len())];
            if v != user {
                picks.insert(v);
            }
        }
        let hood = Neighborhood::from_neighbors(picks.into_iter().map(|v| Neighbor {
            user: v,
            similarity: 0.5,
        }));
        server.knn_table().update(user, hood);
    }
    Population {
        server,
        encoder: Arc::new(JobEncoder::new()),
        users,
    }
}

/// Builds a population whose KNN table already *converged*: users live in
/// communities of `2k` members with correlated profiles, and each user's
/// stored neighbours are `k` members of their own community — the
/// steady-state table shape the HyRec loop produces (and the regime where
/// the sampler's 1-hop/2-hop sets overlap heavily, exactly as the paper
/// notes candidate sets shrink "more and more as the KNN tables converge").
#[must_use]
pub fn build_converged_population(
    n_users: usize,
    profile_size: usize,
    k: usize,
    seed: u64,
) -> Population {
    let server = Arc::new(HyRecServer::with_config(
        HyRecConfig::builder()
            .k(k)
            .anonymize_users(false)
            .seed(seed)
            .build(),
    ));
    let users: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
    let community = (2 * k).max(2) as u32;
    for &user in &users {
        let base = (user.0 / community) * 1_000;
        for i in 0..profile_size as u32 {
            // Mostly community items plus a personal remainder.
            let item = if i % 4 == 0 {
                user.0.wrapping_mul(31).wrapping_add(i) % 60_000
            } else {
                base + i
            };
            server.record(user, ItemId(item), Vote::Like);
        }
    }
    for &user in &users {
        let community_start = (user.0 / community) * community;
        let hood = Neighborhood::from_neighbors(
            (1..=community as usize)
                .filter_map(|offset| {
                    let v =
                        community_start + ((user.0 - community_start) + offset as u32) % community;
                    (v != user.0 && (v as usize) < n_users).then_some(Neighbor {
                        user: UserId(v),
                        similarity: 0.8,
                    })
                })
                .take(k),
        );
        server.knn_table().update(user, hood);
    }
    Population {
        server,
        encoder: Arc::new(JobEncoder::new()),
        users,
    }
}

/// Warms the encoder's fragment cache to steady state over the first
/// `users` users — one batched job build instead of a per-user loop.
pub fn warm_cache(population: &Population, users: usize) {
    let prefix = &population.users[..users.min(population.users.len())];
    for job in population.server.build_jobs(prefix) {
        let _ = population.encoder.encode(&job);
    }
}

/// Figure 8, HyRec series: candidate sampling + cached encoding.
#[must_use]
pub fn measure_hyrec_response(population: &Population, requests: usize, seed: u64) -> LatencyStats {
    let mut rng = StdRng::seed_from_u64(seed);
    // Warm the fragment cache once (steady-state behaviour).
    warm_cache(population, 64);
    let samples = (0..requests.max(1))
        .map(|_| {
            let user = population.users[rng.gen_range(0..population.users.len())];
            let start = Instant::now();
            let job = population.server.build_job(user);
            let bytes = population.encoder.encode(&job);
            let elapsed = start.elapsed();
            std::hint::black_box(bytes);
            elapsed
        })
        .collect();
    LatencyStats::from_samples(samples)
}

/// HyRec series with request coalescing: jobs are built through
/// [`hyrec_server::HyRecServer::build_jobs`] in batches of `batch`,
/// reporting the per-request latency. Compare against
/// [`measure_hyrec_response`] to see what shard-lock amortization buys at a
/// given batch size.
#[must_use]
pub fn measure_hyrec_batched_response(
    population: &Population,
    requests: usize,
    batch: usize,
    seed: u64,
) -> LatencyStats {
    let batch = batch.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    warm_cache(population, 64);
    let samples = (0..requests.max(1).div_ceil(batch))
        .map(|_| {
            let start_idx = rng.gen_range(0..population.users.len());
            let users: Vec<UserId> = (0..batch)
                .map(|j| population.users[(start_idx + j) % population.users.len()])
                .collect();
            let start = Instant::now();
            let jobs = population.server.build_jobs(&users);
            let encoded: Vec<_> = jobs
                .iter()
                .map(|job| population.encoder.encode(job))
                .collect();
            let elapsed = start.elapsed() / batch as u32;
            std::hint::black_box(encoded);
            elapsed
        })
        .collect();
    LatencyStats::from_samples(samples)
}

/// Figure 8, CRec series: the same candidate sampling, then Algorithm 2
/// computed **on the server**, then the (small) result encoded.
#[must_use]
pub fn measure_crec_response(population: &Population, requests: usize, seed: u64) -> LatencyStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..requests.max(1))
        .map(|_| {
            let user = population.users[rng.gen_range(0..population.users.len())];
            let start = Instant::now();
            let job = population.server.build_job(user);
            let recs = recommend::most_popular(&job.profile, job.candidates.profiles(), job.r);
            let body = recs_json(&recs);
            let bytes = hyrec_wire::gzip::compress_with(
                body.as_bytes(),
                hyrec_wire::deflate::lz77::Effort::FAST,
            );
            let elapsed = start.elapsed();
            std::hint::black_box(bytes);
            elapsed
        })
        .collect();
    LatencyStats::from_samples(samples)
}

/// Figure 8, Online-Ideal series: brute-force KNN per request.
#[must_use]
pub fn measure_online_ideal_response(
    population: &Population,
    requests: usize,
    seed: u64,
) -> LatencyStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..requests.max(1))
        .map(|_| {
            let user = population.users[rng.gen_range(0..population.users.len())];
            let start = Instant::now();
            let ideal = OnlineIdeal::new(population.server.profiles(), hyrec_core::Cosine, 10);
            let recs = ideal.recommend(user, 10);
            let body = recs_json(&recs);
            let elapsed = start.elapsed();
            std::hint::black_box(body);
            elapsed
        })
        .collect();
    LatencyStats::from_samples(samples)
}

fn recs_json(recs: &[hyrec_core::Recommendation]) -> String {
    let mut out = String::from("{\"items\":[");
    for (i, rec) in recs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rec.item.raw().to_string());
    }
    out.push_str("]}");
    out
}

/// Builds the HTTP router for concurrency experiments: `/online/`
/// (coalescable, shares the population's fragment-cache encoder),
/// `/online-fast/` (scalar cached-encoder variant) and `/crecommend/`
/// (CRec, server-side Algorithm 2).
#[must_use]
pub fn benchmark_router(population: &Population) -> Router {
    let mut router = api::hyrec_router_with(
        Arc::clone(&population.server),
        Arc::clone(&population.encoder),
        BatchPolicy::default(),
    );

    // A scalar cached-encoder endpoint alongside the coalesced /online/:
    // lets experiments separate the encoder win from the coalescing win.
    let server = Arc::clone(&population.server);
    let encoder = Arc::clone(&population.encoder);
    router.get("/online-fast/", move |req| {
        match req.query_param("uid").and_then(|v| v.parse::<u32>().ok()) {
            Some(uid) => {
                let job = server.build_job(UserId(uid));
                Response::ok_pregzipped_json(encoder.encode(&job))
            }
            None => Response::bad_request("missing uid"),
        }
    });

    let server = Arc::clone(&population.server);
    router.get("/crecommend/", move |req| {
        match req.query_param("uid").and_then(|v| v.parse::<u32>().ok()) {
            Some(uid) => {
                let job = server.build_job(UserId(uid));
                let recs = recommend::most_popular(&job.profile, job.candidates.profiles(), job.r);
                Response::ok_json_gzip(recs_json(&recs).as_bytes())
            }
            None => Response::bad_request("missing uid"),
        }
    });
    router
}

/// Figure 9: closed-loop load — `clients` threads each issue
/// `requests_per_client` requests to `path` (with `?uid=<random>`
/// appended) and the mean per-request latency is reported.
///
/// # Panics
///
/// Panics if no request succeeds (server unreachable).
#[must_use]
pub fn closed_loop(
    addr: std::net::SocketAddr,
    path: &str,
    users: usize,
    clients: usize,
    requests_per_client: usize,
) -> LatencyStats {
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let path = path.to_owned();
        handles.push(std::thread::spawn(move || {
            let client = HttpClient::new(addr).with_timeout(Duration::from_secs(60));
            let mut rng = StdRng::seed_from_u64(c as u64);
            let mut samples = Vec::with_capacity(requests_per_client);
            for _ in 0..requests_per_client {
                let uid = rng.gen_range(0..users);
                let start = Instant::now();
                match client.get(&format!("{path}?uid={uid}")) {
                    Ok(response) if response.status == 200 => {
                        samples.push(start.elapsed());
                    }
                    _ => {}
                }
            }
            samples
        }));
    }
    let mut all = Vec::new();
    for handle in handles {
        all.extend(handle.join().expect("client thread panicked"));
    }
    LatencyStats::from_samples(all)
}

/// Convenience: spin up a single-reactor server over
/// [`benchmark_router`] with `workers` handler threads and return
/// (handle, addr).
#[must_use]
pub fn spawn_benchmark_server(
    population: &Population,
    workers: usize,
) -> (hyrec_http::reactor::ReactorHandle, std::net::SocketAddr) {
    let server = ReactorServer::bind("127.0.0.1:0", workers).expect("bind benchmark server");
    let addr = server.local_addr();
    let handle = server.serve(benchmark_router(population));
    (handle, addr)
}

/// The *seed* front-end, preserved for baseline measurements: scalar
/// `/online/` doing `build_job` + a full `PersonalizationJob::encode`
/// (re-gzipping every candidate profile on every request — no fragment
/// cache, no coalescing). This is the per-request work the PR-1 ROADMAP
/// items were written against.
#[must_use]
pub fn seed_frontend_router(server: Arc<HyRecServer>) -> Router {
    let mut router = Router::new();
    router.get("/online/", move |req: &hyrec_http::Request| {
        match req.query_param("uid").and_then(|v| v.parse::<u32>().ok()) {
            Some(uid) => {
                let job = server.build_job(UserId(uid));
                Response::ok_pregzipped_json(job.encode())
            }
            None => Response::bad_request("missing uid"),
        }
    });
    router
}

/// Spins up the epoll reactor front-end over the benchmark router
/// (coalesced `/online/` + `/rate/` sharing the population's encoder).
#[must_use]
pub fn spawn_reactor_server(
    population: &Population,
    workers: usize,
    policy: BatchPolicy,
) -> (hyrec_http::reactor::ReactorHandle, std::net::SocketAddr) {
    spawn_sharded_reactor_server(population, 1, workers, policy)
}

/// Spins up the reactor front-end sharded across `reactors` event loops
/// (one `SO_REUSEPORT` listener each) over a shared pool of
/// `reactors × workers_per_reactor` workers — the multi-core scaling
/// configuration.
#[must_use]
pub fn spawn_sharded_reactor_server(
    population: &Population,
    reactors: usize,
    workers_per_reactor: usize,
    policy: BatchPolicy,
) -> (hyrec_http::reactor::ReactorHandle, std::net::SocketAddr) {
    let router = api::hyrec_router_with(
        Arc::clone(&population.server),
        Arc::clone(&population.encoder),
        policy,
    );
    let server = ReactorServer::bind_sharded("127.0.0.1:0", reactors, workers_per_reactor)
        .expect("bind sharded reactor server");
    let addr = server.local_addr();
    let handle = server.serve(router);
    (handle, addr)
}

/// Spins up the reactor front-end over the *scheduled* router: jobs are
/// leased, completions validated, `/stats/` live, and a wall-clock sweeper
/// chases abandoned leases. The sweeper handle must outlive the run.
#[must_use]
pub fn spawn_scheduled_reactor_server(
    population: &Population,
    workers: usize,
    policy: BatchPolicy,
    sched_config: SchedConfig,
) -> (
    hyrec_http::reactor::ReactorHandle,
    std::net::SocketAddr,
    Arc<ScheduledServer>,
    SweeperHandle,
) {
    let scheduled = Arc::new(ScheduledServer::new(
        Arc::clone(&population.server),
        sched_config,
    ));
    let server = ReactorServer::bind("127.0.0.1:0", workers).expect("bind scheduled reactor");
    let addr = server.local_addr();
    let stats = server.stats_handle();
    let handle = server.serve(api::hyrec_scheduled_router(
        Arc::clone(&scheduled),
        Arc::clone(&population.encoder),
        policy,
        Some(stats),
    ));
    let sweeper = scheduled.spawn_sweeper(Duration::from_millis(20));
    (handle, addr, scheduled, sweeper)
}

/// Outcome of a churn-mode closed loop ([`measure_churn_loop`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnLoad {
    /// `/online/` fetches answered 200.
    pub fetched: usize,
    /// Completions answered 200 (applied).
    pub completed: usize,
    /// Completions answered 409 (lease superseded/duplicate — expected
    /// under churn and concurrency, not an error).
    pub superseded: usize,
    /// Jobs deliberately abandoned by the simulated browsers.
    pub abandoned: usize,
    /// Hard failures: transport errors or unexpected statuses.
    pub errors: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// `/online/` fetches served per second (every interaction starts
    /// with exactly one fetch, so this is the interaction rate regardless
    /// of the abandon split).
    pub rps: f64,
}

/// Closed-loop churn driver: `clients` keep-alive connections each run
/// `per_client` browser interactions — fetch a job from `/online/`, then
/// with probability `abandon` vanish, otherwise post a completion echoing
/// the job's lease to `/neighbors/`. Works against both the scheduled
/// router (leases enforced) and the plain router (lease fields ignored),
/// so the two series measure the scheduler's overhead like-for-like.
///
/// # Panics
///
/// Panics if a client thread panics.
#[must_use]
pub fn measure_churn_loop(
    addr: std::net::SocketAddr,
    users: usize,
    clients: usize,
    per_client: usize,
    abandon: f64,
    seed: u64,
) -> ChurnLoad {
    let barrier = Arc::new(std::sync::Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let client = HttpClient::new(addr).with_timeout(Duration::from_secs(60));
            let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37));
            let mut out = (0usize, 0usize, 0usize, 0usize, 0usize);
            barrier.wait();
            let start = Instant::now();
            for _ in 0..per_client {
                let uid = rng.gen_range(0..users);
                let job = match client.get(&format!("/online/?uid={uid}")) {
                    // A 200 whose body does not decode to a job is a hard
                    // error — a silent `None` here would let an encoder
                    // regression sail through the CI churn smoke.
                    Ok(response) if response.status == 200 => {
                        match PersonalizationJob::decode(&response.body) {
                            Ok(job) => {
                                out.0 += 1;
                                Some(job)
                            }
                            Err(_) => {
                                out.4 += 1;
                                None
                            }
                        }
                    }
                    _ => {
                        out.4 += 1;
                        None
                    }
                };
                let Some(job) = job else { continue };
                if rng.gen_bool(abandon) {
                    out.3 += 1; // browser navigates away
                    continue;
                }
                // Synthetic completion: echo the lease, report the first k
                // candidates (cheap stand-in for the widget kernel, which
                // is not what this loop measures).
                let update = KnnUpdate {
                    uid: job.uid,
                    lease: job.lease,
                    epoch: job.epoch,
                    neighbors: job
                        .candidates
                        .iter()
                        .take(job.k)
                        .map(|cand| Neighbor {
                            user: cand.user,
                            similarity: 0.5,
                        })
                        .collect(),
                };
                match client.post("/neighbors/", &update.encode()) {
                    Ok(response) if response.status == 200 => out.1 += 1,
                    Ok(response) if response.status == 409 => out.2 += 1,
                    _ => out.4 += 1,
                }
            }
            (out, start, Instant::now())
        }));
    }
    barrier.wait();
    let mut totals = (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut first_start: Option<Instant> = None;
    let mut last_end: Option<Instant> = None;
    for handle in handles {
        let ((fetched, completed, superseded, abandoned, errors), start, end) =
            handle.join().expect("churn client thread panicked");
        totals.0 += fetched;
        totals.1 += completed;
        totals.2 += superseded;
        totals.3 += abandoned;
        totals.4 += errors;
        first_start = Some(first_start.map_or(start, |s| s.min(start)));
        last_end = Some(last_end.map_or(end, |s| s.max(end)));
    }
    let elapsed = match (first_start, last_end) {
        (Some(start), Some(end)) => end.duration_since(start),
        _ => Duration::ZERO,
    };
    ChurnLoad {
        fetched: totals.0,
        completed: totals.1,
        superseded: totals.2,
        abandoned: totals.3,
        errors: totals.4,
        elapsed,
        rps: totals.0 as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// Connection behaviour of the closed-loop load clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOptions {
    /// Reuse one persistent connection per client (HTTP keep-alive)
    /// instead of a fresh TCP connect per request.
    pub keep_alive: bool,
    /// With `keep_alive`, rotate to a fresh connection after this many
    /// requests (`0` = never; the server's own budget still applies).
    pub requests_per_conn: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            keep_alive: true,
            requests_per_conn: 0,
        }
    }
}

impl LoadOptions {
    /// The seed behaviour: `Connection: close`, one TCP connect per
    /// request.
    #[must_use]
    pub fn close_per_request() -> Self {
        Self {
            keep_alive: false,
            requests_per_conn: 0,
        }
    }

    /// Persistent connections, rotated every `requests_per_conn` requests
    /// (`0` = never).
    #[must_use]
    pub fn persistent(requests_per_conn: usize) -> Self {
        Self {
            keep_alive: true,
            requests_per_conn,
        }
    }
}

/// Outcome of a closed-loop throughput run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Requests answered with 200.
    pub ok: usize,
    /// Requests that failed or returned a non-200 status.
    pub errors: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Completed (200) requests per second.
    pub rps: f64,
}

/// Closed-loop throughput in the seed `Connection: close` mode (one TCP
/// connect per request) — see [`measure_throughput_with`] for the
/// keep-alive modes. Kept as the baseline so `BENCH_http.json` series stay
/// comparable across PRs.
///
/// # Panics
///
/// Panics if a client thread panics.
#[must_use]
pub fn measure_throughput(
    addr: std::net::SocketAddr,
    path: &str,
    users: usize,
    clients: usize,
    requests_per_client: usize,
) -> Throughput {
    measure_throughput_with(
        addr,
        path,
        users,
        clients,
        requests_per_client,
        LoadOptions::close_per_request(),
    )
}

/// Closed-loop throughput: `clients` threads each issue
/// `requests_per_client` requests to `path` (with `?uid=<random>`)
/// and the aggregate completion rate is measured from a barrier-aligned
/// start. `options` selects the connection mode: persistent keep-alive
/// sockets (optionally rotated every N requests) or the seed
/// connect-per-request behaviour.
///
/// # Panics
///
/// Panics if a client thread panics.
#[must_use]
pub fn measure_throughput_with(
    addr: std::net::SocketAddr,
    path: &str,
    users: usize,
    clients: usize,
    requests_per_client: usize,
    options: LoadOptions,
) -> Throughput {
    let barrier = Arc::new(std::sync::Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let path = path.to_owned();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let client = HttpClient::new(addr)
                .with_timeout(Duration::from_secs(60))
                .with_keep_alive(options.keep_alive);
            let mut rng = StdRng::seed_from_u64(0xBEEF ^ c as u64);
            let sep = if path.contains('?') { '&' } else { '?' };
            barrier.wait();
            // Each client times its own span; the aggregate window is
            // min(start)..max(end). (A single post-barrier timestamp on the
            // coordinating thread undercounts badly when the box has fewer
            // cores than clients — the coordinator may not be scheduled
            // until most requests already finished.)
            let start = Instant::now();
            let mut ok = 0usize;
            let mut errors = 0usize;
            let mut on_conn = 0usize;
            for _ in 0..requests_per_client {
                if options.keep_alive
                    && options.requests_per_conn > 0
                    && on_conn >= options.requests_per_conn
                {
                    client.reset_connection();
                    on_conn = 0;
                }
                let uid = rng.gen_range(0..users);
                match client.get(&format!("{path}{sep}uid={uid}")) {
                    Ok(response) if response.status == 200 => ok += 1,
                    _ => errors += 1,
                }
                on_conn += 1;
            }
            (ok, errors, start, Instant::now())
        }));
    }
    barrier.wait();
    let mut ok = 0usize;
    let mut errors = 0usize;
    let mut first_start: Option<Instant> = None;
    let mut last_end: Option<Instant> = None;
    for handle in handles {
        let (o, e, start, end) = handle.join().expect("client thread panicked");
        ok += o;
        errors += e;
        first_start = Some(first_start.map_or(start, |s| s.min(start)));
        last_end = Some(last_end.map_or(end, |s| s.max(end)));
    }
    let elapsed = match (first_start, last_end) {
        (Some(start), Some(end)) => end.duration_since(start),
        _ => Duration::ZERO,
    };
    Throughput {
        ok,
        errors,
        elapsed,
        rps: ok as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_warm() {
        let population = build_population(50, 20, 5, 1);
        assert_eq!(population.users.len(), 50);
        for &user in &population.users {
            assert_eq!(population.server.profile_of(user).unwrap().liked_len(), 20);
            assert_eq!(population.server.knn_of(user).unwrap().len(), 5);
        }
    }

    #[test]
    fn hyrec_beats_crec_on_large_profiles() {
        // The Figure 8 relationship: with large profiles, offloading the
        // recommendation computation makes the HyRec front-end faster.
        let population = build_population(300, 300, 10, 2);
        // Interleaved sampling: ambient CI load hits both series equally.
        let mut rng = StdRng::seed_from_u64(3);
        // Warm the fragment cache first (steady-state behaviour).
        warm_cache(&population, 64);
        let mut hyrec_samples = Vec::new();
        let mut crec_samples = Vec::new();
        for _ in 0..40 {
            let user = population.users[rng.gen_range(0..population.users.len())];
            let start = Instant::now();
            let job = population.server.build_job(user);
            let bytes = population.encoder.encode(&job);
            hyrec_samples.push(start.elapsed());
            std::hint::black_box(bytes);

            let start = Instant::now();
            let job = population.server.build_job(user);
            let recs = recommend::most_popular(&job.profile, job.candidates.profiles(), job.r);
            crec_samples.push(start.elapsed());
            std::hint::black_box(recs);
        }
        // Minima for noise robustness (see online_ideal_is_slowest_at_scale).
        let hyrec_min = hyrec_samples.iter().min().copied().unwrap();
        let crec_min = crec_samples.iter().min().copied().unwrap();
        assert!(
            hyrec_min < crec_min,
            "hyrec {hyrec_min:?} should beat crec {crec_min:?}"
        );
    }

    #[test]
    fn online_ideal_is_slowest_at_scale() {
        // The full-table scan costs O(N · ps) per request vs O(candidates ·
        // ps) for HyRec's job building; the separation needs N ≫ |S_u|.
        // Samples are interleaved so ambient CI load (other test binaries
        // sharing the cores) hits both series equally; medians compared.
        let population = build_population(3000, 50, 10, 4);
        let mut rng = StdRng::seed_from_u64(5);
        // Warm the fragment cache to steady state (profiles are static in
        // this population, so production behaviour is all cache hits).
        warm_cache(&population, 128);
        let ideal = OnlineIdeal::new(population.server.profiles(), hyrec_core::Cosine, 10);
        let mut hyrec_samples = Vec::new();
        let mut ideal_samples = Vec::new();
        for _ in 0..30 {
            let user = population.users[rng.gen_range(0..population.users.len())];
            let start = Instant::now();
            let job = population.server.build_job(user);
            let bytes = population.encoder.encode(&job);
            hyrec_samples.push(start.elapsed());
            std::hint::black_box(bytes);

            let start = Instant::now();
            let recs = ideal.recommend(user, 10);
            ideal_samples.push(start.elapsed());
            std::hint::black_box(recs);
        }
        // Compare minima: contention from concurrently running tests only
        // produces upward spikes, so the per-series floor is the robust
        // estimate of intrinsic service time.
        let hyrec_min = hyrec_samples.iter().min().copied().unwrap();
        let ideal_min = ideal_samples.iter().min().copied().unwrap();
        assert!(
            ideal_min > hyrec_min,
            "ideal {ideal_min:?} must exceed hyrec {hyrec_min:?}"
        );
    }

    #[test]
    fn batched_measurement_runs_and_counts() {
        let population = build_population(100, 20, 5, 8);
        let stats = measure_hyrec_batched_response(&population, 64, 16, 9);
        assert_eq!(stats.samples, 4);
        assert!(stats.mean > Duration::ZERO);
    }

    #[test]
    fn latency_stats_percentiles() {
        let stats = LatencyStats::from_samples((1..=100).map(Duration::from_millis).collect());
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.p50, Duration::from_millis(51));
        assert!(stats.p95 >= Duration::from_millis(95));
        assert!(stats.mean > Duration::from_millis(45));
    }

    #[test]
    fn reactor_front_end_serves_and_measures_throughput() {
        let population = build_population(40, 10, 3, 6);
        let (handle, addr) = spawn_reactor_server(&population, 2, BatchPolicy::default());
        let throughput = measure_throughput(addr, "/online/", 40, 8, 4);
        assert_eq!(throughput.ok, 32);
        assert_eq!(throughput.errors, 0);
        assert!(throughput.rps > 0.0);
        // The closed-loop latency harness works against the reactor too.
        let stats = closed_loop(addr, "/online/", 40, 4, 3);
        assert_eq!(stats.samples, 12);
        assert_eq!(handle.request_count(), 32 + 12);
        handle.stop();
    }

    #[test]
    fn sharded_reactor_front_end_serves_and_aggregates_stats() {
        let population = build_population(40, 10, 3, 6);
        let (handle, addr) =
            spawn_sharded_reactor_server(&population, 2, 1, BatchPolicy::default());
        let throughput =
            measure_throughput_with(addr, "/online/", 40, 8, 4, LoadOptions::persistent(0));
        assert_eq!(throughput.ok, 32);
        assert_eq!(throughput.errors, 0);
        let stats = handle.stats();
        assert_eq!(stats.shards().len(), 2);
        assert_eq!(
            stats
                .shards()
                .iter()
                .map(hyrec_http::reactor::ShardStats::requests)
                .sum::<u64>(),
            stats.requests()
        );
        assert_eq!(stats.requests(), 32);
        handle.stop();
    }

    #[test]
    fn keep_alive_throughput_mode_reuses_and_rotates_connections() {
        let population = build_population(40, 10, 3, 6);
        let (handle, addr) = spawn_reactor_server(&population, 2, BatchPolicy::default());
        let throughput =
            measure_throughput_with(addr, "/online/", 40, 4, 6, LoadOptions::persistent(3));
        assert_eq!(throughput.ok, 24);
        assert_eq!(throughput.errors, 0);
        // 4 clients × (6 requests rotated every 3) = 8 connections, far
        // fewer than the 24 the close-per-request mode would open.
        assert_eq!(handle.stats().connections(), 8);
        assert_eq!(handle.request_count(), 24);
        handle.stop();
    }

    #[test]
    fn churn_loop_drives_scheduled_and_plain_routers() {
        let population = build_population(40, 10, 3, 6);
        // Scheduled: leases enforced, abandonment recovered by the sweeper.
        let (handle, addr, scheduled, sweeper) = spawn_scheduled_reactor_server(
            &population,
            2,
            BatchPolicy::default(),
            SchedConfig {
                lease_timeout: 50,
                max_reissues: 1,
                ..SchedConfig::default()
            },
        );
        let churn = measure_churn_loop(addr, 40, 4, 6, 0.5, 11);
        assert_eq!(churn.fetched, 24);
        assert_eq!(churn.errors, 0, "{churn:?}");
        assert!(churn.abandoned > 0, "{churn:?}");
        assert_eq!(
            churn.completed + churn.superseded + churn.abandoned,
            24,
            "{churn:?}"
        );
        assert!(scheduled.scheduler().stats().issued() >= 24);
        sweeper.stop();
        handle.stop();

        // The same loop against the plain router: lease fields are zero
        // and every posted completion lands (no 409s possible).
        let (handle, addr) = spawn_reactor_server(&population, 2, BatchPolicy::default());
        let plain = measure_churn_loop(addr, 40, 4, 6, 0.25, 12);
        assert_eq!(plain.fetched, 24);
        assert_eq!(plain.errors, 0, "{plain:?}");
        assert_eq!(plain.superseded, 0, "{plain:?}");
        handle.stop();
    }

    #[test]
    fn seed_router_replicates_seed_online_semantics() {
        let population = build_population(20, 10, 3, 9);
        let server = ReactorServer::bind("127.0.0.1:0", 2).expect("bind");
        let addr = server.local_addr();
        let handle = server.serve(seed_frontend_router(Arc::clone(&population.server)));
        let client = HttpClient::new(addr);
        let response = client.get("/online/?uid=1").unwrap();
        assert_eq!(response.status, 200);
        // The seed path gzips the whole job per request; the body still
        // decodes to a job for the requested user.
        let job = hyrec_wire::PersonalizationJob::decode(&response.body).unwrap();
        assert_eq!(job.uid, UserId(1));
        assert_eq!(client.get("/online/").unwrap().status, 400);
        handle.stop();
    }

    #[test]
    fn closed_loop_over_real_http() {
        let population = build_population(40, 10, 3, 6);
        let (handle, addr) = spawn_benchmark_server(&population, 4);
        let stats = closed_loop(addr, "/online-fast/", 40, 4, 5);
        assert_eq!(stats.samples, 20);
        assert!(stats.mean > Duration::ZERO);
        let stats = closed_loop(addr, "/crecommend/", 40, 2, 5);
        assert_eq!(stats.samples, 10);
        handle.stop();
    }
}
