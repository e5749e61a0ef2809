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
//! The server's job builder has one implementation, the batched one: the
//! `build_job` calls timed here are batches of one, the code a lone
//! `/online/` request runs.
//!
//! Figure 9 drives the real HTTP stack (the epoll reactor) with
//! closed-loop clients and measures latency as concurrency grows. It
//! requests the API's `/online/` route and a `/crecommend/` route mounted
//! beside it, both scalar (never gathered), so each request runs alone on
//! the reactor shard that owns its connection and the shard count bounds
//! concurrent handler work, as the paper's servlet pool did.

use hyrec_core::{recommend, ItemId, Neighbor, Neighborhood, UserId, Vote};
use hyrec_http::{api, BatchPolicy, HttpClient, ReactorServer, Response, Router};
use hyrec_server::{HyRecConfig, HyRecServer, JobEncoder, OnlineIdeal};
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
    // Warm KNN table: k distinct random neighbours per user, kept in draw
    // order. Every similarity is equal, so this order is the stored
    // neighbourhood's order, and with it the candidate order of every job.
    for &user in &users {
        let want = k.min(n_users.saturating_sub(1));
        let mut picks = Vec::with_capacity(want);
        while picks.len() < want {
            let v = users[rng.gen_range(0..users.len())];
            if v != user && !picks.contains(&v) {
                picks.push(v);
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
    // Warm the fragment cache once (steady-state behaviour).
    warm_cache(population, 64);
    sample_response(population, requests, seed, |user| {
        let job = population.server.build_job(user);
        population.encoder.encode(&job)
    })
}

/// Figure 8, CRec series: the same candidate sampling, then Algorithm 2
/// computed **on the server**, then the (small) result encoded.
#[must_use]
pub fn measure_crec_response(population: &Population, requests: usize, seed: u64) -> LatencyStats {
    sample_response(population, requests, seed, |user| {
        let job = population.server.build_job(user);
        let recs = recommend::most_popular(&job.profile, job.candidates.profiles(), job.r);
        hyrec_wire::gzip::compress_with(
            recs_json(&recs).as_bytes(),
            hyrec_wire::deflate::lz77::Effort::FAST,
        )
    })
}

/// Figure 8, Online-Ideal series: brute-force KNN per request.
#[must_use]
pub fn measure_online_ideal_response(
    population: &Population,
    requests: usize,
    seed: u64,
) -> LatencyStats {
    sample_response(population, requests, seed, |user| {
        let ideal = OnlineIdeal::new(population.server.profiles(), hyrec_core::Cosine, 10);
        recs_json(&ideal.recommend(user, 10))
    })
}

/// The Figure 8 sampling loop: `requests` (at least one) users drawn
/// uniformly from a `seed`ed RNG, each timed around one `serve` call. The
/// result is kept alive past the clock read so the work is not optimized
/// away.
fn sample_response<T>(
    population: &Population,
    requests: usize,
    seed: u64,
    mut serve: impl FnMut(UserId) -> T,
) -> LatencyStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..requests.max(1))
        .map(|_| {
            let user = population.users[rng.gen_range(0..population.users.len())];
            let start = Instant::now();
            let out = serve(user);
            let elapsed = start.elapsed();
            std::hint::black_box(out);
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

/// Builds the HTTP router for the Figure 9 concurrency experiment: the
/// API router over the population (HyRec's `/online/`: sampling + the
/// population's fragment-cache encoder) with every route scalar, plus
/// `/crecommend/` (CRec: sampling, then Algorithm 2 on the server).
#[must_use]
pub fn benchmark_router(population: &Population) -> Router {
    let mut router = api::hyrec_router_with(
        Arc::clone(&population.server),
        Arc::clone(&population.encoder),
        BatchPolicy::scalar(),
    );
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

/// Convenience: spin up a server over [`benchmark_router`] with `shards`
/// reactor shards (each runs its own connections' handlers) and return
/// (handle, addr).
#[must_use]
pub fn spawn_benchmark_server(
    population: &Population,
    shards: usize,
) -> (hyrec_http::reactor::ReactorHandle, std::net::SocketAddr) {
    let server = ReactorServer::bind("127.0.0.1:0", shards).expect("bind benchmark server");
    let addr = server.local_addr();
    let handle = server.serve(benchmark_router(population));
    (handle, addr)
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
    fn population_is_the_same_for_the_same_seed() {
        let (a, b) = (build_population(60, 8, 5, 7), build_population(60, 8, 5, 7));
        for &user in &a.users {
            assert_eq!(a.server.knn_of(user), b.server.knn_of(user), "{user}");
            assert_eq!(
                a.server.build_job(user).gzip_bytes(),
                b.server.build_job(user).gzip_bytes(),
                "{user}"
            );
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
    fn latency_stats_percentiles() {
        let stats = LatencyStats::from_samples((1..=100).map(Duration::from_millis).collect());
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.p50, Duration::from_millis(51));
        assert!(stats.p95 >= Duration::from_millis(95));
        assert!(stats.mean > Duration::from_millis(45));
    }

    /// Tallies of a churn loop: `/online/` fetches answered 200,
    /// completions answered 200 and 409, jobs abandoned, hard failures.
    #[derive(Debug, Default)]
    struct Churn {
        fetched: usize,
        completed: usize,
        superseded: usize,
        abandoned: usize,
        errors: usize,
    }

    /// `clients` keep-alive connections each run `per_client` browser
    /// interactions: fetch a job, then with probability `abandon` vanish,
    /// otherwise post a completion echoing the job's lease.
    fn churn_loop(
        addr: std::net::SocketAddr,
        users: usize,
        clients: usize,
        per_client: usize,
        abandon: f64,
        seed: u64,
    ) -> Churn {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let client = HttpClient::new(addr).with_timeout(Duration::from_secs(60));
                    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37));
                    let mut out = Churn::default();
                    for _ in 0..per_client {
                        let uid = rng.gen_range(0..users);
                        let job = match client.get(&format!("/online/?uid={uid}")) {
                            Ok(response) if response.status == 200 => {
                                hyrec_wire::PersonalizationJob::decode(&response.body).ok()
                            }
                            _ => None,
                        };
                        let Some(job) = job else {
                            out.errors += 1;
                            continue;
                        };
                        out.fetched += 1;
                        if rng.gen_bool(abandon) {
                            out.abandoned += 1;
                            continue;
                        }
                        let update = hyrec_wire::KnnUpdate {
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
                            Ok(response) if response.status == 200 => out.completed += 1,
                            Ok(response) if response.status == 409 => out.superseded += 1,
                            _ => out.errors += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .fold(Churn::default(), |mut total, thread| {
                let part = thread.join().expect("churn client thread panicked");
                total.fetched += part.fetched;
                total.completed += part.completed;
                total.superseded += part.superseded;
                total.abandoned += part.abandoned;
                total.errors += part.errors;
                total
            })
    }

    #[test]
    fn churn_loop_drives_scheduled_and_plain_routers() {
        use hyrec_http::{api, BatchPolicy};
        use hyrec_sched::SchedConfig;
        use hyrec_server::ScheduledServer;

        let population = build_population(40, 10, 3, 6);
        // Scheduled: leases enforced, abandonment recovered by the sweeper.
        let scheduled = Arc::new(ScheduledServer::new(
            Arc::clone(&population.server),
            SchedConfig {
                lease_timeout: 50,
                max_reissues: 1,
                ..SchedConfig::default()
            },
        ));
        let server = ReactorServer::bind("127.0.0.1:0", 2).expect("bind scheduled reactor");
        let addr = server.local_addr();
        let stats = server.stats_handle();
        let handle = server.serve(api::hyrec_scheduled_router(
            Arc::clone(&scheduled),
            Arc::clone(&population.encoder),
            BatchPolicy::default(),
            Some(stats),
        ));
        let sweeper = scheduled.spawn_sweeper(Duration::from_millis(20));
        let churn = churn_loop(addr, 40, 4, 6, 0.5, 11);
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

        // The same loop against the unleased router: lease fields are zero
        // and every posted completion lands (no 409s possible).
        let server = ReactorServer::bind("127.0.0.1:0", 2).expect("bind reactor");
        let addr = server.local_addr();
        let handle = server.serve(api::hyrec_router_with(
            Arc::clone(&population.server),
            Arc::clone(&population.encoder),
            BatchPolicy::default(),
        ));
        let plain = churn_loop(addr, 40, 4, 6, 0.25, 12);
        assert_eq!(plain.fetched, 24);
        assert_eq!(plain.errors, 0, "{plain:?}");
        assert_eq!(plain.superseded, 0, "{plain:?}");
        handle.stop();
    }

    #[test]
    fn closed_loop_over_real_http() {
        let population = build_population(40, 10, 3, 6);
        let (handle, addr) = spawn_benchmark_server(&population, 4);
        let stats = closed_loop(addr, "/online/", 40, 4, 5);
        assert_eq!(stats.samples, 20);
        assert!(stats.mean > Duration::ZERO);
        let stats = closed_loop(addr, "/crecommend/", 40, 2, 5);
        assert_eq!(stats.samples, 10);
        handle.stop();
    }
}
