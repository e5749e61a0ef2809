//! HTTP front-end load harness.
//!
//! * `http_load bench` — measures closed-loop `/online/` throughput of
//!   three route configurations on the reactor front-end at several
//!   concurrency levels and prints `BENCH_http.json`-style lines to
//!   stdout:
//!   * `seed-scalar` — the seed's per-request work: scalar `/online/`
//!     re-gzipping the whole job per request.
//!   * `scalar-cached` — scalar `/online-fast/`, served through the
//!     fragment-cache encoder (batch of one).
//!   * `reactor-coalesced` — `/online/` gathering concurrent requests
//!     into `build_jobs` + `encode_jobs` batches.
//!
//!   All three series run in `Connection: close` mode so the numbers stay
//!   comparable with the recorded `BENCH_http.json` history.
//! * `http_load bench-keepalive` — the connection-lifetime experiment:
//!   the reactor front-end driven closed-loop over `/online/` in
//!   `Connection: close` vs keep-alive mode at 64–1024 connections
//!   (`BENCH_keepalive.json`).
//! * `http_load bench-sharded` — the multi-reactor experiment: keep-alive
//!   load against a 1-reactor front-end vs one sharded across `--reactors`
//!   event loops (default 4) over the same total worker count
//!   (`BENCH_sharded.json`). On a single-core box the two should tie —
//!   the point of recording it is the multi-core rerun.
//! * `http_load bench-churn` — the job-lifecycle experiment: the full
//!   browser loop (fetch a job, abandon it with `--abandon` probability,
//!   otherwise post the completion) against the lease-free and the leased
//!   (scheduled) reactor front-end (`BENCH_sched.json`). `--smoke`
//!   shrinks it to a CI gate asserting zero hard errors.
//! * `http_load smoke` — CI gate: fires a few hundred concurrent requests
//!   at the reactor front-end, asserts every response is 200 and that the
//!   server drains cleanly on shutdown.
//!
//! Flags: `--keep-alive` switches the smoke clients to persistent
//! connections; `--requests-per-conn N` rotates each persistent client
//! connection after `N` requests (exercising the reconnect path);
//! `--reactors N` shards the server under test across `N` reactor event
//! loops (smoke additionally asserts the shards all saw traffic).
//!
//! ```text
//! cargo run --release -p hyrec-bench --bin http_load -- bench > BENCH_http.json
//! cargo run --release -p hyrec-bench --bin http_load -- bench-keepalive > BENCH_keepalive.json
//! cargo run --release -p hyrec-bench --bin http_load -- bench-sharded --reactors 4 > BENCH_sharded.json
//! cargo run --release -p hyrec-bench --bin http_load -- smoke --keep-alive --reactors 4
//! ```

use hyrec_http::{BatchPolicy, ReactorServer};
use hyrec_sched::SchedConfig;
use hyrec_sim::load::{
    build_population, measure_churn_loop, measure_throughput_with, seed_frontend_router,
    spawn_benchmark_server, spawn_reactor_server, spawn_scheduled_reactor_server,
    spawn_sharded_reactor_server, warm_cache, ChurnLoad, LoadOptions, Population, Throughput,
};
use std::sync::Arc;
use std::time::Duration;

/// Users in the benchmark population.
const USERS: usize = 2_000;
/// Liked items per user profile.
const PROFILE_SIZE: usize = 60;
/// Neighbourhood size.
const K: usize = 10;
/// Worker threads behind the scalar series' reactor.
const POOL_WORKERS: usize = 8;
/// Worker threads behind the reactor's event loop.
const REACTOR_WORKERS: usize = 4;
/// Total requests targeted per series (split across the clients).
const TARGET_REQUESTS: usize = 2_048;

/// Parsed command line: mode + connection knobs. `reactors` stays `None`
/// unless the flag was given, so each mode can pick its own default
/// (1 for smoke, 4 for bench-sharded) while an explicit `--reactors 1` is
/// still honoured.
struct Args {
    mode: String,
    keep_alive: bool,
    requests_per_conn: usize,
    reactors: Option<usize>,
    /// Base browser-abandonment probability for `bench-churn`.
    abandon: f64,
    /// Shrinks `bench-churn` to a CI-sized smoke run that asserts zero
    /// errors instead of recording a benchmark series.
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: "bench".to_owned(),
        keep_alive: false,
        requests_per_conn: 0,
        reactors: None,
        abandon: 0.3,
        smoke: false,
    };
    let mut raw = std::env::args().skip(1);
    let mut mode_seen = false;
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--keep-alive" => args.keep_alive = true,
            "--requests-per-conn" => {
                let value = raw
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--requests-per-conn needs a number");
                        std::process::exit(2);
                    });
                args.requests_per_conn = value;
                // Rotating connections implies keeping them alive between
                // rotations.
                args.keep_alive = true;
            }
            "--abandon" => {
                let value = raw
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|p| (0.0..=1.0).contains(p))
                    .unwrap_or_else(|| {
                        eprintln!("--abandon needs a probability in [0, 1]");
                        std::process::exit(2);
                    });
                args.abandon = value;
            }
            "--smoke" => args.smoke = true,
            "--reactors" => {
                let value = raw
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--reactors needs a number ≥ 1");
                        std::process::exit(2);
                    });
                args.reactors = Some(value);
            }
            mode if !mode_seen => {
                args.mode = mode.to_owned();
                mode_seen = true;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // `bench` and `bench-keepalive` pin their front-end configuration for
    // cross-PR comparability; refusing the flag beats silently recording a
    // 1-reactor run the user believes was sharded.
    if args.reactors.is_some() && matches!(args.mode.as_str(), "bench" | "bench-keepalive") {
        eprintln!(
            "--reactors is not supported by `{}` (use `bench-sharded` or `smoke`)",
            args.mode
        );
        std::process::exit(2);
    }
    match args.mode.as_str() {
        "bench" => bench(),
        "bench-keepalive" => bench_keepalive(args.requests_per_conn),
        "bench-sharded" => bench_sharded(&args),
        "bench-churn" => bench_churn(&args),
        "smoke" => smoke(&args),
        other => {
            eprintln!(
                "unknown mode `{other}` (expected `bench`, `bench-keepalive`, \
                 `bench-sharded`, `bench-churn` or `smoke`)"
            );
            std::process::exit(2);
        }
    }
}

/// Splits the worker budget across `reactors` shards (at least one worker
/// per shard — so past `REACTOR_WORKERS` shards the total grows with the
/// shard count; `bench-sharded` sizes its baseline off the same product to
/// keep the two series at equal total compute regardless).
fn workers_per_reactor(reactors: usize) -> usize {
    (REACTOR_WORKERS / reactors.max(1)).max(1)
}

fn emit(id: &str, clients: usize, result: &Throughput) {
    println!(
        "{{\"group\":\"http-load\",\"id\":\"{id}/{clients}\",\"clients\":{clients},\
         \"ok\":{},\"errors\":{},\"elapsed_ms\":{:.1},\"rps\":{:.1}}}",
        result.ok,
        result.errors,
        result.elapsed.as_secs_f64() * 1e3,
        result.rps,
    );
    eprintln!(
        "  {id:>20} @ {clients:>4} clients: {:>8.1} req/s ({} ok, {} err, {:.1} ms)",
        result.rps,
        result.ok,
        result.errors,
        result.elapsed.as_secs_f64() * 1e3
    );
}

fn bench_population() -> Population {
    eprintln!("building {USERS}-user population (profile size {PROFILE_SIZE}, k={K})…");
    let population = build_population(USERS, PROFILE_SIZE, K, 42);
    eprintln!("warming the fragment cache…");
    warm_cache(&population, USERS);
    population
}

/// The reactor's coalescing policy for throughput runs. A 64-job cap keeps
/// batches inside the workers' sweet spot (bigger caps serialize too much
/// encode work behind one worker).
fn bench_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch: 64,
        gather_window: Duration::from_millis(1),
    }
}

fn bench() {
    let population = bench_population();
    for clients in [64usize, 256, 1024] {
        let per_client = (TARGET_REQUESTS / clients).max(2);
        eprintln!("== {clients} concurrent connections ({per_client} requests each)");

        // Baseline: the seed's scalar /online/ route.
        let seed = ReactorServer::bind("127.0.0.1:0", POOL_WORKERS).expect("bind seed server");
        let addr = seed.local_addr();
        let handle = seed.serve(seed_frontend_router(Arc::clone(&population.server)));
        let result = measure_throughput_with(
            addr,
            "/online/",
            USERS,
            clients,
            per_client,
            LoadOptions::close_per_request(),
        );
        emit("seed-scalar", clients, &result);
        handle.stop();

        // Scalar again, cached encoder (isolates the encoder win from the
        // coalescing win).
        let (handle, addr) = spawn_benchmark_server(&population, POOL_WORKERS);
        let result = measure_throughput_with(
            addr,
            "/online-fast/",
            USERS,
            clients,
            per_client,
            LoadOptions::close_per_request(),
        );
        emit("scalar-cached", clients, &result);
        handle.stop();

        // The reactor + coalescing front-end.
        let (handle, addr) = spawn_reactor_server(&population, REACTOR_WORKERS, bench_policy());
        let result = measure_throughput_with(
            addr,
            "/online/",
            USERS,
            clients,
            per_client,
            LoadOptions::close_per_request(),
        );
        let stats = handle.stats();
        eprintln!(
            "  {:>20}   coalescing: {} requests in {} batches (mean {:.1}/flush)",
            "",
            stats.batched_requests(),
            stats.batches(),
            stats.batched_requests() as f64 / stats.batches().max(1) as f64
        );
        emit("reactor-coalesced", clients, &result);
        handle.stop();
    }
}

/// Keep-alive vs `Connection: close` on the reactor front-end — the
/// experiment behind `BENCH_keepalive.json`. Per-client request counts are
/// raised above the plain bench so connection reuse has something to
/// amortize.
fn bench_keepalive(requests_per_conn: usize) {
    let population = bench_population();
    for clients in [64usize, 256, 1024] {
        let per_client = (2 * TARGET_REQUESTS / clients).max(4);
        eprintln!("== {clients} concurrent connections ({per_client} requests each)");

        let (handle, addr) = spawn_reactor_server(&population, REACTOR_WORKERS, bench_policy());
        let result = measure_throughput_with(
            addr,
            "/online/",
            USERS,
            clients,
            per_client,
            LoadOptions::close_per_request(),
        );
        emit("reactor-close", clients, &result);
        handle.stop();

        let (handle, addr) = spawn_reactor_server(&population, REACTOR_WORKERS, bench_policy());
        let result = measure_throughput_with(
            addr,
            "/online/",
            USERS,
            clients,
            per_client,
            LoadOptions::persistent(requests_per_conn),
        );
        let stats = handle.stats();
        eprintln!(
            "  {:>20}   reuse: {} requests over {} connections (mean {:.1}/conn), \
             {} batched in {} flushes",
            "",
            stats.requests(),
            stats.connections(),
            stats.requests() as f64 / stats.connections().max(1) as f64,
            stats.batched_requests(),
            stats.batches(),
        );
        emit("reactor-keepalive", clients, &result);
        handle.stop();
    }
}

/// 1 reactor vs `--reactors` N (default 4) under keep-alive load — the
/// experiment behind `BENCH_sharded.json`. Both series run the same total
/// worker count; on a single-core container the kernel time-slices the
/// event loops onto one CPU, so parity is the expected result here and the
/// series exists to be re-run on a many-core box.
fn bench_sharded(args: &Args) {
    let reactors = args.reactors.unwrap_or(4);
    // The baseline runs the *same total* worker count as the sharded
    // series (which is reactors × workers_per_reactor, possibly more than
    // REACTOR_WORKERS when reactors exceed it), so the comparison isolates
    // the front-end architecture, not pool sizing.
    let total_workers = reactors * workers_per_reactor(reactors);
    let population = bench_population();
    for clients in [64usize, 256, 1024] {
        let per_client = (2 * TARGET_REQUESTS / clients).max(4);
        eprintln!("== {clients} concurrent connections ({per_client} requests each)");

        let (handle, addr) =
            spawn_sharded_reactor_server(&population, 1, total_workers, bench_policy());
        let result = measure_throughput_with(
            addr,
            "/online/",
            USERS,
            clients,
            per_client,
            LoadOptions::persistent(0),
        );
        emit("reactor-x1", clients, &result);
        handle.stop();

        let (handle, addr) = spawn_sharded_reactor_server(
            &population,
            reactors,
            workers_per_reactor(reactors),
            bench_policy(),
        );
        let result = measure_throughput_with(
            addr,
            "/online/",
            USERS,
            clients,
            per_client,
            LoadOptions::persistent(0),
        );
        let stats = handle.stats();
        let spread: Vec<String> = stats
            .shards()
            .iter()
            .map(|shard| format!("{}c/{}r", shard.connections(), shard.requests()))
            .collect();
        eprintln!(
            "  {:>20}   shards: [{}], {} batched in {} flushes",
            "",
            spread.join(", "),
            stats.batched_requests(),
            stats.batches(),
        );
        emit(&format!("reactor-x{reactors}"), clients, &result);
        handle.stop();
    }
}

fn emit_churn(id: &str, clients: usize, abandon: f64, result: &ChurnLoad) {
    println!(
        "{{\"group\":\"http-churn\",\"id\":\"{id}/{clients}\",\"clients\":{clients},\
         \"abandon\":{abandon},\"fetched\":{},\"completed\":{},\"superseded\":{},\
         \"abandoned\":{},\"errors\":{},\"elapsed_ms\":{:.1},\"rps\":{:.1}}}",
        result.fetched,
        result.completed,
        result.superseded,
        result.abandoned,
        result.errors,
        result.elapsed.as_secs_f64() * 1e3,
        result.rps,
    );
    eprintln!(
        "  {id:>20} @ {clients:>4} clients: {:>8.1} fetch/s ({} fetched, {} completed, \
         {} superseded, {} abandoned, {} err)",
        result.rps,
        result.fetched,
        result.completed,
        result.superseded,
        result.abandoned,
        result.errors,
    );
}

/// Leases on vs leases off under the full browser loop (fetch → maybe
/// abandon → post completion) — the experiment behind `BENCH_sched.json`.
/// Both series run the *same* client behaviour against the same
/// population; the only difference is whether the server routes jobs
/// through the job-lifecycle scheduler. In `--smoke` mode the run shrinks
/// to CI size and asserts zero hard errors plus live churn recovery.
fn bench_churn(args: &Args) {
    let abandon = args.abandon;
    // Each series gets its own identically-seeded, identically-warmed
    // population: the plain run mutates KNN tables and the fragment cache,
    // so sharing one server would hand the second series warm state and
    // bias the overhead comparison.
    let build_series_population = || {
        if args.smoke {
            let population = build_population(200, 20, 5, 7);
            warm_cache(&population, 200);
            population
        } else {
            bench_population()
        }
    };
    let (clients_series, per_client) = if args.smoke {
        (vec![32usize], 6)
    } else {
        (vec![256usize], 16)
    };
    // Lease timeout sized to the environment: with hundreds of closed-loop
    // clients time-slicing one core, p95 completion latency runs seconds,
    // so a too-tight deadline would expire *in-flight* work and measure
    // recovery compute instead of lease bookkeeping. 10 s stays far below
    // the 60 s client timeout while keeping honest abandonment (which
    // never posts) recoverable right after the run.
    let sched_config = SchedConfig {
        lease_timeout: 10_000, // ms
        max_reissues: 2,
        ..SchedConfig::default()
    };
    for clients in clients_series {
        eprintln!(
            "== {clients} concurrent browsers ({per_client} interactions each, \
             {:.0}% abandonment)",
            abandon * 100.0
        );

        // Lease-free baseline: the plain coalescing router ignores lease
        // fields and applies whatever comes back.
        let population = build_series_population();
        let (handle, addr) = spawn_reactor_server(&population, REACTOR_WORKERS, bench_policy());
        let plain = measure_churn_loop(
            addr,
            population.users.len(),
            clients,
            per_client,
            abandon,
            42,
        );
        emit_churn("reactor-plain", clients, abandon, &plain);
        handle.stop();

        // Leases on: every job leased, completions validated, sweeper
        // recovering abandoned work in the background — over a fresh twin
        // population.
        let population = build_series_population();
        let (handle, addr, scheduled, sweeper) = spawn_scheduled_reactor_server(
            &population,
            REACTOR_WORKERS,
            bench_policy(),
            sched_config,
        );
        let leased = measure_churn_loop(
            addr,
            population.users.len(),
            clients,
            per_client,
            abandon,
            42,
        );
        let stats = scheduled.scheduler().stats().snapshot();
        eprintln!(
            "  {:>20}   sched: {} issued, {} completed, {} expired, {} reissued, \
             {} fallbacks, {} rejected",
            "",
            stats.issued,
            stats.completed,
            stats.expired,
            stats.reissued,
            stats.fallbacks,
            stats.rejected_total(),
        );
        emit_churn("reactor-leased", clients, abandon, &leased);
        sweeper.stop();
        handle.stop();

        let overhead = (plain.rps - leased.rps) / plain.rps.max(1e-9) * 100.0;
        eprintln!("  lease overhead at {clients} clients: {overhead:+.1}% fetch throughput");

        if args.smoke {
            assert_eq!(plain.errors, 0, "lease-free churn run had hard errors");
            assert_eq!(leased.errors, 0, "leased churn run had hard errors");
            assert_eq!(
                leased.fetched,
                clients * per_client,
                "every fetch must be served"
            );
            if abandon > 0.0 {
                assert!(leased.abandoned > 0, "smoke churn never abandoned a job");
            }
            eprintln!(
                "churn smoke ok: {} + {} interactions, zero errors",
                plain.fetched, leased.fetched
            );
        }
    }
}

fn smoke(args: &Args) {
    const CLIENTS: usize = 64;
    const PER_CLIENT: usize = 5;
    let reactors = args.reactors.unwrap_or(1);
    let options = if args.keep_alive {
        LoadOptions::persistent(args.requests_per_conn)
    } else {
        LoadOptions::close_per_request()
    };
    eprintln!(
        "http smoke: {CLIENTS} concurrent clients × {PER_CLIENT} requests ({}, {} reactor{})…",
        if args.keep_alive {
            "keep-alive"
        } else {
            "connection: close"
        },
        reactors,
        if reactors == 1 { "" } else { "s" },
    );
    let population = build_population(200, 20, 5, 7);
    let policy = BatchPolicy::default();
    let (handle, addr) = if reactors > 1 {
        spawn_sharded_reactor_server(&population, reactors, workers_per_reactor(reactors), policy)
    } else {
        spawn_reactor_server(&population, REACTOR_WORKERS, policy)
    };

    // Interleaved /rate/ and /online/ traffic.
    let rate = measure_throughput_with(
        addr,
        "/rate/?item=9000&like=1",
        200,
        CLIENTS,
        PER_CLIENT,
        options,
    );
    assert_eq!(
        (rate.ok, rate.errors),
        (CLIENTS * PER_CLIENT, 0),
        "rate traffic must be all-200"
    );
    let online = measure_throughput_with(addr, "/online/", 200, CLIENTS, PER_CLIENT, options);
    assert_eq!(
        (online.ok, online.errors),
        (CLIENTS * PER_CLIENT, 0),
        "online traffic must be all-200"
    );
    let served = handle.request_count();
    assert_eq!(
        served as usize,
        2 * CLIENTS * PER_CLIENT,
        "request accounting"
    );
    if args.keep_alive {
        let connections = handle.stats().connections();
        assert!(
            (connections as usize) < 2 * CLIENTS * PER_CLIENT,
            "keep-alive smoke opened one connection per request ({connections})"
        );
        eprintln!("  keep-alive reuse: {served} requests over {connections} connections");
    }
    if reactors > 1 {
        let stats = handle.stats();
        let shard_requests: u64 = stats.shards().iter().map(|s| s.requests()).sum();
        assert_eq!(
            shard_requests,
            stats.requests(),
            "per-shard request counts must sum to the aggregate"
        );
        let active = stats
            .shards()
            .iter()
            .filter(|s| s.connections() > 0)
            .count();
        assert!(
            active >= 2,
            "accept sharding left every connection on one of {reactors} shards"
        );
        let spread: Vec<String> = stats
            .shards()
            .iter()
            .map(|shard| format!("{}c/{}r", shard.connections(), shard.requests()))
            .collect();
        eprintln!("  shard spread: [{}]", spread.join(", "));
    }

    // Drain: stop() must return promptly with nothing left in flight.
    let start = std::time::Instant::now();
    handle.stop();
    let drain = start.elapsed();
    assert!(
        drain < Duration::from_secs(3),
        "shutdown took {drain:?}; drain is stuck"
    );
    eprintln!(
        "smoke ok: {} requests all 200 ({:.0} + {:.0} req/s), drained in {drain:?}",
        served, rate.rps, online.rps
    );
}
