//! Figure 9: response time under growing concurrency.
//!
//! Closed-loop clients against the real HTTP stack: one epoll reactor
//! serving the API's `/online/` route and a `/crecommend/` route, both
//! scalar, so every request is one job on a fixed worker pool. `/online/`
//! runs the server's one job builder on a batch of one, the code a lone
//! request runs in deployment. Paper: HyRec serves as many
//! concurrent requests at ps=1000 as CRec at ps=10 (a 100-fold
//! scalability gain); both degrade as the worker pool saturates.

use crate::{banner, header, RunOptions};
use hyrec_sim::load::{build_population, closed_loop, spawn_benchmark_server};

/// Runs the Figure 9 regeneration.
pub fn run(options: &RunOptions) {
    banner(
        "Figure 9",
        "Avg response time vs concurrent clients (paper: HyRec sustains ~100x the load)",
    );
    let users = 500;
    let workers = 8;
    let clients_axis: &[usize] = if options.full {
        &[1, 2, 5, 10, 20, 50, 100, 200, 400]
    } else {
        &[1, 2, 5, 10, 20, 50]
    };
    let requests_per_client = if options.full { 20 } else { 10 };
    println!(
        "({users} users, 1 reactor + {workers} workers, scalar routes, {requests_per_client} req/client)"
    );

    header(&[
        "clients",
        "hyrec-ps10(ms)",
        "hyrec-ps100(ms)",
        "crec-ps10(ms)",
        "crec-ps100(ms)",
    ]);
    let mut rows: Vec<[f64; 4]> = Vec::new();
    for &clients in clients_axis {
        let mut row = [0.0f64; 4];
        for (i, (ps, path)) in [
            (10usize, "/online/"),
            (100, "/online/"),
            (10, "/crecommend/"),
            (100, "/crecommend/"),
        ]
        .iter()
        .enumerate()
        {
            let population = build_population(users, *ps, 10, options.seed + i as u64);
            let (handle, addr) = spawn_benchmark_server(&population, workers);
            let stats = closed_loop(addr, path, users, clients, requests_per_client);
            row[i] = stats.mean.as_secs_f64() * 1e3;
            handle.stop();
        }
        println!(
            "{clients}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            row[0], row[1], row[2], row[3]
        );
        rows.push(row);
    }
    if let Some(last) = rows.last() {
        println!(
            "# at max concurrency: HyRec ps=100 {:.1}ms vs CRec ps=100 {:.1}ms (paper: HyRec sustains far more)",
            last[1], last[3]
        );
    }
}
