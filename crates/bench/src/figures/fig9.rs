//! Figure 9: response time under growing concurrency.
//!
//! Closed-loop clients against the real HTTP stack: eight epoll reactor
//! shards serving the API's `/online/` route and a `/crecommend/` route,
//! both scalar, so every request runs alone on the shard that owns its
//! connection, and a slow request holds up that shard's other
//! connections while it runs. `/online/` runs the server's one job builder
//! on a batch of one, the code a lone request runs in deployment. Paper:
//! HyRec serves as many concurrent requests at ps=1000 as CRec at ps=10 (a
//! 100-fold scalability gain); both degrade as the shards saturate.

use crate::{banner, header, RunOptions};
use hyrec_sim::load::{build_population, closed_loop, spawn_benchmark_server};

/// Runs the Figure 9 regeneration.
pub fn run(options: &RunOptions) {
    banner(
        "Figure 9",
        "Avg response time vs concurrent clients (paper: HyRec sustains ~100x the load)",
    );
    let users = 500;
    let shards = 8;
    let clients_axis: &[usize] = if options.full {
        &[1, 2, 5, 10, 20, 50, 100, 200, 400]
    } else {
        &[1, 2, 5, 10, 20, 50]
    };
    // At least 2,000 timed requests per cell, so a cell's median holds
    // still between runs even at one client.
    let floor = if options.full { 20 } else { 10 };
    println!(
        "({users} users, {shards} reactor shards, scalar routes, \
         max({floor}, 2000 / clients) req/client; mean and p50 per cell)"
    );

    header(&[
        "clients",
        "hyrec-ps10(ms)",
        "p50",
        "hyrec-ps100(ms)",
        "p50",
        "crec-ps10(ms)",
        "p50",
        "crec-ps100(ms)",
        "p50",
    ]);
    // Per cell: (mean, p50) in milliseconds.
    let mut rows: Vec<[(f64, f64); 4]> = Vec::new();
    for &clients in clients_axis {
        let requests_per_client = floor.max(2000usize.div_ceil(clients));
        let mut row = [(0.0f64, 0.0f64); 4];
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
            let (handle, addr) = spawn_benchmark_server(&population, shards);
            let stats = closed_loop(addr, path, users, clients, requests_per_client);
            row[i] = (
                stats.mean.as_secs_f64() * 1e3,
                stats.p50.as_secs_f64() * 1e3,
            );
            handle.stop();
        }
        print!("{clients}");
        for (mean, p50) in row {
            print!("\t{mean:.2}\t{p50:.2}");
        }
        println!();
        rows.push(row);
    }
    if let Some(last) = rows.last() {
        println!(
            "# at max concurrency: p50 HyRec ps=100 {:.2}ms vs CRec ps=100 {:.2}ms (paper: HyRec sustains far more)",
            last[1].1, last[3].1
        );
    }
}
