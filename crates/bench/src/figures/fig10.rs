//! Figure 10: personalization-job message size vs profile size.
//!
//! Paper: raw JSON grows ~linearly with profile size; gzip keeps it under
//! 10 kB even at ps=500 (~71% compression).
//!
//! `gzip(kB)` compresses each job as one stream; `shipped(kB)` is the body
//! the server actually sends, assembled by the job encoder from cached
//! per-candidate chunks. The shipped body is larger: every chunk carries
//! its own block header and sync-flush marker, is compressed with the fast
//! matcher, and cannot refer back into other chunks.

use crate::{banner, header, RunOptions};
use hyrec_sim::load::build_population;

/// Runs the Figure 10 regeneration.
pub fn run(options: &RunOptions) {
    banner(
        "Figure 10",
        "Job message size vs profile size (paper: <10kB gzipped at ps=500, ~71% compression)",
    );
    let users = 500;
    println!("({users} users, k=10, worst-case candidate sets)");
    header(&[
        "profile-size",
        "json(kB)",
        "gzip(kB)",
        "shipped(kB)",
        "compression",
        "candidates",
    ]);
    for ps in [10usize, 50, 100, 200, 300, 400, 500] {
        let population = build_population(users, ps, 10, options.seed);
        // Average over a few users for stability.
        let mut json_total = 0usize;
        let mut gzip_total = 0usize;
        let mut shipped_total = 0usize;
        let mut cands = 0usize;
        let samples = 8;
        for i in 0..samples {
            let job = population.server.build_job(population.users[i * 7]);
            json_total += job.json_bytes();
            gzip_total += job.gzip_bytes();
            shipped_total += population.encoder.encode(&job).len();
            cands += job.candidates.len();
        }
        let json = json_total as f64 / samples as f64 / 1024.0;
        let gz = gzip_total as f64 / samples as f64 / 1024.0;
        let shipped = shipped_total as f64 / samples as f64 / 1024.0;
        println!(
            "{ps}\t{json:.1}\t{gz:.1}\t{shipped:.1}\t{:.0}%\t{}",
            100.0 * (1.0 - gz / json),
            cands / samples
        );
    }
    println!("# paper shape: linear json growth; gzip ~70% smaller");
}
