//! Digg-style personalized news feed with item churn and user churn.
//!
//! News stories age out fast and users drop in for short sessions — the
//! dynamic setting the paper argues offline back-ends handle poorly. This
//! example runs a Digg-shaped workload with a custom widget configuration
//! (Jaccard similarity and a serendipity-leaning recommendation policy —
//! the Table 1 customization hooks):
//!
//! ```text
//! cargo run --release --example news_feed
//! ```

use hyrec::client::{Serendipity, Widget};
use hyrec::core::Jaccard;
use hyrec::datasets::{DatasetSpec, TraceGenerator};
use hyrec::prelude::*;

fn main() {
    let spec = DatasetSpec::DIGG.scaled(0.02);
    println!("== generating workload: {spec}");
    let trace = TraceGenerator::new(spec, 9).generate().binarize();

    // Content providers can swap both widget hooks (Table 1).
    let server = HyRecServer::builder().k(10).r(10).seed(3).build();
    let widget = Widget::builder()
        .similarity(Jaccard)
        .policy(Serendipity::default())
        .build();
    println!(
        "== widget hooks: similarity={}, policy={}",
        widget.similarity_name(),
        widget.policy_name()
    );

    let mut jobs = 0u64;
    let mut wire_bytes = 0u64;
    for event in trace.iter() {
        server.record(event.user, event.item, event.vote);
        let job = server.build_job(event.user);
        let out = widget.run_job(&job);
        wire_bytes += job.gzip_bytes() as u64 + out.update.encode().len() as u64;
        server.apply_update(&out.update);
        jobs += 1;
    }

    let users = trace.user_ids().len();
    println!("== replayed {jobs} feed requests from {users} users");
    println!(
        "   average view similarity: {:.3}",
        server.average_view_similarity()
    );
    println!(
        "   bandwidth per user over 2 weeks: {:.1} kB (paper: ~8 kB on Digg)",
        wire_bytes as f64 / users as f64 / 1e3
    );

    // Show one user's feed.
    let user = trace.user_ids()[users / 2];
    let job = server.build_job(user);
    let out = widget.run_job(&job);
    println!("== serendipitous feed for {user}:");
    for rec in out.recommendations.iter().take(5) {
        println!("   story {} (popularity {})", rec.item, rec.popularity);
    }
}
