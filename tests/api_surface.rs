//! Table 1 surface: the web API plus every customization hook, exercised
//! from outside the workspace crates exactly as a content provider would.

use hyrec::client::{RecommendationPolicy, Widget};
use hyrec::http::{api, HttpClient, ReactorServer};
use hyrec::prelude::*;
use hyrec::server::sampler::{random_slots, Sampler, SamplerContext};
use hyrec_core::{CandidateSet, Recommendation};
use std::sync::Arc;

/// A downstream similarity metric (the `setSimilarity()` hook).
#[derive(Debug, Clone, Copy)]
struct SharedItems;

impl Similarity for SharedItems {
    fn score(&self, a: &Profile, b: &Profile) -> f64 {
        // Raw overlap count squashed into [0, 1].
        let shared = a.liked_intersection_len(b) as f64;
        shared / (1.0 + shared)
    }

    fn name(&self) -> &'static str {
        "shared-items"
    }
}

/// A downstream recommendation policy (the `setRecommendedItems()` hook).
#[derive(Debug, Clone, Copy)]
struct FirstSeen;

impl RecommendationPolicy for FirstSeen {
    fn recommend(
        &self,
        profile: &Profile,
        candidates: &CandidateSet,
        r: usize,
    ) -> Vec<Recommendation> {
        let mut out = Vec::new();
        for c in candidates.iter() {
            for item in c.profile.liked() {
                if !profile.contains(item)
                    && !out.iter().any(|rec: &Recommendation| rec.item == item)
                {
                    out.push(Recommendation {
                        item,
                        popularity: 1,
                    });
                    if out.len() == r {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "first-seen"
    }
}

/// A downstream sampler (Table 1's server-side `Sampler` interface):
/// neighbours only, no 2-hop.
#[derive(Debug, Clone, Copy)]
struct OneHopSampler;

impl Sampler for OneHopSampler {
    fn sample(
        &self,
        user: UserId,
        _k: usize,
        random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut rand::rngs::StdRng,
    ) -> CandidateSet {
        let mut set = CandidateSet::new();
        if let Some(hood) = ctx.table.knn_of(user) {
            for v in hood.users() {
                if let Some(p) = ctx.table.profile_of(v) {
                    set.insert(v, p);
                }
            }
        }
        let view = ctx.table.read();
        for slot in random_slots(&view, random_candidates, rng) {
            let v = view.id(slot);
            if v != user {
                set.insert(v, std::sync::Arc::clone(view.profile(slot)));
            }
        }
        set
    }

    fn name(&self) -> &'static str {
        "one-hop"
    }
}

#[test]
fn custom_hooks_compose_end_to_end() {
    let config = HyRecConfig::builder()
        .k(3)
        .r(4)
        .anonymize_users(false)
        .seed(2)
        .build();
    let server = hyrec::server::HyRecServer::with_sampler(config, OneHopSampler);
    let widget = Widget::builder()
        .similarity(SharedItems)
        .policy(FirstSeen)
        .build();
    assert_eq!(widget.similarity_name(), "shared-items");
    assert_eq!(widget.policy_name(), "first-seen");

    for u in 0..20u32 {
        for i in 0..5u32 {
            server.record(UserId(u), ItemId((u % 2) * 50 + i), Vote::Like);
        }
    }
    for _ in 0..4 {
        for u in 0..20u32 {
            let job = server.build_job(UserId(u));
            let out = widget.run_job(&job);
            server.apply_update(&out.update);
        }
    }
    // Custom metric still clusters the two taste groups.
    let hood = server.knn_of(UserId(0)).expect("knn");
    assert!(!hood.is_empty());
    for n in hood.iter() {
        assert_eq!(n.user.0 % 2, 0, "wrong group neighbour {}", n.user);
    }
}

#[test]
fn web_api_covers_table_1() {
    let hyrec = Arc::new(
        hyrec::server::HyRecServer::builder()
            .k(3)
            .r(5)
            .anonymize_users(false)
            .seed(5)
            .build(),
    );
    for u in 0..10u32 {
        for i in 0..4u32 {
            hyrec.record(UserId(u), ItemId(i), Vote::Like);
        }
    }
    let server = ReactorServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr();
    let handle = server.serve(api::hyrec_router(Arc::clone(&hyrec)));
    let client = HttpClient::new(addr);

    // Row 1: client request.
    let response = client.get("/online/?uid=3").expect("online");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-encoding"), Some("gzip"));
    let job = PersonalizationJob::decode(&response.body).expect("job decodes");
    assert_eq!(job.uid, UserId(3));

    // Row 2: update KNN selection (GET form with indexed params).
    let response = client
        .get("/neighbors/?uid=3&id0=1&sim0=0.8&id1=2&sim1=0.6")
        .expect("neighbors");
    assert_eq!(response.status, 200);
    let hood = hyrec.knn_of(UserId(3)).expect("stored");
    assert_eq!(hood.len(), 2);
    assert_eq!(hood.best().unwrap().user, UserId(1));

    // Profile updates flow through /rate/.
    let response = client.get("/rate/?uid=3&item=77&like=1").expect("rate");
    assert_eq!(response.status, 200);
    assert!(hyrec.profile_of(UserId(3)).unwrap().likes(ItemId(77)));

    handle.stop();
}
