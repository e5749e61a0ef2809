//! `Widget::run_job` on the synthetic jobs of Figures 12–13 agrees with a
//! naive Algorithm 2 and with `knn::select` for Algorithm 1.

use hyrec_client::Widget;
use hyrec_core::{knn, Cosine, ItemId, Profile, Recommendation};
use hyrec_sim::device::synthetic_job;
use hyrec_wire::KnnUpdate;

/// Naive Algorithm 2: flatten, sort, count runs, drop the exposure, order
/// by (count desc, id asc), truncate.
fn reference<'a>(
    me: &Profile,
    pool: impl Iterator<Item = &'a Profile>,
    r: usize,
) -> Vec<Recommendation> {
    let mut items: Vec<ItemId> = pool.flat_map(Profile::liked).collect();
    items.sort_unstable();
    let mut recs: Vec<Recommendation> = Vec::new();
    for item in items {
        match recs.last_mut() {
            Some(last) if last.item == item => last.popularity += 1,
            _ => recs.push(Recommendation {
                item,
                popularity: 1,
            }),
        }
    }
    recs.retain(|rec| !me.contains(rec.item));
    recs.sort_by(|a, b| b.popularity.cmp(&a.popularity).then(a.item.cmp(&b.item)));
    recs.truncate(r);
    recs
}

#[test]
fn run_job_matches_the_reference_algorithms() {
    let widget = Widget::new();
    for job in [synthetic_job(100, 10, 120), synthetic_job(500, 20, 440)] {
        let out = widget.run_job(&job);
        let expect = reference(&job.profile, job.candidates.profiles(), job.r);
        assert_eq!(expect.len(), job.r);
        assert_eq!(out.recommendations, expect);

        let hood = knn::select(&job.profile, job.candidates.pairs(), job.k, &Cosine);
        let update = KnnUpdate::from_neighborhood(job.uid, &hood).with_lease(job.lease, job.epoch);
        assert_eq!(out.update, update);
    }
}
