//! Recommendation quality — the train/test protocol of Section 5.1 and
//! Figure 6.
//!
//! "We split each dataset into a training and a test set according to time.
//! … For each positive rating (liked item) r in the 20%, the associated
//! user requests a set of n recommendations ℜ. The recommendation-quality
//! metric counts the number of positive ratings for which the ℜ set
//! contains the corresponding item."
//!
//! The request happens *before* the rating is recorded (you recommend, then
//! observe whether the user indeed liked the item), and all four
//! architectures continue learning through the test phase exactly as they
//! would in production.

use hyrec_client::Widget;
use hyrec_core::UserTable;
use hyrec_core::{Profile, UserId, Vote};
use hyrec_datasets::Trace;
use hyrec_server::offline::{ExhaustiveBackend, OfflineBackend};
use hyrec_server::{CRecFrontEnd, HyRecConfig, HyRecServer, OnlineIdeal};
use std::collections::HashMap;

/// Hit counts per list length: `hits[n-1]` = number of positive test
/// ratings whose item appeared in the first `n` recommendations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityCurve {
    /// `hits[i]` is the count at list length `i + 1`.
    pub hits: Vec<u64>,
    /// Number of positive test ratings evaluated.
    pub positives: u64,
}

impl QualityCurve {
    fn new(max_n: usize) -> Self {
        Self {
            hits: vec![0; max_n],
            positives: 0,
        }
    }

    fn credit(&mut self, rank: Option<usize>) {
        self.positives += 1;
        if let Some(rank) = rank {
            for n in rank..self.hits.len() {
                self.hits[n] += 1;
            }
        }
    }

    /// Recall@n (fraction of positives hit at list length `n`).
    #[must_use]
    pub fn recall_at(&self, n: usize) -> f64 {
        if self.positives == 0 || n == 0 || n > self.hits.len() {
            return 0.0;
        }
        self.hits[n - 1] as f64 / self.positives as f64
    }
}

fn rank_of(recs: &[hyrec_core::Recommendation], item: hyrec_core::ItemId) -> Option<usize> {
    recs.iter().position(|r| r.item == item)
}

/// Figure 6, HyRec series: full loop through training, then request-check-
/// record through the test set.
#[must_use]
pub fn quality_hyrec(
    train: &Trace,
    test: &Trace,
    k: usize,
    max_n: usize,
    seed: u64,
) -> QualityCurve {
    let server = HyRecServer::with_config(HyRecConfig::builder().k(k).r(max_n).seed(seed).build());
    let widget = Widget::new();
    let run = |user: UserId| {
        let job = server.build_job(user);
        let out = widget.run_job(&job);
        server.apply_update(&out.update);
        out.recommendations
    };

    for event in train.iter() {
        server.record(event.user, event.item, event.vote);
        let _ = run(event.user);
    }

    let mut curve = QualityCurve::new(max_n);
    for event in test.iter() {
        if event.vote == Vote::Like {
            let recs = run(event.user);
            curve.credit(rank_of(&recs, event.item));
        }
        server.record(event.user, event.item, event.vote);
        let _ = run(event.user);
    }
    curve
}

/// Figure 6, Offline-Ideal series with recompute period `period` seconds:
/// profiles accumulate continuously, the KNN table refreshes periodically,
/// and the front-end serves recommendations from the frozen table.
#[must_use]
pub fn quality_offline(
    train: &Trace,
    test: &Trace,
    k: usize,
    max_n: usize,
    period: u64,
) -> QualityCurve {
    let backend = ExhaustiveBackend::default();
    let table = UserTable::new();
    let mut next_recompute = period;

    let advance = |now: u64, next_recompute: &mut u64| {
        while now >= *next_recompute {
            let hoods = backend.compute(&table.snapshot(), k);
            for (user, hood) in hoods {
                table.update(user, hood);
            }
            *next_recompute += period;
        }
    };

    for event in train.iter() {
        advance(event.time.0, &mut next_recompute);
        table.record(event.user, event.item, event.vote);
    }

    let mut curve = QualityCurve::new(max_n);
    for event in test.iter() {
        advance(event.time.0, &mut next_recompute);
        if event.vote == Vote::Like {
            let front = CRecFrontEnd::new(&table);
            let recs = front.recommend(event.user, max_n);
            curve.credit(rank_of(&recs, event.item));
        }
        table.record(event.user, event.item, event.vote);
    }
    curve
}

/// Figure 6, Online-Ideal series: exact KNN before every recommendation —
/// the quality upper bound (and response-time disaster of Figure 8).
#[must_use]
pub fn quality_online_ideal(train: &Trace, test: &Trace, k: usize, max_n: usize) -> QualityCurve {
    let profiles = UserTable::new();
    for event in train.iter() {
        profiles.record(event.user, event.item, event.vote);
    }
    let mut curve = QualityCurve::new(max_n);
    for event in test.iter() {
        if event.vote == Vote::Like {
            let ideal = OnlineIdeal::new(&profiles, hyrec_core::Cosine, k);
            let recs = ideal.recommend(event.user, max_n);
            curve.credit(rank_of(&recs, event.item));
        }
        profiles.record(event.user, event.item, event.vote);
    }
    curve
}

/// Popularity baseline: always recommend the globally most-liked unseen
/// items (no personalization) — a sanity floor for Figure 6.
#[must_use]
pub fn quality_global_popularity(train: &Trace, test: &Trace, max_n: usize) -> QualityCurve {
    let mut popularity: HashMap<hyrec_core::ItemId, u32> = HashMap::new();
    let mut profiles: HashMap<UserId, Profile> = HashMap::new();
    for event in train.iter() {
        if event.vote == Vote::Like {
            *popularity.entry(event.item).or_insert(0) += 1;
        }
        profiles
            .entry(event.user)
            .or_default()
            .record(event.item, event.vote);
    }

    let mut curve = QualityCurve::new(max_n);
    for event in test.iter() {
        if event.vote == Vote::Like {
            let profile = profiles.get(&event.user).cloned().unwrap_or_default();
            let recs = hyrec_core::recommend::rank(
                popularity
                    .iter()
                    .filter(|(item, _)| !profile.contains(**item))
                    .map(|(item, count)| (*item, *count))
                    .collect(),
                max_n,
            );
            curve.credit(rank_of(&recs, event.item));
        }
        if event.vote == Vote::Like {
            *popularity.entry(event.item).or_insert(0) += 1;
        }
        profiles
            .entry(event.user)
            .or_default()
            .record(event.item, event.vote);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_datasets::{DatasetSpec, TraceGenerator};

    fn split() -> (Trace, Trace) {
        let trace = TraceGenerator::new(DatasetSpec::ML1.scaled(0.04), 9)
            .generate()
            .binarize();
        trace.split_chronological(0.8)
    }

    #[test]
    fn curves_are_monotone_in_n() {
        let (train, test) = split();
        for curve in [
            quality_hyrec(&train, &test, 5, 10, 1),
            quality_online_ideal(&train, &test, 5, 10),
            quality_global_popularity(&train, &test, 10),
        ] {
            assert!(curve.positives > 0);
            assert!(curve.hits.windows(2).all(|w| w[0] <= w[1]), "{curve:?}");
            assert!(*curve.hits.last().unwrap() <= curve.positives);
        }
    }

    #[test]
    fn online_ideal_dominates_stale_offline() {
        let (train, test) = split();
        let horizon = train.horizon().0.max(1);
        let ideal = quality_online_ideal(&train, &test, 5, 10);
        // Recompute only halfway through training: stale through the test.
        let offline = quality_offline(&train, &test, 5, 10, horizon / 2);
        assert!(
            ideal.hits[9] >= offline.hits[9],
            "ideal {:?} vs offline {:?}",
            ideal.hits,
            offline.hits
        );
    }

    #[test]
    fn hyrec_beats_never_refreshed_offline() {
        let (train, test) = split();
        let horizon = train.horizon().0.max(1);
        let hyrec = quality_hyrec(&train, &test, 5, 10, 2);
        // A period beyond the trace: the KNN table never materializes, the
        // cold-start pathology Section 5.3 describes.
        let offline = quality_offline(&train, &test, 5, 10, horizon * 100);
        assert_eq!(offline.hits[9], 0, "no recompute ever ran");
        assert!(
            hyrec.hits[9] > 0,
            "hyrec should score despite cold-start: {:?}",
            hyrec.hits
        );
    }

    #[test]
    fn recall_is_normalized() {
        let (train, test) = split();
        let curve = quality_global_popularity(&train, &test, 10);
        let r = curve.recall_at(10);
        assert!((0.0..=1.0).contains(&r));
        assert_eq!(curve.recall_at(0), 0.0);
        assert_eq!(curve.recall_at(99), 0.0);
    }

    #[test]
    fn credit_ranks_correctly() {
        let mut curve = QualityCurve::new(3);
        curve.credit(Some(0)); // hit at n>=1
        curve.credit(Some(2)); // hit at n>=3
        curve.credit(None); // miss
        assert_eq!(curve.hits, vec![1, 1, 2]);
        assert_eq!(curve.positives, 3);
    }
}
