//! The Online-Ideal baseline: exact KNN on every request.
//!
//! "The online-ideal solution … provides an upper bound on recommendation
//! performance by computing the ideal KNN before providing each
//! recommendation. While interesting as a baseline, such a protocol is
//! inapplicable due to its huge response times" (Sections 5.2–5.3, the
//! `Online Ideal` series of Figures 3, 6 and 8).

use hyrec_core::{knn, recommend, Neighborhood, Recommendation, Similarity, UserId, UserTable};

/// Brute-force per-request recommender over the full profile table.
#[derive(Debug, Clone, Copy)]
pub struct OnlineIdeal<'a, S> {
    profiles: &'a UserTable,
    metric: S,
    k: usize,
}

impl<'a, S: Similarity> OnlineIdeal<'a, S> {
    /// Creates the baseline over the global profile table.
    #[must_use]
    pub fn new(profiles: &'a UserTable, metric: S, k: usize) -> Self {
        Self {
            profiles,
            metric,
            k,
        }
    }

    /// Computes the exact KNN of `user` by scanning every profile.
    #[must_use]
    pub fn ideal_knn(&self, user: UserId) -> Neighborhood {
        let profile = self.profiles.profile_of(user).unwrap_or_default();
        let snapshot = self.profiles.snapshot();
        knn::select(
            &profile,
            snapshot
                .iter()
                .filter(|(u, _)| *u != user)
                .map(|(u, p)| (*u, p.as_ref())),
            self.k,
            &self.metric,
        )
    }

    /// Serves one request: exact KNN, then Algorithm 2 over the result.
    #[must_use]
    pub fn recommend(&self, user: UserId, r: usize) -> Vec<Recommendation> {
        let profile = self.profiles.profile_of(user).unwrap_or_default();
        let hood = self.ideal_knn(user);
        let neighbor_profiles: Vec<_> = hood
            .users()
            .filter_map(|v| self.profiles.profile_of(v))
            .collect();
        recommend::most_popular(&profile, neighbor_profiles.iter().map(AsRef::as_ref), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_core::{Cosine, ItemId, Vote};

    fn table() -> UserTable {
        let profiles = UserTable::new();
        // Two clusters: users 0-4 like items 0-5, users 5-9 like 100-105.
        for u in 0..10u32 {
            let base = if u < 5 { 0 } else { 100 };
            for i in 0..6u32 {
                profiles.record(UserId(u), ItemId(base + i), Vote::Like);
            }
        }
        profiles
    }

    #[test]
    fn ideal_knn_finds_the_cluster() {
        let profiles = table();
        let ideal = OnlineIdeal::new(&profiles, Cosine, 4);
        let hood = ideal.ideal_knn(UserId(0));
        assert_eq!(hood.len(), 4);
        for n in hood.iter() {
            assert!(n.user.0 < 5, "out-of-cluster neighbour {}", n.user);
            assert!((n.similarity - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ideal_knn_excludes_self() {
        let profiles = table();
        let ideal = OnlineIdeal::new(&profiles, Cosine, 9);
        let hood = ideal.ideal_knn(UserId(3));
        assert!(!hood.contains(UserId(3)));
        assert_eq!(hood.len(), 9);
    }

    #[test]
    fn recommendation_uses_exact_neighbors() {
        let profiles = table();
        // u0 misses item 5? No - all cluster members share items. Give u1 an
        // extra item that u0 has not seen.
        profiles.record(UserId(1), ItemId(50), Vote::Like);
        let ideal = OnlineIdeal::new(&profiles, Cosine, 4);
        let recs = ideal.recommend(UserId(0), 5);
        assert!(recs.iter().any(|r| r.item == ItemId(50)));
        // Nothing from the other cluster.
        assert!(recs.iter().all(|r| r.item.0 < 100));
    }

    #[test]
    fn unknown_user_gets_zero_similarity_neighbors() {
        let profiles = table();
        let ideal = OnlineIdeal::new(&profiles, Cosine, 3);
        let hood = ideal.ideal_knn(UserId(42));
        assert_eq!(hood.len(), 3);
        assert_eq!(hood.view_similarity(), 0.0);
    }
}
