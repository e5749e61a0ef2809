//! Ideal-KNN computation and view-similarity evaluation.
//!
//! The paper's *view similarity* metric (Section 5.1) is "the average
//! profile similarity between a user and her neighbors"; its upper bound is
//! obtained "by considering neighbors computed with global knowledge" (the
//! *ideal KNN*). Crucially, both are evaluated against **current** profiles:
//! a neighbour chosen last week is scored with this week's profiles, which
//! is what makes the offline staircase of Figure 3 drift between
//! recomputations.

use hyrec_core::{Cosine, Neighborhood, SharedProfile, Similarity, UserId};
use hyrec_server::offline::{ExhaustiveBackend, OfflineBackend};
use std::collections::HashMap;

/// A user → neighbourhood table paired with helpers to score it.
#[derive(Debug, Clone, Default)]
pub struct KnnSnapshot {
    table: HashMap<UserId, Vec<UserId>>,
}

impl KnnSnapshot {
    /// Builds a snapshot from `(user, neighbourhood)` pairs.
    #[must_use]
    pub fn from_table(table: &[(UserId, Neighborhood)]) -> Self {
        Self {
            table: table
                .iter()
                .map(|(u, hood)| (*u, hood.users().collect()))
                .collect(),
        }
    }

    /// Number of users with an entry.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Re-scores the stored neighbour choices against `profiles` (current
    /// state) and returns the mean view similarity over users present in
    /// both the snapshot and the profile map.
    #[must_use]
    pub fn view_similarity_against(&self, profiles: &HashMap<UserId, SharedProfile>) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (user, neighbors) in &self.table {
            let Some(profile) = profiles.get(user) else {
                continue;
            };
            if neighbors.is_empty() {
                count += 1;
                continue;
            }
            let mut sum = 0.0;
            let mut n = 0usize;
            for v in neighbors {
                if let Some(other) = profiles.get(v) {
                    sum += Cosine.score(profile, other);
                    n += 1;
                }
            }
            if n > 0 {
                total += sum / n as f64;
            }
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Per-user view similarity against current profiles.
    #[must_use]
    pub fn per_user_view_similarity(
        &self,
        profiles: &HashMap<UserId, SharedProfile>,
    ) -> HashMap<UserId, f64> {
        let mut out = HashMap::with_capacity(self.table.len());
        for (user, neighbors) in &self.table {
            let Some(profile) = profiles.get(user) else {
                continue;
            };
            if neighbors.is_empty() {
                out.insert(*user, 0.0);
                continue;
            }
            let mut sum = 0.0;
            let mut n = 0usize;
            for v in neighbors {
                if let Some(other) = profiles.get(v) {
                    sum += Cosine.score(profile, other);
                    n += 1;
                }
            }
            out.insert(*user, if n == 0 { 0.0 } else { sum / n as f64 });
        }
        out
    }
}

/// Computes the ideal (global-knowledge) KNN table for the given profiles.
#[must_use]
pub fn ideal_knn(profiles: &HashMap<UserId, SharedProfile>, k: usize) -> KnnSnapshot {
    // Arc bumps, not deep copies: the exhaustive scan borrows the same
    // allocations the caller holds.
    let flat: Vec<(UserId, SharedProfile)> = profiles
        .iter()
        .map(|(u, p)| (*u, SharedProfile::clone(p)))
        .collect();
    let table = ExhaustiveBackend::default().compute(&flat, k);
    KnnSnapshot::from_table(&table)
}

/// Mean ideal view similarity: the upper bound the paper's Figures 3–4
/// normalize against.
#[must_use]
pub fn ideal_view_similarity(profiles: &HashMap<UserId, SharedProfile>, k: usize) -> f64 {
    ideal_knn(profiles, k).view_similarity_against(profiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_core::Neighbor;
    use hyrec_core::Profile;

    fn profile_map() -> HashMap<UserId, SharedProfile> {
        // Two clusters of three users.
        (0..6u32)
            .map(|u| {
                let base = (u % 2) * 100;
                (
                    UserId(u),
                    SharedProfile::new(Profile::from_liked(
                        (0..5u32).map(|i| base + i).collect::<Vec<_>>(),
                    )),
                )
            })
            .collect()
    }

    #[test]
    fn ideal_knn_scores_one_for_perfect_clusters() {
        let profiles = profile_map();
        let snapshot = ideal_knn(&profiles, 2);
        assert_eq!(snapshot.len(), 6);
        let sim = snapshot.view_similarity_against(&profiles);
        assert!((sim - 1.0).abs() < 1e-9, "got {sim}");
    }

    #[test]
    fn stale_choices_are_rescored_with_current_profiles() {
        let mut profiles = profile_map();
        let table = vec![(
            UserId(0),
            Neighborhood::from_neighbors([Neighbor {
                user: UserId(2),
                similarity: 1.0,
            }]),
        )];
        let snapshot = KnnSnapshot::from_table(&table);
        assert!((snapshot.view_similarity_against(&profiles) - 1.0).abs() < 1e-9);

        // u2's profile drifts away; the stored similarity 1.0 is ignored.
        profiles.insert(
            UserId(2),
            SharedProfile::new(Profile::from_liked([900u32, 901])),
        );
        assert_eq!(snapshot.view_similarity_against(&profiles), 0.0);
    }

    #[test]
    fn per_user_matches_aggregate() {
        let profiles = profile_map();
        let snapshot = ideal_knn(&profiles, 2);
        let per_user = snapshot.per_user_view_similarity(&profiles);
        let mean: f64 = per_user.values().sum::<f64>() / per_user.len() as f64;
        assert!((mean - snapshot.view_similarity_against(&profiles)).abs() < 1e-9);
    }

    #[test]
    fn missing_profiles_are_skipped() {
        let profiles = profile_map();
        let table = vec![(
            UserId(99), // no profile
            Neighborhood::from_neighbors([Neighbor {
                user: UserId(0),
                similarity: 1.0,
            }]),
        )];
        let snapshot = KnnSnapshot::from_table(&table);
        assert_eq!(snapshot.view_similarity_against(&profiles), 0.0);
    }

    #[test]
    fn empty_everything() {
        let snapshot = KnnSnapshot::default();
        assert!(snapshot.is_empty());
        assert_eq!(snapshot.view_similarity_against(&HashMap::new()), 0.0);
        assert_eq!(ideal_view_similarity(&HashMap::new(), 3), 0.0);
    }
}
