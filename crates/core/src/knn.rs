//! KNN selection — *Algorithm 1* of the paper: `γ(P_u, S_u)`.
//!
//! Given a user's profile and a candidate set, compute the similarity with
//! every candidate and retain the `k` most similar users. In HyRec this runs
//! inside the browser widget; in the centralized baselines it runs on the
//! server. The same function serves both, which is exactly the paper's point
//! about the locality of user-based CF computations.

use crate::id::UserId;
use crate::profile::Profile;
use crate::similarity::Similarity;
use crate::topk::TopK;
use serde::{Deserialize, Serialize};

/// One selected neighbour: a user and the similarity that ranked them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The neighbour's (pseudonymous) user id.
    pub user: UserId,
    /// Similarity between the owner's profile and this neighbour's profile.
    pub similarity: f64,
}

/// A user's current k-nearest-neighbour approximation `N_u`, ranked by
/// descending similarity.
///
/// ```
/// use hyrec_core::{knn, Cosine, Profile, UserId};
/// let me = Profile::from_liked([1, 2, 3]);
/// let others = vec![
///     (UserId(7), Profile::from_liked([1, 2, 3])),
///     (UserId(8), Profile::from_liked([3])),
///     (UserId(9), Profile::from_liked([50])),
/// ];
/// let hood = knn::select(&me, others.iter().map(|(u, p)| (*u, p)), 2, &Cosine);
/// assert_eq!(hood.len(), 2);
/// assert_eq!(hood.best().unwrap().user, UserId(7));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Neighborhood {
    neighbors: Vec<Neighbor>,
}

impl Neighborhood {
    /// Creates an empty neighbourhood (a brand-new user's `N_u`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a neighbourhood from pre-ranked neighbours.
    ///
    /// The input is re-sorted by descending similarity so the invariant holds
    /// regardless of caller ordering; duplicate users keep their best score.
    #[must_use]
    pub fn from_neighbors<I: IntoIterator<Item = Neighbor>>(neighbors: I) -> Self {
        let mut neighbors: Vec<Neighbor> = neighbors.into_iter().collect();
        neighbors.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut seen = std::collections::HashSet::new();
        neighbors.retain(|n| seen.insert(n.user));
        Self { neighbors }
    }

    /// Wraps a list that is already ranked and free of repeats (a stored
    /// KNN row mapped back to ids).
    pub(crate) fn from_ranked(neighbors: Vec<Neighbor>) -> Self {
        Self { neighbors }
    }

    /// Number of neighbours currently held. At most `k` for every
    /// neighbourhood that [`select`] ranks or that the server stores:
    /// `HyRecServer::admit_and_apply` keeps each update's `k` best through
    /// [`Self::truncate`].
    #[must_use]
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Keeps the `k` most similar neighbours (Algorithm 1's
    /// `subList(0, k)`).
    pub fn truncate(&mut self, k: usize) {
        self.neighbors.truncate(k);
    }

    /// True for a user with no neighbours yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The most similar neighbour, if any.
    #[must_use]
    pub fn best(&self) -> Option<&Neighbor> {
        self.neighbors.first()
    }

    /// Iterates neighbours in descending similarity order.
    pub fn iter(&self) -> impl Iterator<Item = &Neighbor> {
        self.neighbors.iter()
    }

    /// Iterates just the neighbour ids, best first.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.neighbors.iter().map(|n| n.user)
    }

    /// Whether `user` is currently a neighbour.
    #[must_use]
    pub fn contains(&self, user: UserId) -> bool {
        self.neighbors.iter().any(|n| n.user == user)
    }

    /// Mean similarity of the neighbourhood — the paper's *view similarity*
    /// for one user (Section 5.1, Metrics). Empty neighbourhoods score `0.0`.
    #[must_use]
    pub fn view_similarity(&self) -> f64 {
        if self.neighbors.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.neighbors.iter().map(|n| n.similarity).sum();
        sum / self.neighbors.len() as f64
    }

    /// Consumes the neighbourhood, returning the ranked neighbour list.
    #[must_use]
    pub fn into_vec(self) -> Vec<Neighbor> {
        self.neighbors
    }
}

impl IntoIterator for Neighborhood {
    type Item = Neighbor;
    type IntoIter = std::vec::IntoIter<Neighbor>;

    fn into_iter(self) -> Self::IntoIter {
        self.neighbors.into_iter()
    }
}

impl<'a> IntoIterator for &'a Neighborhood {
    type Item = &'a Neighbor;
    type IntoIter = std::slice::Iter<'a, Neighbor>;

    fn into_iter(self) -> Self::IntoIter {
        self.neighbors.iter()
    }
}

impl FromIterator<Neighbor> for Neighborhood {
    fn from_iter<T: IntoIterator<Item = Neighbor>>(iter: T) -> Self {
        Neighborhood::from_neighbors(iter)
    }
}

/// *Algorithm 1*: selects the `k` candidates most similar to `profile`.
///
/// `candidates` yields `(user, profile)` pairs — the candidate set `S_u`
/// assembled by the server's sampler. Candidates with zero similarity are
/// still eligible (a new user must acquire *some* neighbours for the random
/// walk to bootstrap), exactly as in the paper where the initial KNN is
/// random.
///
/// Duplicate users in the iterator are scored twice but deduplicated in the
/// result (first-retained wins; scores are equal anyway).
pub fn select<'a, I>(
    profile: &Profile,
    candidates: I,
    k: usize,
    metric: &dyn Similarity,
) -> Neighborhood
where
    I: IntoIterator<Item = (UserId, &'a Profile)>,
{
    let mut top = TopK::new(k);
    for (user, candidate) in candidates {
        let score = metric.score(profile, candidate);
        top.push(user, score);
    }
    let mut seen = std::collections::HashSet::new();
    let neighbors = top
        .into_sorted_vec()
        .into_iter()
        .filter(|(user, _)| seen.insert(*user))
        .map(|(user, similarity)| Neighbor { user, similarity })
        .collect();
    Neighborhood { neighbors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::Cosine;

    fn pool() -> Vec<(UserId, Profile)> {
        vec![
            (UserId(1), Profile::from_liked([1u32, 2, 3, 4])),
            (UserId(2), Profile::from_liked([1u32, 2])),
            (UserId(3), Profile::from_liked([100u32])),
            (UserId(4), Profile::from_liked([1u32, 2, 3])),
        ]
    }

    #[test]
    fn select_ranks_by_similarity() {
        let me = Profile::from_liked([1u32, 2, 3, 4]);
        let pool = pool();
        let hood = select(&me, pool.iter().map(|(u, p)| (*u, p)), 3, &Cosine);
        let users: Vec<UserId> = hood.users().collect();
        assert_eq!(users[0], UserId(1)); // identical profile first
        assert_eq!(users.len(), 3);
        assert!(!hood.contains(UserId(3)) || users[2] == UserId(3));
        // Similarities are non-increasing.
        let sims: Vec<f64> = hood.iter().map(|n| n.similarity).collect();
        assert!(sims.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn select_with_k_larger_than_pool() {
        let me = Profile::from_liked([1u32]);
        let pool = pool();
        let hood = select(&me, pool.iter().map(|(u, p)| (*u, p)), 100, &Cosine);
        assert_eq!(hood.len(), 4);
    }

    #[test]
    fn select_from_empty_candidates() {
        let me = Profile::from_liked([1u32]);
        let hood = select(&me, std::iter::empty(), 5, &Cosine);
        assert!(hood.is_empty());
        assert_eq!(hood.view_similarity(), 0.0);
        assert!(hood.best().is_none());
    }

    #[test]
    fn zero_similarity_candidates_are_still_selected() {
        // Bootstrap: a new user has nothing in common with anyone yet but
        // must still acquire neighbours for the gossip walk to start.
        let me = Profile::from_liked([999u32]);
        let pool = pool();
        let hood = select(&me, pool.iter().map(|(u, p)| (*u, p)), 2, &Cosine);
        assert_eq!(hood.len(), 2);
        assert_eq!(hood.view_similarity(), 0.0);
    }

    #[test]
    fn duplicate_candidates_are_deduplicated() {
        let me = Profile::from_liked([1u32, 2]);
        let p = Profile::from_liked([1u32, 2]);
        let dup = vec![(UserId(5), &p), (UserId(5), &p), (UserId(5), &p)];
        let hood = select(&me, dup, 3, &Cosine);
        assert_eq!(hood.len(), 1);
    }

    #[test]
    fn view_similarity_is_mean() {
        let hood = Neighborhood::from_neighbors([
            Neighbor {
                user: UserId(1),
                similarity: 1.0,
            },
            Neighbor {
                user: UserId(2),
                similarity: 0.5,
            },
        ]);
        assert!((hood.view_similarity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_neighbors_sorts_and_dedups() {
        let hood = Neighborhood::from_neighbors([
            Neighbor {
                user: UserId(1),
                similarity: 0.2,
            },
            Neighbor {
                user: UserId(2),
                similarity: 0.9,
            },
            Neighbor {
                user: UserId(1),
                similarity: 0.8,
            },
        ]);
        assert_eq!(hood.len(), 2);
        assert_eq!(hood.best().unwrap().user, UserId(2));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_profile() -> impl Strategy<Value = Profile> {
            proptest::collection::vec(0u32..200, 0..40).prop_map(Profile::from_liked)
        }

        proptest! {
            #[test]
            fn select_matches_naive(me in arb_profile(),
                                    pool in proptest::collection::vec(arb_profile(), 0..40),
                                    k in 1usize..10) {
                let pool: Vec<(UserId, Profile)> = pool
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| (UserId(i as u32), p))
                    .collect();
                let hood = select(&me, pool.iter().map(|(u, p)| (*u, p)), k, &Cosine);

                // Naive: sort all by similarity descending, take k.
                let mut naive: Vec<(UserId, f64)> = pool
                    .iter()
                    .map(|(u, p)| (*u, Cosine.score(&me, p)))
                    .collect();
                naive.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                naive.truncate(k);

                prop_assert_eq!(hood.len(), naive.len());
                // Score multiset must match (user identity may differ on ties).
                let got: Vec<f64> = hood.iter().map(|n| n.similarity).collect();
                for (g, (_, n)) in got.iter().zip(naive.iter()) {
                    prop_assert!((g - n).abs() < 1e-12);
                }
            }

            #[test]
            fn neighborhood_never_exceeds_k(me in arb_profile(),
                                            pool in proptest::collection::vec(arb_profile(), 0..30),
                                            k in 0usize..8) {
                let pool: Vec<(UserId, Profile)> = pool
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| (UserId(i as u32), p))
                    .collect();
                let hood = select(&me, pool.iter().map(|(u, p)| (*u, p)), k, &Cosine);
                prop_assert!(hood.len() <= k);
            }
        }
    }
}
