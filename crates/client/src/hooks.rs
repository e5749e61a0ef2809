//! Customization hooks of the widget (Table 1 of the paper).
//!
//! The paper exposes `setSimilarity()` and `setRecommendedItems()` so content
//! providers can replace the similarity metric and the item-selection
//! algorithm without touching the rest of the stack. The similarity hook is
//! `hyrec_core::Similarity`; this module provides the recommendation hook.

use hyrec_core::{recommend, CandidateSet, Profile, Recommendation};

/// The `setRecommendedItems()` hook: turns a candidate set into a ranked
/// recommendation list for one user.
///
/// Object-safe so a widget can swap policies at runtime.
pub trait RecommendationPolicy: Send + Sync {
    /// Produces at most `r` recommendations for `profile` from `candidates`.
    fn recommend(
        &self,
        profile: &Profile,
        candidates: &CandidateSet,
        r: usize,
    ) -> Vec<Recommendation>;

    /// A short stable name for experiment output.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The paper's default policy: the `r` items most popular among the
/// candidate profiles that the user has not seen (Algorithm 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MostPopular;

impl RecommendationPolicy for MostPopular {
    fn recommend(
        &self,
        profile: &Profile,
        candidates: &CandidateSet,
        r: usize,
    ) -> Vec<Recommendation> {
        recommend::most_popular(profile, candidates.profiles(), r)
    }

    fn name(&self) -> &'static str {
        "most-popular"
    }
}

/// A serendipity-leaning policy: dampens raw popularity so mid-tail items
/// surface (the paper motivates including random users' items for exactly
/// this reason, Section 3.2).
///
/// Ranks by `popularity^damping`; equal scores rank by ascending item id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Serendipity {
    /// Exponent in `(0, 1]`; `1.0` degenerates to [`MostPopular`].
    pub damping: f64,
}

impl Default for Serendipity {
    fn default() -> Self {
        Self { damping: 0.5 }
    }
}

impl RecommendationPolicy for Serendipity {
    fn recommend(
        &self,
        profile: &Profile,
        candidates: &CandidateSet,
        r: usize,
    ) -> Vec<Recommendation> {
        let counts = recommend::popularity_counts(profile, candidates.profiles());
        recommend::rank_with(counts, r, |_, count| f64::from(count).powf(self.damping))
    }

    fn name(&self) -> &'static str {
        "serendipity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_core::{ItemId, UserId};

    fn candidates() -> CandidateSet {
        let mut set = CandidateSet::new();
        set.insert(UserId(1), Profile::from_liked([1u32, 2]));
        set.insert(UserId(2), Profile::from_liked([2u32, 3]));
        set.insert(UserId(3), Profile::from_liked([2u32]));
        set
    }

    #[test]
    fn most_popular_matches_algorithm_2() {
        let recs = MostPopular.recommend(&Profile::new(), &candidates(), 1);
        assert_eq!(recs[0].item, ItemId(2));
        assert_eq!(recs[0].popularity, 3);
    }

    #[test]
    fn serendipity_with_damping_one_matches_most_popular() {
        let a = MostPopular.recommend(&Profile::new(), &candidates(), 3);
        let b = Serendipity { damping: 1.0 }.recommend(&Profile::new(), &candidates(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn policies_have_names() {
        assert_eq!(MostPopular.name(), "most-popular");
        assert_eq!(Serendipity::default().name(), "serendipity");
    }

    #[test]
    fn policies_are_object_safe() {
        let policies: Vec<Box<dyn RecommendationPolicy>> =
            vec![Box::new(MostPopular), Box::new(Serendipity::default())];
        for p in &policies {
            let recs = p.recommend(&Profile::new(), &candidates(), 2);
            assert!(recs.len() <= 2);
        }
    }
}
