//! Item recommendation — *Algorithm 2* of the paper: `α(S_u, P_u)`.
//!
//! Recommends to user `u` the `r` items most popular among the candidate
//! profiles that `u` has not been exposed to. This runs in the browser widget
//! in HyRec and on the front-end server in the CRec baseline.
//!
//! Cost: one hashed counter update per liked item of every candidate, one
//! removal per item of the user's exposure, then a linear-time selection over
//! the distinct items — expected `O(Σ|P_c| + |exposure| + distinct)`, plus
//! `O(r log r)` to order the winners. Ranking compares the score (a count
//! converts to `f64` exactly) and then the item id as a separate key, so the
//! ascending-id tie-break is exact at any count.

use crate::fast_hash::KeyedHashMap;
use crate::id::ItemId;
use crate::profile::Profile;
use serde::{Deserialize, Serialize};

/// One recommended item with the popularity evidence that ranked it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The recommended item.
    pub item: ItemId,
    /// How many candidate profiles liked the item.
    pub popularity: u32,
}

/// *Algorithm 2*: the `r` most-popular unseen items across `candidates`.
///
/// Popularity counts how many candidate profiles *like* each item; items the
/// target profile was already exposed to (liked or disliked) are excluded.
/// Results are ranked by descending popularity; ties broken by ascending item
/// id so the output is deterministic. Expected cost is
/// `O(Σ|P_c| + |exposure| + distinct)` (see the module docs).
///
/// ```
/// use hyrec_core::{recommend, ItemId, Profile};
/// let me = Profile::from_liked([1]);
/// let others = vec![
///     Profile::from_liked([1, 2, 3]),
///     Profile::from_liked([2, 3]),
///     Profile::from_liked([2]),
/// ];
/// let recs = recommend::most_popular(&me, others.iter(), 2);
/// assert_eq!(recs[0].item, ItemId(2)); // liked by 3 candidates
/// assert_eq!(recs[0].popularity, 3);
/// assert_eq!(recs[1].item, ItemId(3));
/// ```
pub fn most_popular<'a, I>(profile: &Profile, candidates: I, r: usize) -> Vec<Recommendation>
where
    I: IntoIterator<Item = &'a Profile>,
{
    let counts = popularity_counts(profile, candidates);
    rank(counts, r)
}

/// Computes the raw popularity table of Algorithm 2 (lines 1–8): unseen item
/// → number of candidate profiles that like it.
///
/// Counts every liked item of every candidate into a table pre-sized to the
/// total liked length, then removes the profile's exposure (liked and
/// disliked items): `O(Σ|P_c| + |exposure|)` expected. Item ids are chosen
/// by clients (they arrive through `/rate/`), so the table hashes with the
/// per-process key of [`KeyedHashMap`]: ids crafted to share a bucket cannot
/// turn counting quadratic.
///
/// Exposed for callers that need the intermediate result (C-INTERMEDIATE),
/// e.g. to re-rank with a custom policy via [`rank_with`].
pub fn popularity_counts<'a, I>(profile: &Profile, candidates: I) -> KeyedHashMap<ItemId, u32>
where
    I: IntoIterator<Item = &'a Profile>,
{
    let candidates: Vec<&Profile> = candidates.into_iter().collect();
    let total = candidates.iter().map(|c| c.liked_len()).sum();
    let mut popularity = KeyedHashMap::with_capacity_and_hasher(total, Default::default());
    for candidate in candidates {
        for &item in candidate.liked_slice() {
            *popularity.entry(item).or_insert(0) += 1;
        }
    }
    for item in profile.liked().chain(profile.disliked()) {
        popularity.remove(&item);
    }
    popularity
}

/// Ranks a popularity table into the final top-`r` recommendation list
/// (Algorithm 2, line 9: `subList(r, sort(popularity))`): descending
/// popularity, ties by ascending item id, exactly.
#[must_use]
pub fn rank(counts: KeyedHashMap<ItemId, u32>, r: usize) -> Vec<Recommendation> {
    rank_with(counts, r, |_, count| f64::from(count))
}

/// Ranks a popularity table with a caller-supplied scoring function — the
/// `setRecommendedItems()` customization hook of Table 1 in the paper.
///
/// `score(item, popularity)` returns the ranking key (higher = better).
/// Equal scores rank by ascending item id; items scored NaN are dropped.
pub fn rank_with<F>(counts: KeyedHashMap<ItemId, u32>, r: usize, score: F) -> Vec<Recommendation>
where
    F: Fn(ItemId, u32) -> f64,
{
    if r == 0 {
        return Vec::new();
    }
    let mut scored: Vec<(f64, Recommendation)> = counts
        .into_iter()
        .filter_map(|(item, popularity)| {
            let key = score(item, popularity);
            (!key.is_nan()).then_some((key, Recommendation { item, popularity }))
        })
        .collect();
    // Linear-time selection of the r winners, then a sort of those only.
    let order = |a: &(f64, Recommendation), b: &(f64, Recommendation)| {
        b.0.total_cmp(&a.0).then(a.1.item.cmp(&b.1.item))
    };
    if scored.len() > r {
        scored.select_nth_unstable_by(r - 1, order);
        scored.truncate(r);
    }
    scored.sort_unstable_by(order);
    scored.into_iter().map(|(_, rec)| rec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Profile> {
        vec![
            Profile::from_liked([1u32, 2, 3]),
            Profile::from_liked([2u32, 3, 4]),
            Profile::from_liked([2u32, 5]),
        ]
    }

    #[test]
    fn excludes_exposed_items() {
        let me = Profile::from_votes([2u32], [3u32]); // liked 2, disliked 3
        let pool = candidates();
        let recs = most_popular(&me, pool.iter(), 10);
        assert!(recs.iter().all(|r| r.item != ItemId(2)));
        assert!(recs.iter().all(|r| r.item != ItemId(3)));
    }

    #[test]
    fn ranks_by_popularity() {
        let me = Profile::new();
        let pool = candidates();
        let recs = most_popular(&me, pool.iter(), 2);
        assert_eq!(recs[0].item, ItemId(2));
        assert_eq!(recs[0].popularity, 3);
        assert_eq!(recs[1].item, ItemId(3));
        assert_eq!(recs[1].popularity, 2);
    }

    #[test]
    fn ties_break_by_ascending_item_id() {
        let me = Profile::new();
        let pool = [Profile::from_liked([9u32, 4, 7])];
        let recs = most_popular(&me, pool.iter(), 3);
        assert_eq!(
            recs.iter().map(|r| r.item).collect::<Vec<_>>(),
            vec![ItemId(4), ItemId(7), ItemId(9)]
        );
    }

    #[test]
    fn empty_candidates_yield_no_recommendations() {
        let me = Profile::from_liked([1u32]);
        let recs = most_popular(&me, std::iter::empty(), 5);
        assert!(recs.is_empty());
    }

    #[test]
    fn r_zero_yields_nothing() {
        let me = Profile::new();
        let pool = candidates();
        assert!(most_popular(&me, pool.iter(), 0).is_empty());
    }

    #[test]
    fn ties_at_large_counts_break_by_ascending_item_id() {
        // At tied counts this large a float key folding the id into the
        // count (`count - id * 1e-12`) cannot tell adjacent ids apart.
        let pool =
            vec![Profile::from_liked([1_000_001u32, 1_000_002, 1_000_003, 1_000_004]); 16_384];
        for _ in 0..20 {
            let recs = most_popular(&Profile::new(), pool.iter(), 2);
            assert_eq!(
                recs,
                vec![
                    Recommendation {
                        item: ItemId(1_000_001),
                        popularity: 16_384
                    },
                    Recommendation {
                        item: ItemId(1_000_002),
                        popularity: 16_384
                    },
                ]
            );
        }
    }

    #[test]
    fn colliding_item_ids_count_in_bounded_time() {
        // Multiples of 2^16 share their low bits, and so their bucket under
        // an unkeyed multiplicative hash.
        let pool = [Profile::from_liked((0..30_000u32).map(|i| i << 16))];
        let started = std::time::Instant::now();
        let counts = popularity_counts(&Profile::new(), pool.iter());
        let elapsed = started.elapsed();
        assert_eq!(counts.len(), 30_000);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "counting 30k colliding ids took {elapsed:?}"
        );
    }

    #[test]
    fn custom_rank_hook_can_invert_order() {
        let me = Profile::new();
        let pool = candidates();
        let counts = popularity_counts(&me, pool.iter());
        // Serendipity-style hook: prefer *less* popular items.
        let recs = rank_with(counts, 1, |_, count| -f64::from(count));
        assert_eq!(recs[0].popularity, 1);
    }

    /// Naive Algorithm 2: flatten, sort, count runs, drop the exposure,
    /// order by (count desc, id asc), truncate.
    fn reference(me: &Profile, pool: &[Profile], r: usize) -> Vec<Recommendation> {
        let mut items: Vec<ItemId> = pool.iter().flat_map(Profile::liked).collect();
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

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_profile() -> impl Strategy<Value = Profile> {
            proptest::collection::vec(0u32..80, 0..25).prop_map(Profile::from_liked)
        }

        /// Liked and disliked ids from both ends of the id space.
        fn arb_exposure() -> impl Strategy<Value = Profile> {
            let id = || prop_oneof![0u32..40, (u32::MAX - 40)..=u32::MAX];
            (
                proptest::collection::vec(id(), 0..25),
                proptest::collection::vec(id(), 0..10),
            )
                .prop_map(|(liked, disliked)| Profile::from_votes(liked, disliked))
        }

        proptest! {
            #[test]
            fn never_recommends_seen_items(
                me in arb_profile(),
                pool in proptest::collection::vec(arb_profile(), 0..20),
                r in 0usize..15,
            ) {
                let recs = most_popular(&me, pool.iter(), r);
                prop_assert!(recs.len() <= r);
                for rec in &recs {
                    prop_assert!(!me.contains(rec.item));
                }
            }

            #[test]
            fn popularity_counts_are_exact(
                me in arb_profile(),
                pool in proptest::collection::vec(arb_profile(), 0..20),
            ) {
                let recs = most_popular(&me, pool.iter(), usize::MAX);
                for rec in &recs {
                    let expect = pool.iter().filter(|p| p.likes(rec.item)).count() as u32;
                    prop_assert_eq!(rec.popularity, expect);
                }
            }

            #[test]
            fn matches_the_naive_reference(
                me in arb_exposure(),
                pool in proptest::collection::vec(arb_exposure(), 0..20),
                r in prop_oneof![0usize..60, Just(usize::MAX)],
            ) {
                let expect = reference(&me, &pool, r);
                prop_assert_eq!(most_popular(&me, pool.iter(), r), expect.clone());
                let counts = popularity_counts(&me, pool.iter());
                let hooked = rank_with(counts, r, |_, count| f64::from(count));
                prop_assert_eq!(hooked, expect);
            }

            #[test]
            fn output_is_sorted_by_popularity(
                me in arb_profile(),
                pool in proptest::collection::vec(arb_profile(), 0..20),
                r in 1usize..10,
            ) {
                let recs = most_popular(&me, pool.iter(), r);
                prop_assert!(recs.windows(2).all(|w| w[0].popularity >= w[1].popularity));
            }
        }
    }
}
