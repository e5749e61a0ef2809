//! User profiles: binary rating vectors over items.
//!
//! The paper (Section 2.1) models a profile as a set of `<user, item, vote>`
//! triples and — for simplicity — projects every rating to a binary
//! liked/disliked vote. Similarity and recommendation only ever consult the
//! *liked* set, so [`Profile`] stores liked items in a sorted `Vec<ItemId>`
//! (cheap set intersection, cache-friendly, compact on the wire) and keeps a
//! separate sorted list of disliked items so that "already exposed" items are
//! never re-recommended (Algorithm 2 filters on *exposure*, not on likes).

use crate::id::ItemId;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A user's binary opinion about one item.
///
/// The MovieLens projection of the paper maps star ratings above the user's
/// personal mean to [`Vote::Like`] and the rest to [`Vote::Dislike`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vote {
    /// The user liked the item (a positive binary rating).
    Like,
    /// The user was exposed to the item but did not like it.
    Dislike,
}

impl fmt::Display for Vote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vote::Like => f.write_str("like"),
            Vote::Dislike => f.write_str("dislike"),
        }
    }
}

/// A shared, immutable handle to a [`Profile`] — the currency of the
/// zero-copy job pipeline. The profile table stores these; samplers, job
/// builders, encoders and offline back-ends pass them around by bumping the
/// reference count instead of copying item vectors.
pub type SharedProfile = std::sync::Arc<Profile>;

/// A user's binary rating profile `P_u`.
///
/// Stores the liked and disliked item sets as sorted, deduplicated vectors.
/// The *liked* set is what similarity metrics and popularity counting operate
/// on; the union of both sets is the user's *exposure* (used to filter items
/// the user has already seen out of recommendations).
///
/// Each version of a profile also carries a small memo ([`Profile::memo`])
/// where a holder keeps pieces derived from exactly these votes; a change of
/// votes clears it, and equality, `Debug` and serde ignore it.
///
/// ```
/// use hyrec_core::{ItemId, Profile, Vote};
///
/// let mut p = Profile::new();
/// p.record(ItemId(3), Vote::Like);
/// p.record(ItemId(1), Vote::Like);
/// p.record(ItemId(2), Vote::Dislike);
///
/// assert_eq!(p.liked_len(), 2);
/// assert_eq!(p.exposure_len(), 3);
/// assert!(p.likes(ItemId(1)));
/// assert!(!p.likes(ItemId(2)));
/// assert!(p.contains(ItemId(2)));
/// ```
// `repr(C)` with the memo first: the candidate cell then tends to share a
// cache line with the `Arc` count the sampler has just bumped, so the job
// encoder's read of it is often a cache hit (~5% off a warm `resolve` on a
// 10k-user population, measured in-process against the other order).
#[derive(Clone, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Profile {
    /// Pieces derived from this version; see [`Profile::memo`].
    #[serde(skip)]
    memo: Memo,
    /// Sorted, deduplicated liked items.
    liked: Vec<ItemId>,
    /// Sorted, deduplicated disliked items.
    disliked: Vec<ItemId>,
}

/// A piece memoized on a profile version: opaque to this crate, which only
/// stores, hands out and drops it.
pub type Memoized = Arc<dyn Any + Send + Sync>;

/// Which of a profile version's two memo slots a piece occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoSlot {
    /// The profile as a candidate in someone's job.
    Candidate,
    /// The profile as the requester of its owner's job.
    Requester,
}

/// One write-once cell per [`MemoSlot`], indexed by it (the candidate cell,
/// read ~120 times per job, first): reading a filled cell is a plain load,
/// with no lock and no write to the profile. Every construction and every
/// clone starts empty.
#[derive(Default)]
struct Memo([OnceLock<Memoized>; 2]);

impl Clone for Memo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Equality is over the votes only: the memo is ignored.
impl PartialEq for Profile {
    fn eq(&self, other: &Self) -> bool {
        self.liked == other.liked && self.disliked == other.disliked
    }
}

impl Eq for Profile {}

/// Shows the votes only: the memo is ignored.
impl fmt::Debug for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Profile")
            .field("liked", &self.liked)
            .field("disliked", &self.disliked)
            .finish()
    }
}

impl Profile {
    /// Creates an empty profile (a brand-new user).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a profile from raw liked item ids; duplicates are merged.
    ///
    /// ```
    /// use hyrec_core::Profile;
    /// let p = Profile::from_liked([5, 1, 5, 3]);
    /// assert_eq!(p.liked_len(), 3);
    /// ```
    #[must_use]
    pub fn from_liked<I>(items: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<ItemId>,
    {
        let mut liked: Vec<ItemId> = items.into_iter().map(Into::into).collect();
        liked.sort_unstable();
        liked.dedup();
        Self {
            liked,
            disliked: Vec::new(),
            memo: Memo::default(),
        }
    }

    /// Builds a profile from separate liked and disliked id collections.
    ///
    /// An item present in both collections is treated as liked (the like
    /// wins, mirroring "the most recent positive signal dominates").
    #[must_use]
    pub fn from_votes<L, D>(liked: L, disliked: D) -> Self
    where
        L: IntoIterator,
        L::Item: Into<ItemId>,
        D: IntoIterator,
        D::Item: Into<ItemId>,
    {
        let mut profile = Self::from_liked(liked);
        for item in disliked {
            let item = item.into();
            if !profile.likes(item) {
                if let Err(pos) = profile.disliked.binary_search(&item) {
                    profile.disliked.insert(pos, item);
                }
            }
        }
        profile
    }

    /// The piece memoized in `slot` for this version of the profile.
    ///
    /// A memo belongs to one version: every change of content
    /// ([`Self::record`] returning `true`, an [`Extend`] that adds an item)
    /// empties it, and so does [`crate::UserTable::clear_memos`]; every
    /// constructor and `Clone` starts empty. A holder of an `Arc<Profile>`
    /// can therefore keep what it derived from the votes (the job encoder
    /// keeps compressed pieces) on the profile itself, valid without a
    /// compare and dropped with the version.
    ///
    /// ```
    /// use hyrec_core::profile::MemoSlot;
    /// use hyrec_core::{ItemId, Profile, Vote};
    /// use std::sync::Arc;
    ///
    /// let mut p = Profile::from_liked([1u32, 2]);
    /// assert!(p.set_memo(MemoSlot::Candidate, Arc::new("piece")).is_ok());
    /// assert!(p.set_memo(MemoSlot::Candidate, Arc::new("later")).is_err());
    /// assert!(p.clone().memo(MemoSlot::Candidate).is_none());
    /// assert!(!p.record(ItemId(2), Vote::Like)); // no change, memo kept
    /// assert_eq!(p.memo(MemoSlot::Candidate).unwrap().downcast_ref(), Some(&"piece"));
    /// assert!(p.record(ItemId(3), Vote::Like));
    /// assert!(p.memo(MemoSlot::Candidate).is_none());
    /// ```
    #[must_use]
    pub fn memo(&self, slot: MemoSlot) -> Option<&Memoized> {
        self.memo.0[slot as usize].get()
    }

    /// Memoizes `piece` in `slot` if the slot is empty; otherwise returns
    /// `piece` back. A version's pieces never change once filled: the first
    /// fill wins, and a racing fill keeps its own copy. The piece must be
    /// derived from this version's votes (see [`Self::memo`]).
    ///
    /// # Errors
    ///
    /// `piece`, when `slot` already holds one.
    pub fn set_memo(&self, slot: MemoSlot, piece: Memoized) -> Result<(), Memoized> {
        self.memo.0[slot as usize].set(piece)
    }

    /// Empties the memo without changing the votes.
    pub(crate) fn clear_memo(&mut self) {
        self.memo = Memo::default();
    }

    /// Records a vote, replacing any previous vote for the same item.
    ///
    /// Returns `true` if this vote changed the profile (new item, or the vote
    /// flipped), which is what triggers a new personalization job upstream.
    pub fn record(&mut self, item: ItemId, vote: Vote) -> bool {
        let changed = self.apply_vote(item, vote);
        if changed {
            self.clear_memo();
        }
        changed
    }

    /// [`Self::record`] without clearing the memo.
    fn apply_vote(&mut self, item: ItemId, vote: Vote) -> bool {
        match vote {
            Vote::Like => {
                if let Ok(pos) = self.disliked.binary_search(&item) {
                    self.disliked.remove(pos);
                }
                match self.liked.binary_search(&item) {
                    Ok(_) => false,
                    Err(pos) => {
                        self.liked.insert(pos, item);
                        true
                    }
                }
            }
            Vote::Dislike => {
                if let Ok(pos) = self.liked.binary_search(&item) {
                    self.liked.remove(pos);
                    // Flipping like -> dislike changes the profile.
                    if let Err(ins) = self.disliked.binary_search(&item) {
                        self.disliked.insert(ins, item);
                    }
                    return true;
                }
                match self.disliked.binary_search(&item) {
                    Ok(_) => false,
                    Err(pos) => {
                        self.disliked.insert(pos, item);
                        true
                    }
                }
            }
        }
    }

    /// Whether the user liked `item`.
    #[must_use]
    pub fn likes(&self, item: ItemId) -> bool {
        self.liked.binary_search(&item).is_ok()
    }

    /// Whether the user has been exposed to `item` (liked *or* disliked).
    ///
    /// Algorithm 2 of the paper filters candidate items with "if `P_u` does
    /// not contain `iid`", i.e. on exposure.
    #[must_use]
    pub fn contains(&self, item: ItemId) -> bool {
        self.likes(item) || self.disliked.binary_search(&item).is_ok()
    }

    /// Number of liked items (the L2-relevant support of the binary vector).
    #[must_use]
    pub fn liked_len(&self) -> usize {
        self.liked.len()
    }

    /// Number of items the user has been exposed to.
    #[must_use]
    pub fn exposure_len(&self) -> usize {
        self.liked.len() + self.disliked.len()
    }

    /// True when the user has no recorded opinion at all (cold start).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.liked.is_empty() && self.disliked.is_empty()
    }

    /// Iterates over liked items in ascending id order.
    pub fn liked(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.liked.iter().copied()
    }

    /// Iterates over disliked items in ascending id order.
    pub fn disliked(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.disliked.iter().copied()
    }

    /// Returns the liked items as a sorted slice (for zero-copy intersection).
    #[must_use]
    pub fn liked_slice(&self) -> &[ItemId] {
        &self.liked
    }

    /// Size of the intersection of the liked sets of `self` and `other`.
    ///
    /// Linear two-pointer merge over the sorted vectors: `O(|a| + |b|)`.
    ///
    /// ```
    /// use hyrec_core::Profile;
    /// let a = Profile::from_liked([1, 2, 3]);
    /// let b = Profile::from_liked([2, 3, 4]);
    /// assert_eq!(a.liked_intersection_len(&b), 2);
    /// ```
    #[must_use]
    pub fn liked_intersection_len(&self, other: &Profile) -> usize {
        intersection_len(&self.liked, &other.liked)
    }
}

impl FromIterator<ItemId> for Profile {
    fn from_iter<T: IntoIterator<Item = ItemId>>(iter: T) -> Self {
        Profile::from_liked(iter)
    }
}

impl Extend<ItemId> for Profile {
    fn extend<T: IntoIterator<Item = ItemId>>(&mut self, iter: T) {
        let mut changed = false;
        for item in iter {
            changed |= self.apply_vote(item, Vote::Like);
        }
        if changed {
            self.clear_memo();
        }
    }
}

/// Length of the intersection of two sorted, deduplicated id slices.
pub(crate) fn intersection_len(a: &[ItemId], b: &[ItemId]) -> usize {
    // Galloping would help for very asymmetric sizes but profiles are small
    // (tens to hundreds of items), so the simple merge wins in practice.
    let mut count = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_deduplicates_and_sorts() {
        let mut p = Profile::new();
        assert!(p.record(ItemId(5), Vote::Like));
        assert!(p.record(ItemId(1), Vote::Like));
        assert!(!p.record(ItemId(5), Vote::Like));
        assert_eq!(p.liked().collect::<Vec<_>>(), vec![ItemId(1), ItemId(5)]);
    }

    #[test]
    fn dislike_then_like_flips_vote() {
        let mut p = Profile::new();
        assert!(p.record(ItemId(9), Vote::Dislike));
        assert!(!p.likes(ItemId(9)));
        assert!(p.contains(ItemId(9)));
        assert!(p.record(ItemId(9), Vote::Like));
        assert!(p.likes(ItemId(9)));
        assert_eq!(p.exposure_len(), 1);
    }

    #[test]
    fn like_then_dislike_flips_vote() {
        let mut p = Profile::new();
        p.record(ItemId(9), Vote::Like);
        assert!(p.record(ItemId(9), Vote::Dislike));
        assert!(!p.likes(ItemId(9)));
        assert!(p.contains(ItemId(9)));
        assert_eq!(p.exposure_len(), 1);
    }

    #[test]
    fn duplicate_dislike_is_not_a_change() {
        let mut p = Profile::new();
        assert!(p.record(ItemId(2), Vote::Dislike));
        assert!(!p.record(ItemId(2), Vote::Dislike));
    }

    #[test]
    fn from_votes_like_wins_conflicts() {
        let p = Profile::from_votes([1u32, 2], [2u32, 3]);
        assert!(p.likes(ItemId(2)));
        assert!(!p.likes(ItemId(3)));
        assert!(p.contains(ItemId(3)));
        assert_eq!(p.exposure_len(), 3);
    }

    #[test]
    fn intersection_len_basic() {
        let a = Profile::from_liked([1u32, 3, 5, 7]);
        let b = Profile::from_liked([3u32, 4, 5, 6]);
        assert_eq!(a.liked_intersection_len(&b), 2);
        assert_eq!(b.liked_intersection_len(&a), 2);
        let empty = Profile::new();
        assert_eq!(a.liked_intersection_len(&empty), 0);
    }

    fn piece() -> Memoized {
        Arc::new(7u32)
    }

    fn holds(profile: &Profile, slot: MemoSlot) -> bool {
        profile.memo(slot).is_some()
    }

    #[test]
    fn changing_votes_clear_the_memo() {
        let mut p = Profile::from_liked([1u32, 2]);
        p.set_memo(MemoSlot::Candidate, piece()).unwrap();
        p.set_memo(MemoSlot::Requester, piece()).unwrap();
        assert!(!p.record(ItemId(1), Vote::Like));
        assert!(
            holds(&p, MemoSlot::Candidate),
            "a no-op vote keeps the memo"
        );
        assert!(holds(&p, MemoSlot::Requester));
        assert!(p.record(ItemId(1), Vote::Dislike));
        assert!(!holds(&p, MemoSlot::Candidate));
        assert!(!holds(&p, MemoSlot::Requester));

        p.set_memo(MemoSlot::Candidate, piece()).unwrap();
        p.extend([ItemId(2)]);
        assert!(
            holds(&p, MemoSlot::Candidate),
            "a no-op extend keeps the memo"
        );
        p.extend([ItemId(9)]);
        assert!(!holds(&p, MemoSlot::Candidate));

        p.set_memo(MemoSlot::Requester, piece()).unwrap();
        p.clear_memo();
        assert!(!holds(&p, MemoSlot::Requester));
        assert_eq!(p.liked_len(), 2);
    }

    #[test]
    fn the_first_fill_wins() {
        let p = Profile::from_liked([1u32]);
        p.set_memo(MemoSlot::Candidate, piece()).unwrap();
        let second = p.set_memo(MemoSlot::Candidate, Arc::new(8u32));
        assert_eq!(second.unwrap_err().downcast_ref::<u32>(), Some(&8));
        let memo = p.memo(MemoSlot::Candidate).unwrap();
        assert_eq!(memo.downcast_ref::<u32>(), Some(&7));
        assert!(!holds(&p, MemoSlot::Requester), "slots are independent");
    }

    #[test]
    fn clones_start_with_an_empty_memo() {
        let p = Profile::from_liked([1u32, 2]);
        p.set_memo(MemoSlot::Requester, piece()).unwrap();
        let copy = p.clone();
        assert_eq!(copy, p);
        assert!(!holds(&copy, MemoSlot::Requester));
        assert!(holds(&p, MemoSlot::Requester));
    }

    #[test]
    fn make_mut_on_a_shared_profile_leaves_the_other_holders_memo() {
        let stored = Arc::new(Profile::from_liked([1u32, 2]));
        stored.set_memo(MemoSlot::Candidate, piece()).unwrap();
        let in_flight = Arc::clone(&stored);
        let mut stored = stored;
        assert!(Arc::make_mut(&mut stored).record(ItemId(3), Vote::Like));
        assert!(!holds(&stored, MemoSlot::Candidate));
        assert!(holds(&in_flight, MemoSlot::Candidate));
        assert_eq!(in_flight.liked_len(), 2);
    }

    #[test]
    fn equality_ignores_the_memo() {
        let a = Profile::from_votes([1u32, 2], [3u32]);
        let b = Profile::from_votes([2u32, 1], [3u32]);
        a.set_memo(MemoSlot::Candidate, piece()).unwrap();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            format!("{a:?}"),
            "Profile { liked: [ItemId(1), ItemId(2)], disliked: [ItemId(3)] }"
        );
        assert_eq!(Profile::new(), Profile::default());
        assert_ne!(a, Profile::from_liked([1u32, 2]));
    }

    #[test]
    fn collect_and_extend() {
        let p: Profile = [ItemId(2), ItemId(1), ItemId(2)].into_iter().collect();
        assert_eq!(p.liked_len(), 2);
        let mut q = Profile::new();
        q.extend([ItemId(7), ItemId(8)]);
        assert_eq!(q.liked_len(), 2);
    }
}
