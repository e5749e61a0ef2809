//! The candidate set `S_u` — the payload of a personalization job.
//!
//! The server's sampler assembles, per request, the set of users the widget
//! will score: the requester's current neighbours, their neighbours, and `k`
//! random users (Section 3.1). [`CandidateSet`] is the deduplicated product
//! of that aggregation, carrying each candidate's (pseudonymous) id and full
//! profile so the widget needs *no* local state.

use crate::fast_hash::FastHashSet;
use crate::id::UserId;
use crate::profile::Profile;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A candidate user as shipped to the widget: pseudonymous id plus profile.
///
/// The profile is held behind [`Arc`]: candidate sets are assembled from
/// the server's [`crate::UserTable`], and sharing the stored allocation
/// keeps job assembly free of deep profile copies (the zero-copy hot path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateProfile {
    /// Pseudonymous id of the candidate (anonymous mapping, Section 3.1).
    pub user: UserId,
    /// Shared handle to the candidate's full binary profile.
    pub profile: Arc<Profile>,
}

/// A deduplicated candidate set `S_u`.
///
/// Aggregating `N_u`, the KNN of `N_u`'s members and `k` random users can
/// produce the same user several times ("more and more as the KNN tables
/// converge"); the set keeps the first occurrence of each user. The paper's
/// size bound `|S_u| <= 2k + k²` is enforced by construction at the sampler,
/// not here — this type only guarantees uniqueness.
///
/// ```
/// use hyrec_core::{CandidateSet, Profile, UserId};
/// let mut s = CandidateSet::new();
/// assert!(s.insert(UserId(1), Profile::from_liked([1])));
/// assert!(!s.insert(UserId(1), Profile::from_liked([2]))); // duplicate user
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CandidateSet {
    candidates: Vec<CandidateProfile>,
    /// Lazily materialized duplicate-tracking index. Hot-path consumers
    /// (widget, encoder) only iterate, so sets built from pre-deduplicated
    /// input ([`Self::from_deduped`], the batched sampler) never pay for it.
    #[serde(skip)]
    seen: OnceLock<FastHashSet<UserId>>,
}

impl PartialEq for CandidateSet {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived state; equality is the candidate list.
        self.candidates == other.candidates
    }
}

impl CandidateSet {
    /// Creates an empty candidate set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with room for `capacity` candidates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            candidates: Vec::with_capacity(capacity),
            seen: OnceLock::new(),
        }
    }

    /// Builds a set from candidates already known to be distinct — the
    /// zero-rehash path of the batched sampler, which deduplicates while
    /// assembling the id lists.
    ///
    /// The uniqueness contract is the caller's (checked in debug builds);
    /// the index materializes lazily if [`Self::insert`] or
    /// [`Self::contains`] is called later.
    #[must_use]
    pub fn from_deduped(candidates: Vec<CandidateProfile>) -> Self {
        debug_assert!(
            {
                let mut ids: Vec<UserId> = candidates.iter().map(|c| c.user).collect();
                ids.sort_unstable();
                ids.windows(2).all(|w| w[0] != w[1])
            },
            "from_deduped called with duplicate users"
        );
        Self {
            candidates,
            seen: OnceLock::new(),
        }
    }

    fn seen_mut(&mut self) -> &mut FastHashSet<UserId> {
        if self.seen.get().is_none() {
            // Size for the Vec's capacity: a `with_capacity(n)` set then
            // takes its n inserts without a single rehash.
            let mut index = FastHashSet::with_capacity_and_hasher(
                self.candidates.capacity().max(self.candidates.len()),
                Default::default(),
            );
            index.extend(self.candidates.iter().map(|c| c.user));
            let _ = self.seen.set(index);
        }
        self.seen.get_mut().expect("index just materialized")
    }

    /// Inserts a candidate; returns `false` (and drops the profile) if the
    /// user is already present.
    ///
    /// Accepts either an owned [`Profile`] (wrapped on the way in) or an
    /// [`Arc<Profile>`] handle straight from the profile table — the latter
    /// is the zero-copy path.
    pub fn insert(&mut self, user: UserId, profile: impl Into<Arc<Profile>>) -> bool {
        if self.seen_mut().insert(user) {
            self.candidates.push(CandidateProfile {
                user,
                profile: profile.into(),
            });
            true
        } else {
            false
        }
    }

    /// Whether `user` is already in the set.
    #[must_use]
    pub fn contains(&self, user: UserId) -> bool {
        self.seen
            .get_or_init(|| self.candidates.iter().map(|c| c.user).collect())
            .contains(&user)
    }

    /// Number of distinct candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when no candidate has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Iterates candidates in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &CandidateProfile> {
        self.candidates.iter()
    }

    /// Iterates `(user, &profile)` pairs, the shape Algorithm 1 consumes.
    pub fn pairs(&self) -> impl Iterator<Item = (UserId, &Profile)> {
        self.candidates.iter().map(|c| (c.user, c.profile.as_ref()))
    }

    /// Iterates just the candidate profiles, the shape Algorithm 2 consumes.
    pub fn profiles(&self) -> impl Iterator<Item = &Profile> {
        self.candidates.iter().map(|c| c.profile.as_ref())
    }

    /// Consumes the set, returning the candidates in insertion order.
    #[must_use]
    pub fn into_vec(self) -> Vec<CandidateProfile> {
        self.candidates
    }

    /// Drops the duplicate-tracking index so it re-derives from the
    /// candidate list on next use (e.g. after deserialization or manual
    /// surgery on the candidates).
    pub fn rebuild_index(&mut self) {
        self.seen = OnceLock::new();
    }
}

impl FromIterator<(UserId, Profile)> for CandidateSet {
    fn from_iter<T: IntoIterator<Item = (UserId, Profile)>>(iter: T) -> Self {
        let mut set = CandidateSet::new();
        for (user, profile) in iter {
            set.insert(user, profile);
        }
        set
    }
}

impl FromIterator<(UserId, Arc<Profile>)> for CandidateSet {
    fn from_iter<T: IntoIterator<Item = (UserId, Arc<Profile>)>>(iter: T) -> Self {
        let mut set = CandidateSet::new();
        for (user, profile) in iter {
            set.insert(user, profile);
        }
        set
    }
}

impl FromIterator<CandidateProfile> for CandidateSet {
    fn from_iter<T: IntoIterator<Item = CandidateProfile>>(iter: T) -> Self {
        iter.into_iter().map(|c| (c.user, c.profile)).collect()
    }
}

impl<'a> IntoIterator for &'a CandidateSet {
    type Item = &'a CandidateProfile;
    type IntoIter = std::slice::Iter<'a, CandidateProfile>;

    fn into_iter(self) -> Self::IntoIter {
        self.candidates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ItemId;

    #[test]
    fn insert_deduplicates_users() {
        let mut s = CandidateSet::new();
        assert!(s.insert(UserId(1), Profile::from_liked([1u32])));
        assert!(s.insert(UserId(2), Profile::from_liked([2u32])));
        assert!(!s.insert(UserId(1), Profile::from_liked([3u32])));
        assert_eq!(s.len(), 2);
        // First profile wins.
        let first = s.iter().find(|c| c.user == UserId(1)).unwrap();
        assert!(first.profile.likes(ItemId(1)));
    }

    #[test]
    fn pairs_and_profiles_views_agree() {
        let s: CandidateSet = [
            (UserId(1), Profile::from_liked([1u32])),
            (UserId(2), Profile::from_liked([2u32])),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.pairs().count(), 2);
        assert_eq!(s.profiles().count(), 2);
        assert!(s.contains(UserId(1)));
        assert!(!s.contains(UserId(9)));
    }

    #[test]
    fn rebuild_index_restores_dedup() {
        let mut s: CandidateSet = [(UserId(1), Profile::new())].into_iter().collect();
        s.rebuild_index();
        assert!(!s.insert(UserId(1), Profile::new()));
    }

    #[test]
    fn from_deduped_behaves_like_insertion() {
        let parts = vec![
            CandidateProfile {
                user: UserId(1),
                profile: Profile::from_liked([1u32]).into(),
            },
            CandidateProfile {
                user: UserId(2),
                profile: Profile::from_liked([2u32]).into(),
            },
        ];
        let mut s = CandidateSet::from_deduped(parts);
        assert_eq!(s.len(), 2);
        assert!(s.contains(UserId(1)));
        // Lazy index still deduplicates later inserts.
        assert!(!s.insert(UserId(2), Profile::new()));
        assert!(s.insert(UserId(3), Profile::new()));

        let built: CandidateSet = [
            (UserId(1), Profile::from_liked([1u32])),
            (UserId(2), Profile::from_liked([2u32])),
        ]
        .into_iter()
        .collect();
        assert_ne!(s, built); // s has a third member now
        assert_eq!(s.iter().take(2).count(), 2);
    }

    #[test]
    fn candidate_set_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CandidateSet>();
    }

    #[test]
    fn empty_set_behaves() {
        let s = CandidateSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn len_equals_distinct_users(ids in proptest::collection::vec(0u32..30, 0..100)) {
                let set: CandidateSet = ids
                    .iter()
                    .map(|&u| (UserId(u), Profile::new()))
                    .collect();
                let distinct: std::collections::HashSet<u32> = ids.into_iter().collect();
                prop_assert_eq!(set.len(), distinct.len());
            }
        }
    }
}
