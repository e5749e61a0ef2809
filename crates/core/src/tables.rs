//! The server's global data structures: the Profile Table and the KNN Table.
//!
//! Section 2.2/3.1 of the paper: "the server maintains two global data
//! structures: a Profile Table, recording the profiles of all the users in
//! the system, and the KNN Table containing the k nearest neighbors of each
//! user". Both are one sharded map, [`UserTable`], under two aliases;
//! only their writes and the KNN table's average view similarity are their
//! own. Both sit on the request path of every online user, so the map is
//! sharded and guarded by `parking_lot` RwLocks: reads (sampler pulling
//! candidate profiles) massively dominate writes (one profile update and
//! one KNN write-back per request).

use crate::fast_hash::FastHashMap;
use crate::id::UserId;
use crate::knn::Neighborhood;
use crate::profile::{Profile, Vote};
use crate::ItemId;
use parking_lot::RwLock;
use std::sync::Arc;

/// Number of lock shards. Power of two so the shard of a user is a mask away.
const SHARDS: usize = 64;

fn shard_of(user: UserId) -> usize {
    // Fibonacci hashing spreads sequential uids across shards.
    ((user.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize & (SHARDS - 1)
}

/// Positions of a batch's items grouped by shard, so a batch operation
/// takes each touched shard lock once: one counting sort. `order` lists
/// the positions shard by shard, in input order within a shard (later
/// items see the effect of earlier ones), and `ends[s]` closes shard `s`'s
/// run. Only the shards in the `touched` bit set are walked.
struct ShardGroups {
    touched: u64,
    ends: [usize; SHARDS],
    order: Vec<usize>,
}

const _: () = assert!(SHARDS <= 64, "`touched` is a u64 bit set");

impl ShardGroups {
    fn new<T>(items: &[T], key: impl Fn(&T) -> UserId) -> Self {
        let (mut ends, mut touched) = ([0; SHARDS], 0u64);
        for item in items {
            let shard = shard_of(key(item));
            ends[shard] += 1;
            touched |= 1 << shard;
        }
        // Counts become run starts; placement advances them to run ends.
        let mut start = 0;
        for shard in shards(touched) {
            (ends[shard], start) = (start, start + ends[shard]);
        }
        let mut order = vec![0; items.len()];
        for (pos, item) in items.iter().enumerate() {
            let end = &mut ends[shard_of(key(item))];
            order[*end] = pos;
            *end += 1;
        }
        Self {
            touched,
            ends,
            order,
        }
    }

    /// Each touched shard with its positions, in shard order.
    fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        let mut start = 0;
        shards(self.touched).map(move |shard| {
            let positions = &self.order[start..self.ends[shard]];
            start = self.ends[shard];
            (shard, positions)
        })
    }
}

/// The shards in a bit set, in ascending order.
fn shards(mut touched: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let shard = touched.trailing_zeros() as usize;
        touched &= touched.wrapping_sub(1);
        (shard < SHARDS).then_some(shard)
    })
}

/// Sharded, thread-safe map from user to `V`: the one map behind
/// [`ProfileTable`] and [`KnnTable`].
///
/// Single reads take one shard's read lock; batched reads and writes take
/// each touched shard's lock once, visiting a shard's items in input order.
#[derive(Debug)]
pub struct UserTable<V> {
    shards: Vec<RwLock<FastHashMap<UserId, V>>>,
}

impl<V> Default for UserTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> UserTable<V> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FastHashMap::default()))
                .collect(),
        }
    }

    /// Runs `f` on `user`'s value without cloning (read lock held).
    pub fn with<R>(&self, user: UserId, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shards[shard_of(user)].read().get(&user).map(f)
    }

    /// Batched [`Self::with`]: runs `f` on each present value under its
    /// shard's read lock (taken once per touched shard), returning results
    /// in input order. The zero-clone read path of the batched sampler:
    /// extracting just the neighbour ids never copies a [`Neighborhood`].
    pub fn map_many<R>(&self, users: &[UserId], mut f: impl FnMut(&V) -> R) -> Vec<Option<R>> {
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(users.len()).collect();
        for (shard_idx, positions) in ShardGroups::new(users, |&user| user).iter() {
            let shard = self.shards[shard_idx].read();
            for &pos in positions {
                out[pos] = shard.get(&users[pos]).map(&mut f);
            }
        }
        out
    }

    /// Whether the table has an entry for `user`.
    #[must_use]
    pub fn contains(&self, user: UserId) -> bool {
        self.shards[shard_of(user)].read().contains_key(&user)
    }

    /// Number of users with an entry.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no user has an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Runs `f` on every entry, shard by shard (unordered).
    fn map_all<R>(&self, mut f: impl FnMut(&V) -> R) -> Vec<(UserId, R)> {
        let mut all = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(shard.read().iter().map(|(u, v)| (*u, f(v))));
        }
        all
    }

    /// The one batched write: runs `f` on each position of `groups` with
    /// its shard's map, taking each touched shard's write lock once.
    fn write_many(
        &self,
        groups: &ShardGroups,
        mut f: impl FnMut(&mut FastHashMap<UserId, V>, usize),
    ) {
        for (shard_idx, positions) in groups.iter() {
            let mut shard = self.shards[shard_idx].write();
            for &pos in positions {
                f(&mut shard, pos);
            }
        }
    }
}

impl<V: Clone> UserTable<V> {
    /// Returns a clone of `user`'s value: for a profile an `Arc` bump, so
    /// jobs share the stored allocation (the zero-copy hot path) and the
    /// short read lock is released before any work on it.
    #[must_use]
    pub fn get(&self, user: UserId) -> Option<V> {
        self.with(user, V::clone)
    }

    /// Batched [`Self::get`]: one read lock per touched shard, results in
    /// input order (the profile fetch of `HyRecServer::build_jobs`).
    #[must_use]
    pub fn get_many(&self, users: &[UserId]) -> Vec<Option<V>> {
        self.map_many(users, V::clone)
    }

    /// Snapshot of the whole table (unordered), for offline back-ends that
    /// batch over every user (Offline-Ideal, Offline-CRec, Mahout-like). A
    /// profile snapshot costs one `Arc` bump per user, no deep copies.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(UserId, V)> {
        self.map_all(V::clone)
    }
}

/// The Profile Table: user to profile.
///
/// Profiles are stored behind [`Arc`] so that readers — the sampler
/// assembling candidate sets, the job encoder serializing them — share the
/// stored allocation instead of deep-cloning item vectors. Writers use
/// clone-on-write ([`Arc::make_mut`]): a vote on a profile that is
/// concurrently referenced by an in-flight job clones once, then mutates in
/// place until the next job pins it again.
///
/// ```
/// use hyrec_core::{ItemId, Profile, ProfileTable, UserId, Vote};
/// let table = ProfileTable::new();
/// table.record(UserId(1), ItemId(10), Vote::Like);
/// assert_eq!(table.get(UserId(1)).unwrap().liked_len(), 1);
/// assert_eq!(table.len(), 1);
/// ```
pub type ProfileTable = UserTable<Arc<Profile>>;

/// What [`ProfileTable::record_many`] did to each vote, in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recorded {
    /// Whether the vote changed its profile.
    pub changed: Vec<bool>,
    /// Whether the vote created its profile, as decided under the shard's
    /// write lock: racing batches create a user once.
    pub created: Vec<bool>,
}

impl UserTable<Arc<Profile>> {
    /// Records a vote into `user`'s profile, creating the profile if absent.
    ///
    /// Returns `true` when the vote changed the profile — the signal the
    /// orchestrator uses to decide whether a new KNN iteration is worthwhile.
    pub fn record(&self, user: UserId, item: ItemId, vote: Vote) -> bool {
        self.record_many(&[(user, item, vote)]).changed[0]
    }

    /// Ingests many votes while taking each touched shard's *write* lock
    /// exactly once; [`Self::record`] is a batch of one.
    ///
    /// Results are in input order, and votes for one user apply in input
    /// order (they share a shard), so any split of a vote stream into
    /// batches gives the same tables and change flags. This is the ingestion
    /// half of request coalescing — a burst of `/rate/` traffic costs one
    /// lock acquisition per touched shard instead of one per vote.
    #[must_use]
    pub fn record_many(&self, votes: &[(UserId, ItemId, Vote)]) -> Recorded {
        let mut changed = vec![false; votes.len()];
        let mut created = vec![false; votes.len()];
        let groups = ShardGroups::new(votes, |&(user, _, _)| user);
        self.write_many(&groups, |shard, pos| {
            let (user, item, vote) = votes[pos];
            let profile = shard.entry(user).or_insert_with(|| {
                created[pos] = true;
                Arc::default()
            });
            changed[pos] = Arc::make_mut(profile).record(item, vote);
        });
        Recorded { changed, created }
    }
}

/// The KNN Table: user to current KNN approximation.
///
/// ```
/// use hyrec_core::{KnnTable, Neighborhood, UserId};
/// let table = KnnTable::new();
/// table.update(UserId(1), Neighborhood::new());
/// assert!(table.get(UserId(1)).is_some());
/// ```
pub type KnnTable = UserTable<Neighborhood>;

impl UserTable<Neighborhood> {
    /// Stores the new KNN approximation sent back by a widget (Arrow 3 in
    /// Figure 1), replacing the previous one.
    pub fn update(&self, user: UserId, hood: Neighborhood) {
        self.update_many(vec![(user, hood)]);
    }

    /// Applies many write-backs while taking each touched shard's write
    /// lock exactly once — the write half of `HyRecServer::admit_and_apply`;
    /// [`Self::update`] is a batch of one.
    pub fn update_many(&self, entries: Vec<(UserId, Neighborhood)>) {
        let groups = ShardGroups::new(&entries, |&(user, _)| user);
        let mut entries: Vec<Option<(UserId, Neighborhood)>> =
            entries.into_iter().map(Some).collect();
        self.write_many(&groups, |shard, pos| {
            let (user, hood) = entries[pos].take().expect("each position visited once");
            shard.insert(user, hood);
        });
    }

    /// Mean view similarity across every stored neighbourhood — the
    /// paper's *average view similarity* metric (Figures 3–4). A user whose
    /// stored neighbourhood is empty counts, with similarity 0.0; a user
    /// with no stored neighbourhood does not. An empty table gives 0.0.
    ///
    /// Summation runs in user-id order so the floating-point result is
    /// identical across runs (hash-map iteration order is per-instance
    /// random, and f64 addition is not associative).
    #[must_use]
    pub fn average_view_similarity(&self) -> f64 {
        let mut values = self.map_all(Neighborhood::view_similarity);
        if values.is_empty() {
            return 0.0;
        }
        values.sort_unstable_by_key(|(u, _)| *u);
        values.iter().map(|(_, v)| v).sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Neighbor;
    use std::sync::Arc;

    #[test]
    fn profile_record_and_get() {
        let t = ProfileTable::new();
        assert!(t.record(UserId(1), ItemId(5), Vote::Like));
        assert!(!t.record(UserId(1), ItemId(5), Vote::Like));
        assert!(t.contains(UserId(1)));
        assert_eq!(t.get(UserId(1)).unwrap().liked_len(), 1);
        assert_eq!(t.get(UserId(2)), None);
    }

    #[test]
    fn profile_with_avoids_clone() {
        let t = ProfileTable::new();
        t.record(UserId(3), ItemId(1), Vote::Like);
        let n = t.with(UserId(3), |p| p.liked_len());
        assert_eq!(n, Some(1));
        assert_eq!(t.with(UserId(99), |p| p.liked_len()), None);
    }

    #[test]
    fn snapshot_contains_everything() {
        let t = ProfileTable::new();
        for u in 0..100u32 {
            t.record(UserId(u), ItemId(u), Vote::Like);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.snapshot().len(), 100);
    }

    #[test]
    fn knn_update_and_view_similarity() {
        let t = KnnTable::new();
        t.update(
            UserId(1),
            Neighborhood::from_neighbors([Neighbor {
                user: UserId(2),
                similarity: 0.8,
            }]),
        );
        t.update(
            UserId(2),
            Neighborhood::from_neighbors([Neighbor {
                user: UserId(1),
                similarity: 0.4,
            }]),
        );
        assert!((t.average_view_similarity() - 0.6).abs() < 1e-12);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_tables() {
        let p = ProfileTable::new();
        let k = KnnTable::new();
        assert!(p.is_empty());
        assert!(k.is_empty());
        assert_eq!(k.average_view_similarity(), 0.0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let table = Arc::new(ProfileTable::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let table = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    table.record(UserId(t * 1000 + i), ItemId(i), Vote::Like);
                    let _ = table.get(UserId(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(table.len(), 8 * 500);
    }

    #[test]
    fn get_returns_shared_handle_not_copy() {
        let t = ProfileTable::new();
        t.record(UserId(5), ItemId(1), Vote::Like);
        let a = t.get(UserId(5)).unwrap();
        let b = t.get(UserId(5)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "get must share the stored allocation");
        // A write through record() must not mutate the held handle.
        t.record(UserId(5), ItemId(2), Vote::Like);
        assert_eq!(a.liked_len(), 1);
        assert_eq!(t.get(UserId(5)).unwrap().liked_len(), 2);
    }

    #[test]
    fn get_many_matches_get_in_input_order() {
        let t = ProfileTable::new();
        for u in 0..200u32 {
            t.record(UserId(u), ItemId(u), Vote::Like);
        }
        let query: Vec<UserId> = [7u32, 500, 3, 3, 199, 0, 42]
            .into_iter()
            .map(UserId)
            .collect();
        let batch = t.get_many(&query);
        assert_eq!(batch.len(), query.len());
        for (user, got) in query.iter().zip(&batch) {
            assert_eq!(got.is_some(), t.get(*user).is_some(), "mismatch for {user}");
            if let Some(profile) = got {
                assert!(Arc::ptr_eq(profile, &t.get(*user).unwrap()));
            }
        }
    }

    #[test]
    fn record_many_matches_sequential_record() {
        let batched = ProfileTable::new();
        let sequential = ProfileTable::new();
        // A churn-heavy stream: repeats, flips, and cross-shard users.
        let votes: Vec<(UserId, ItemId, Vote)> = (0..500u32)
            .map(|i| {
                let user = UserId(i % 37);
                let item = ItemId(i % 11);
                let vote = if i % 3 == 0 {
                    Vote::Dislike
                } else {
                    Vote::Like
                };
                (user, item, vote)
            })
            .collect();
        let batch_flags = batched.record_many(&votes).changed;
        let seq_flags: Vec<bool> = votes
            .iter()
            .map(|&(user, item, vote)| sequential.record(user, item, vote))
            .collect();
        assert_eq!(batch_flags, seq_flags);
        assert_eq!(batched.len(), sequential.len());
        for &(user, _, _) in &votes {
            assert_eq!(batched.get(user), sequential.get(user), "user {user}");
        }
        // Empty batch is a no-op.
        assert!(batched.record_many(&[]).changed.is_empty());
    }

    #[test]
    fn record_many_flags_each_users_first_vote_as_created() {
        let t = ProfileTable::new();
        t.record(UserId(2), ItemId(1), Vote::Like);
        let votes = [
            (UserId(1), ItemId(1), Vote::Like),
            (UserId(2), ItemId(2), Vote::Like),
            (UserId(1), ItemId(2), Vote::Dislike),
            (UserId(65), ItemId(1), Vote::Dislike),
            (UserId(65), ItemId(1), Vote::Dislike),
        ];
        let recorded = t.record_many(&votes);
        assert_eq!(recorded.created, [true, false, false, true, false]);
        assert_eq!(recorded.changed, [true, true, true, true, false]);
        assert!(!t.record_many(&votes).created.contains(&true));
    }

    #[test]
    fn knn_batch_ops_match_scalar_ops() {
        let t = KnnTable::new();
        let entries: Vec<(UserId, Neighborhood)> = (0..100u32)
            .map(|u| {
                (
                    UserId(u),
                    Neighborhood::from_neighbors([Neighbor {
                        user: UserId(u + 1),
                        similarity: f64::from(u) / 100.0,
                    }]),
                )
            })
            .collect();
        t.update_many(entries.clone());
        assert_eq!(t.len(), 100);
        let users: Vec<UserId> = entries.iter().map(|(u, _)| *u).collect();
        let fetched = t.get_many(&users);
        for ((user, hood), got) in entries.iter().zip(fetched) {
            assert_eq!(got.as_ref(), Some(hood), "mismatch for {user}");
        }
        assert_eq!(t.get_many(&[UserId(999)]), vec![None]);
    }

    #[test]
    fn shard_distribution_is_reasonable() {
        // Sequential uids must not all land in one shard.
        let mut counts = [0usize; SHARDS];
        for u in 0..10_000u32 {
            counts[shard_of(UserId(u))] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 10_000 / 8, "shard imbalance: max={max} min={min}");
    }
}
