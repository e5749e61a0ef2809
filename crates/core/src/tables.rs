//! The server's global data structures: the Profile Table and the KNN Table.
//!
//! Section 2.2/3.1 of the paper: "the server maintains two global data
//! structures: a Profile Table, recording the profiles of all the users in
//! the system, and the KNN Table containing the k nearest neighbors of each
//! user". Both are columns of one store, [`UserTable`].
//!
//! **One index, slot columns.** Every user has one dense [`Slot`], a `u32`
//! handed out in profile-creation order. The index (`UserId` → slot, a
//! [`KeyedHashMap`]: uids come from clients) is the only map keyed by a user
//! id. Everything else is a column indexed by slot: the user's id, their
//! profile and their KNN [`Row`], which names its neighbours by slot. The
//! columns are sharded by `slot % 64`, one `RwLock` per shard, so sequential
//! slots spread evenly whatever ids clients choose. A slot's data is index
//! arithmetic away: the batched sampler reads rows and profiles through a
//! [`SlotView`] without hashing a candidate.
//!
//! **When a slot is minted.** A user is someone who has voted: a slot is
//! minted only by [`UserTable::record_many`], for a vote that creates its
//! user's profile, so slot `i` is the `i`-th profile created and every slot
//! owns a profile. Within a batch, slots are minted in input order. KNN
//! writes mint nothing: a row is stored only for a user who owns a profile,
//! and names only such users. A slot is never freed.
//!
//! **Lock order.** The anonymizer (held by the server), then the index, then
//! shards in ascending order. A write holds at most one shard lock at a
//! time. A batch that mints holds the index's write lock until its votes
//! are written, so a slot becomes visible together with its profile. A
//! [`SlotView`] holds the index and every shard for reading. No path takes a
//! lock it already holds: `std`'s `RwLock` (behind the `parking_lot` shim)
//! can deadlock on a recursive read while a writer waits. A profile's memo
//! ([`Profile::memo`]) adds no lock: its cells are filled once through
//! `&Profile` (by the job encoder, outside any table view) and emptied only
//! through `&mut Profile`, by a vote or [`UserTable::clear_memos`] under the
//! shard's write lock.

use crate::fast_hash::KeyedHashMap;
use crate::id::UserId;
use crate::knn::{Neighbor, Neighborhood};
use crate::profile::{Profile, Vote};
use crate::ItemId;
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::Arc;

/// A user's dense position in the table's columns. `Slot::MAX` is never
/// minted, so callers may use it as a marker.
pub type Slot = u32;

/// A stored KNN row: the neighbours' slots and similarities, best first (the
/// order of the [`Neighborhood`] it stores), allocated at exact size.
pub type Row = Box<[(Slot, f64)]>;

/// Number of lock shards. Slot `s` lives in shard `s % SHARDS`.
const SHARDS: usize = 64;

/// The shard holding `slot`'s columns and its position there.
fn locate(slot: Slot) -> (usize, usize) {
    (slot as usize % SHARDS, slot as usize / SHARDS)
}

/// `lookup` of each id, called once per run of equal ids (a user's burst of
/// votes arrives as one run); `None` as soon as a lookup fails.
fn per_run(users: &[UserId], mut lookup: impl FnMut(UserId) -> Option<Slot>) -> Option<Vec<Slot>> {
    let mut slots: Vec<Slot> = Vec::with_capacity(users.len());
    for (i, &user) in users.iter().enumerate() {
        let slot = match slots.last() {
            Some(&prev) if users[i - 1] == user => prev,
            _ => lookup(user)?,
        };
        slots.push(slot);
    }
    Some(slots)
}

/// One shard's columns; a slot's entries sit at the same position in each.
#[derive(Debug, Default)]
struct Shard {
    ids: Vec<UserId>,
    profiles: Vec<Arc<Profile>>,
    rows: Vec<Option<Row>>,
}

/// The Profile Table and the KNN Table: one keyed index and slot-indexed
/// columns (see the module doc).
///
/// Profiles are stored behind [`Arc`] so that readers — the sampler
/// assembling candidate sets, the job encoder serializing them — share the
/// stored allocation instead of deep-cloning item vectors. Writers use
/// clone-on-write ([`Arc::make_mut`]): a vote on a profile that is
/// concurrently referenced by an in-flight job clones once, then mutates in
/// place until the next job pins it again. Either way the stored version's
/// memo goes with its old content: the clone starts with an empty memo, and
/// an in-place change clears it, while the in-flight job keeps the old
/// version and its memo.
///
/// ```
/// use hyrec_core::{ItemId, Neighbor, Neighborhood, UserId, UserTable, Vote};
/// let table = UserTable::new();
/// table.record(UserId(1), ItemId(10), Vote::Like);
/// table.record(UserId(2), ItemId(10), Vote::Like);
/// assert_eq!(table.profile_of(UserId(1)).unwrap().liked_len(), 1);
/// let neighbor = |user| Neighbor { user: UserId(user), similarity: 0.5 };
/// table.update(UserId(1), Neighborhood::from_neighbors([neighbor(2), neighbor(3)]));
/// // User 3 never voted: they get no slot, and the row drops them.
/// assert_eq!(table.knn_of(UserId(1)).unwrap().len(), 1);
/// assert_eq!(table.slot_of(UserId(3)), None);
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Debug)]
pub struct UserTable {
    index: RwLock<KeyedHashMap<UserId, Slot>>,
    shards: Vec<RwLock<Shard>>,
}

/// The paper's Profile Table: the profile column of a [`UserTable`].
///
/// ```
/// use hyrec_core::tables::ProfileTable;
/// use hyrec_core::{ItemId, UserId, Vote};
/// let table = ProfileTable::new();
/// table.record(UserId(1), ItemId(10), Vote::Like);
/// assert_eq!(table.profile_of(UserId(1)).unwrap().liked_len(), 1);
/// assert_eq!(table.len(), 1);
/// ```
pub type ProfileTable = UserTable;

/// The paper's KNN Table: the row column of a [`UserTable`].
///
/// ```
/// use hyrec_core::tables::KnnTable;
/// use hyrec_core::{ItemId, Neighborhood, UserId, Vote};
/// let table = KnnTable::new();
/// table.record(UserId(1), ItemId(10), Vote::Like);
/// table.update(UserId(1), Neighborhood::new());
/// assert!(table.knn_of(UserId(1)).is_some());
/// ```
pub type KnnTable = UserTable;

impl Default for UserTable {
    fn default() -> Self {
        Self::new()
    }
}

impl UserTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            index: RwLock::new(KeyedHashMap::default()),
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
        }
    }

    /// The one batched write: runs `f(shard, position in shard, batch
    /// position)` for each of `slots`, taking each touched shard's write
    /// lock once, shards in ascending order and input order within a shard
    /// (later items see the effect of earlier ones).
    fn write_many(&self, slots: &[Slot], mut f: impl FnMut(&mut Shard, usize, usize)) {
        let shard_at = |pos: &usize| locate(slots[*pos]).0;
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_by_key(shard_at);
        for run in order.chunk_by(|a, b| shard_at(a) == shard_at(b)) {
            let mut shard = self.shards[shard_at(&run[0])].write();
            for &pos in run {
                f(&mut shard, locate(slots[pos]).1, pos);
            }
        }
    }

    /// Records a vote into `user`'s profile, creating the profile if absent.
    ///
    /// Returns `true` when the vote changed the profile — the signal the
    /// orchestrator uses to decide whether a new KNN iteration is worthwhile.
    pub fn record(&self, user: UserId, item: ItemId, vote: Vote) -> bool {
        self.record_many(&[(user, item, vote)])[0]
    }

    /// Ingests many votes while taking each touched shard's *write* lock
    /// exactly once; [`Self::record`] is a batch of one. Returns whether
    /// each vote changed its profile, in input order.
    ///
    /// The only place a slot is minted: a voter without one gets the next
    /// slot, in input order, and their profile is created by the same pass
    /// that writes the vote. An all-known batch takes the index's read lock
    /// only; a batch that mints holds its write lock until every vote is
    /// written, so racing first votes give one slot per voter and no reader
    /// sees a slot before its profile. Votes for one user apply in input
    /// order (they share a slot), so any split of a vote stream into
    /// batches gives the same tables, slots and change flags. This is the
    /// ingestion half of request coalescing — a burst of `/rate/` traffic
    /// costs one lock acquisition per touched shard instead of one per vote.
    #[must_use]
    pub fn record_many(&self, votes: &[(UserId, ItemId, Vote)]) -> Vec<bool> {
        let users: Vec<UserId> = votes.iter().map(|&(user, _, _)| user).collect();
        let known = {
            let index = self.index.read();
            per_run(&users, |user| index.get(&user).copied())
        };
        // A batch that mints keeps the index's write guard until its votes
        // are written (the end of this function).
        let (slots, _minting) = match known {
            Some(slots) => (slots, None),
            None => {
                let mut index = self.index.write();
                let slots = per_run(&users, |user| {
                    let next = index.len();
                    Some(*index.entry(user).or_insert_with(|| {
                        Slot::try_from(next)
                            .ok()
                            .filter(|&slot| slot < Slot::MAX)
                            .expect("fewer than 2^32 - 1 users")
                    }))
                })
                .expect("every voter gets a slot");
                (slots, Some(index))
            }
        };
        let mut changed = vec![false; votes.len()];
        self.write_many(&slots, |shard, at, pos| {
            let (user, item, vote) = votes[pos];
            // A fresh slot's first vote lands at the end of its shard: slots
            // are minted in input order, and shards append in slot order.
            debug_assert!(at <= shard.ids.len());
            if at == shard.ids.len() {
                shard.ids.push(user);
                shard.profiles.push(Arc::default());
                shard.rows.push(None);
            }
            changed[pos] = Arc::make_mut(&mut shard.profiles[at]).record(item, vote);
        });
        changed
    }

    /// Empties every stored profile's memo ([`Profile::memo`]) without
    /// changing a vote, taking each shard's write lock once in ascending
    /// order. A profile an in-flight job still holds is copied first
    /// ([`Arc::make_mut`]), so that job keeps its version and memo.
    pub fn clear_memos(&self) {
        for shard in &self.shards {
            for profile in &mut shard.write().profiles {
                Arc::make_mut(profile).clear_memo();
            }
        }
    }

    /// Stores a KNN approximation, replacing the previous one: a batch of
    /// one through [`Self::update_many`].
    pub fn update(&self, user: UserId, hood: Neighborhood) {
        self.update_many(vec![(user, hood)]);
    }

    /// Stores many neighbourhoods in their order (simulators and tests seed
    /// tables this way). An owner without a profile is skipped and a
    /// neighbour without one is dropped, so nothing is minted. The server's
    /// write-back is [`Self::update_rows`].
    pub fn update_many(&self, entries: Vec<(UserId, Neighborhood)>) {
        let rows = {
            let index = self.index.read();
            let slot_of = |user: &UserId| index.get(user).copied();
            entries
                .iter()
                .filter_map(|(user, hood)| {
                    let row = hood
                        .iter()
                        .filter_map(|n| Some((slot_of(&n.user)?, n.similarity)))
                        .collect();
                    Some((slot_of(user)?, row))
                })
                .collect()
        };
        self.update_rows(rows);
    }

    /// Stores rows by owner slot, replacing each owner's previous row: the
    /// write-back of `HyRecServer::admit_and_apply` (Arrow 3 in Figure 1),
    /// each touched shard's lock once.
    ///
    /// # Panics
    /// If an owner slot was never minted.
    pub fn update_rows(&self, rows: Vec<(Slot, Row)>) {
        let (owners, mut rows): (Vec<Slot>, Vec<Option<Row>>) = rows
            .into_iter()
            .map(|(owner, row)| (owner, Some(row)))
            .unzip();
        self.write_many(&owners, |shard, at, pos| shard.rows[at] = rows[pos].take());
    }

    /// `user`'s slot, if they own a profile.
    #[must_use]
    pub fn slot_of(&self, user: UserId) -> Option<Slot> {
        self.index.read().get(&user).copied()
    }

    /// Shared handle to `user`'s profile: an `Arc` bump, so jobs share the
    /// stored allocation (the zero-copy hot path).
    #[must_use]
    pub fn profile_of(&self, user: UserId) -> Option<Arc<Profile>> {
        let (shard, at) = locate(self.slot_of(user)?);
        Some(Arc::clone(&self.shards[shard].read().profiles[at]))
    }

    /// Batched [`Self::profile_of`], in input order, under one
    /// [`Self::read`] view (the requester profiles of
    /// `HyRecServer::build_jobs`).
    #[must_use]
    pub fn profiles_of(&self, users: &[UserId]) -> Vec<Option<Arc<Profile>>> {
        let view = self.read();
        users
            .iter()
            .map(|&user| Some(Arc::clone(view.profile(view.slot_of(user)?))))
            .collect()
    }

    /// `user`'s stored neighbourhood, neighbour slots mapped back to ids.
    #[must_use]
    pub fn knn_of(&self, user: UserId) -> Option<Neighborhood> {
        let view = self.read();
        let row = view.row(view.slot_of(user)?)?;
        Some(Neighborhood::from_ranked(
            row.iter()
                .map(|&(slot, similarity)| Neighbor {
                    user: view.id(slot),
                    similarity,
                })
                .collect(),
        ))
    }

    /// Whether `user` owns a profile.
    #[must_use]
    pub fn contains(&self, user: UserId) -> bool {
        self.slot_of(user).is_some()
    }

    /// Number of users who own a profile.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.read().len()
    }

    /// True when no user owns a profile.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every profile with its owner (unordered), for offline back-ends that
    /// batch over every user (Offline-Ideal, Offline-CRec, Mahout-like). A
    /// snapshot costs one `Arc` bump per user, no deep copies.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(UserId, Arc<Profile>)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            all.extend(
                shard
                    .ids
                    .iter()
                    .copied()
                    .zip(shard.profiles.iter().cloned()),
            );
        }
        all
    }

    /// The view similarity of every stored row, in user-id order: a row's
    /// mean similarity, 0.0 for an empty row ([`Neighborhood::view_similarity`]).
    /// A user without a row has no entry.
    #[must_use]
    pub fn view_similarities(&self) -> Vec<(UserId, f64)> {
        let mut values = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            values.extend(
                shard
                    .ids
                    .iter()
                    .zip(&shard.rows)
                    .filter_map(|(&user, row)| {
                        let row = row.as_ref()?;
                        let sum: f64 = row.iter().map(|&(_, similarity)| similarity).sum();
                        Some((
                            user,
                            if row.is_empty() {
                                0.0
                            } else {
                                sum / row.len() as f64
                            },
                        ))
                    }),
            );
        }
        values.sort_unstable_by_key(|&(user, _)| user);
        values
    }

    /// Mean view similarity across every stored row — the paper's *average
    /// view similarity* metric (Figures 3–4). A user whose stored row is
    /// empty counts, with similarity 0.0; a user with no stored row does
    /// not. An empty table gives 0.0.
    ///
    /// Summation runs in user-id order, not slot order, so the
    /// floating-point result does not depend on the order slots were minted
    /// in (f64 addition is not associative).
    #[must_use]
    pub fn average_view_similarity(&self) -> f64 {
        let values = self.view_similarities();
        if values.is_empty() {
            return 0.0;
        }
        values.iter().map(|(_, v)| v).sum::<f64>() / values.len() as f64
    }

    /// Opens a slot-space view: the index's read lock, then every shard's
    /// read lock in ascending order, held until the view drops. The batched
    /// sampler's one table read. Do not call another table method while
    /// holding a view: that would take a lock the view already holds.
    #[must_use]
    pub fn read(&self) -> SlotView<'_> {
        let index = self.index.read();
        SlotView {
            index,
            shards: std::array::from_fn(|shard| self.shards[shard].read()),
        }
    }
}

/// Read access to the whole table in slot space ([`UserTable::read`]):
/// after one keyed lookup per requester, every read is index arithmetic.
pub struct SlotView<'a> {
    index: RwLockReadGuard<'a, KeyedHashMap<UserId, Slot>>,
    shards: [RwLockReadGuard<'a, Shard>; SHARDS],
}

impl SlotView<'_> {
    /// `user`'s slot, if they own a profile.
    #[must_use]
    pub fn slot_of(&self, user: UserId) -> Option<Slot> {
        self.index.get(&user).copied()
    }

    /// Number of users who own a profile; their slots are `0..len()`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no user owns a profile.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The id behind a slot.
    ///
    /// # Panics
    /// If `slot` was never minted.
    #[must_use]
    pub fn id(&self, slot: Slot) -> UserId {
        let (shard, at) = locate(slot);
        self.shards[shard].ids[at]
    }

    /// The profile in `slot`.
    ///
    /// # Panics
    /// If `slot` was never minted.
    #[must_use]
    pub fn profile(&self, slot: Slot) -> &Arc<Profile> {
        let (shard, at) = locate(slot);
        &self.shards[shard].profiles[at]
    }

    /// The KNN row in `slot`, if one is stored.
    #[must_use]
    pub fn row(&self, slot: Slot) -> Option<&[(Slot, f64)]> {
        let (shard, at) = locate(slot);
        self.shards[shard].rows[at].as_deref()
    }
}

/// Ranks a write-back's resolved neighbours into a [`Row`]: by descending
/// similarity (ties and NaN keep input order), each slot's best entry only,
/// then the `k` best — [`Neighborhood::from_neighbors`] followed by
/// [`Neighborhood::truncate`], in slot space.
#[must_use]
pub fn ranked_row(mut neighbors: Vec<(Slot, f64)>, k: usize) -> Row {
    neighbors.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    // The first `k` distinct slots are all that is kept, so the dedup scan
    // stays within them.
    let mut kept = 0;
    for i in 0..neighbors.len() {
        if kept == k {
            break;
        }
        let entry = neighbors[i];
        if neighbors[..kept].iter().all(|&(slot, _)| slot != entry.0) {
            neighbors[kept] = entry;
            kept += 1;
        }
    }
    neighbors.truncate(kept);
    neighbors.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn hood(neighbors: &[(u32, f64)]) -> Neighborhood {
        Neighborhood::from_neighbors(neighbors.iter().map(|&(user, similarity)| Neighbor {
            user: UserId(user),
            similarity,
        }))
    }

    #[test]
    fn profile_record_and_get() {
        let t = UserTable::new();
        assert!(t.record(UserId(1), ItemId(5), Vote::Like));
        assert!(!t.record(UserId(1), ItemId(5), Vote::Like));
        assert!(t.contains(UserId(1)));
        assert_eq!(t.profile_of(UserId(1)).unwrap().liked_len(), 1);
        assert_eq!(t.profile_of(UserId(2)), None);
    }

    #[test]
    fn clear_memos_spares_in_flight_versions() {
        use crate::profile::MemoSlot;
        let t = UserTable::new();
        t.record(UserId(1), ItemId(5), Vote::Like);
        t.record(UserId(2), ItemId(6), Vote::Like);
        let in_flight = t.profile_of(UserId(1)).unwrap();
        for user in [UserId(1), UserId(2)] {
            let piece: crate::profile::Memoized = Arc::new(user);
            t.profile_of(user)
                .unwrap()
                .set_memo(MemoSlot::Candidate, piece)
                .unwrap();
        }
        t.clear_memos();
        for user in [UserId(1), UserId(2)] {
            let stored = t.profile_of(user).unwrap();
            assert!(stored.memo(MemoSlot::Candidate).is_none(), "{user}");
            assert_eq!(stored.liked_len(), 1);
        }
        // The held version was copied, not emptied.
        assert!(in_flight.memo(MemoSlot::Candidate).is_some());
        assert!(!Arc::ptr_eq(&in_flight, &t.profile_of(UserId(1)).unwrap()));
    }

    #[test]
    fn profile_with_avoids_clone() {
        // A view reads a profile in place; the slot is the only key.
        let t = UserTable::new();
        t.record(UserId(3), ItemId(1), Vote::Like);
        let view = t.read();
        let slot = view.slot_of(UserId(3)).unwrap();
        assert_eq!(view.profile(slot).liked_len(), 1);
        assert_eq!(view.id(slot), UserId(3));
        assert_eq!(view.slot_of(UserId(99)), None);
    }

    #[test]
    fn snapshot_contains_everything() {
        let t = UserTable::new();
        for u in 0..100u32 {
            t.record(UserId(u), ItemId(u), Vote::Like);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.snapshot().len(), 100);
    }

    #[test]
    fn knn_update_and_view_similarity() {
        let t = UserTable::new();
        t.record(UserId(1), ItemId(1), Vote::Like);
        t.record(UserId(2), ItemId(1), Vote::Like);
        t.update(UserId(1), hood(&[(2, 0.8)]));
        t.update(UserId(2), hood(&[(1, 0.4)]));
        assert!((t.average_view_similarity() - 0.6).abs() < 1e-12);
        assert_eq!(t.view_similarities().len(), 2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_tables() {
        let t = UserTable::new();
        assert!(t.is_empty());
        assert!(t.view_similarities().is_empty());
        assert_eq!(t.average_view_similarity(), 0.0);
        assert_eq!(t.knn_of(UserId(1)), None);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let table = Arc::new(UserTable::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let table = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    table.record(UserId(t * 1000 + i), ItemId(i), Vote::Like);
                    let _ = table.profile_of(UserId(i));
                    table.update(UserId(t * 1000 + i), hood(&[(i, 0.5)]));
                    let _ = table.knn_of(UserId(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(table.len(), 8 * 500);
        assert_eq!(table.view_similarities().len(), 8 * 500);
    }

    #[test]
    fn get_returns_shared_handle_not_copy() {
        let t = UserTable::new();
        t.record(UserId(5), ItemId(1), Vote::Like);
        let a = t.profile_of(UserId(5)).unwrap();
        let b = t.profile_of(UserId(5)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "get must share the stored allocation");
        // A write through record() must not mutate the held handle.
        t.record(UserId(5), ItemId(2), Vote::Like);
        assert_eq!(a.liked_len(), 1);
        assert_eq!(t.profile_of(UserId(5)).unwrap().liked_len(), 2);
    }

    #[test]
    fn get_many_matches_get_in_input_order() {
        let t = UserTable::new();
        for u in 0..200u32 {
            t.record(UserId(u), ItemId(u), Vote::Like);
        }
        // 300 is named as a neighbour but never votes, so, like 500, they
        // have no slot.
        t.update(UserId(7), hood(&[(300, 0.5)]));
        assert_eq!(t.slot_of(UserId(300)), None);
        let query: Vec<UserId> = [7u32, 500, 3, 3, 199, 300, 0, 42]
            .into_iter()
            .map(UserId)
            .collect();
        let batch = t.profiles_of(&query);
        assert_eq!(batch.len(), query.len());
        for (user, got) in query.iter().zip(&batch) {
            let single = t.profile_of(*user);
            assert_eq!(got.is_some(), single.is_some(), "mismatch for {user}");
            if let Some(profile) = got {
                assert!(Arc::ptr_eq(profile, &single.unwrap()));
            }
        }
    }

    #[test]
    fn record_many_matches_sequential_record() {
        let batched = UserTable::new();
        let sequential = UserTable::new();
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
        let batch_flags = batched.record_many(&votes);
        let seq_flags: Vec<bool> = votes
            .iter()
            .map(|&(user, item, vote)| sequential.record(user, item, vote))
            .collect();
        assert_eq!(batch_flags, seq_flags);
        assert_eq!(batched.len(), sequential.len());
        for &(user, _, _) in &votes {
            assert_eq!(
                batched.profile_of(user),
                sequential.profile_of(user),
                "user {user}"
            );
            // First votes mint slots in input order, however they batch.
            assert_eq!(batched.slot_of(user), sequential.slot_of(user));
        }
        // Empty batch is a no-op.
        assert!(batched.record_many(&[]).is_empty());
    }

    #[test]
    fn only_votes_mint_slots_in_first_vote_order() {
        let t = UserTable::new();
        t.record(UserId(2), ItemId(1), Vote::Like);
        // Rows mint nothing: neither naming user 65 as a neighbour nor
        // storing a row for user 9, who never voted.
        t.update(UserId(2), hood(&[(65, 0.5)]));
        t.update(UserId(9), hood(&[(2, 0.5)]));
        assert_eq!((t.slot_of(UserId(65)), t.slot_of(UserId(9))), (None, None));
        assert_eq!(t.knn_of(UserId(2)).unwrap().len(), 0);
        assert_eq!(t.knn_of(UserId(9)), None);
        let votes = [
            (UserId(1), ItemId(1), Vote::Like),
            (UserId(2), ItemId(2), Vote::Like),
            (UserId(1), ItemId(2), Vote::Dislike),
            (UserId(65), ItemId(1), Vote::Dislike),
            (UserId(65), ItemId(1), Vote::Dislike),
        ];
        assert_eq!(t.record_many(&votes), [true, true, true, true, false]);
        let slots: Vec<Option<Slot>> = [2, 1, 65].map(|u| t.slot_of(UserId(u))).into();
        assert_eq!(slots, [Some(0), Some(1), Some(2)]);
        assert_eq!(t.record_many(&votes), [false, false, false, false, false]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn knn_batch_ops_match_scalar_ops() {
        let batched = UserTable::new();
        let scalar = UserTable::new();
        for table in [&batched, &scalar] {
            for u in 0..102u32 {
                table.record(UserId(u), ItemId(u), Vote::Like);
            }
        }
        let entries: Vec<(UserId, Neighborhood)> = (0..100u32)
            .map(|u| {
                (
                    UserId(u),
                    hood(&[(u + 1, f64::from(u) / 100.0), (u + 2, 0.0)]),
                )
            })
            .collect();
        batched.update_many(entries.clone());
        for (user, hood) in entries.clone() {
            scalar.update(user, hood);
        }
        assert_eq!(batched.view_similarities(), scalar.view_similarities());
        for (user, hood) in &entries {
            assert_eq!(
                batched.knn_of(*user).as_ref(),
                Some(hood),
                "mismatch for {user}"
            );
            assert_eq!(batched.slot_of(*user), scalar.slot_of(*user));
        }
        assert_eq!(batched.knn_of(UserId(999)), None);
        // Rows mint nothing: user 101 keeps the slot of their vote.
        assert_eq!(batched.slot_of(UserId(101)), Some(101));
        assert_eq!(batched.len(), 102);
    }

    #[test]
    fn shard_distribution_is_reasonable() {
        // Slots fill shards round-robin, whatever the ids.
        let t = UserTable::new();
        let votes: Vec<(UserId, ItemId, Vote)> = (0..10_000u32)
            .map(|u| (UserId(u.wrapping_mul(2_654_435_761)), ItemId(0), Vote::Like))
            .collect();
        let _ = t.record_many(&votes);
        let counts: Vec<usize> = t.shards.iter().map(|s| s.read().ids.len()).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "shard imbalance: max={max} min={min}");
    }

    #[test]
    fn ids_sharing_one_fibonacci_shard_spread_over_slot_shards() {
        // The parent keyed shards by a fixed multiplicative hash of the raw
        // id; these 64k ids all hashed to its shard 0. Slots ignore the id.
        let fibonacci_shard =
            |user: u32| ((u64::from(user)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        let users: Vec<u32> = (0u32..)
            .filter(|&user| fibonacci_shard(user) == 0)
            .take(64_000)
            .collect();
        let votes: Vec<(UserId, ItemId, Vote)> = users
            .iter()
            .map(|&user| (UserId(user), ItemId(1), Vote::Like))
            .collect();
        let t = UserTable::new();
        for batch in votes.chunks(1000) {
            let _ = t.record_many(batch);
        }
        assert_eq!(t.len(), 64_000);
        let mean = 64_000 / SHARDS;
        for (shard, columns) in t.shards.iter().enumerate() {
            let held = columns.read().ids.len();
            assert!(held <= 2 * mean, "shard {shard} holds {held}, mean {mean}");
        }
    }

    #[test]
    fn average_view_similarity_sums_rows_in_user_id_order() {
        // Users 20 and 30 get slots before user 10, and the similarities are
        // chosen so that summing in slot order rounds differently.
        let t = UserTable::new();
        for user in [20, 30, 40, 10, 50, 60, 70] {
            t.record(UserId(user), ItemId(1), Vote::Like);
        }
        let rows: [(u32, &[(u32, f64)]); 5] = [
            (20, &[(30, 1.0e-16)]),
            (30, &[(20, 1.0e-16)]),
            (40, &[]),
            (10, &[(20, 1.0)]),
            (50, &[(70, 0.75), (60, 0.25)]),
        ];
        for (user, neighbors) in rows {
            t.update(UserId(user), hood(neighbors));
        }
        // 60 and 70 own profiles but no rows, so neither counts.

        let reference = BTreeMap::from([
            (UserId(10), 1.0),
            (UserId(20), 1.0e-16),
            (UserId(30), 1.0e-16),
            (UserId(40), 0.0), // an empty row counts as 0.0
            (UserId(50), 0.5),
        ]);
        let expected = reference.values().sum::<f64>() / reference.len() as f64;
        assert_eq!(t.average_view_similarity().to_bits(), expected.to_bits());

        let mut by_slot: Vec<(Slot, f64)> = reference
            .iter()
            .map(|(&user, &v)| (t.slot_of(user).unwrap(), v))
            .collect();
        by_slot.sort_unstable_by_key(|&(slot, _)| slot);
        let in_slot_order = by_slot.iter().map(|(_, v)| v).sum::<f64>() / by_slot.len() as f64;
        assert_ne!(in_slot_order.to_bits(), expected.to_bits());
        let users: Vec<UserId> = t.view_similarities().iter().map(|&(u, _)| u).collect();
        assert!(users.iter().eq(reference.keys()));
    }

    #[test]
    fn ranked_row_matches_neighborhood_ranking() {
        let entries = [
            (4, 0.2),
            (1, 0.9),
            (4, 0.7),
            (2, f64::NAN),
            (3, 0.9),
            (1, 0.1),
        ];
        for k in 0..7 {
            let row = ranked_row(entries.to_vec(), k);
            let mut expected = hood(&entries.map(|(slot, similarity)| (slot, similarity)));
            expected.truncate(k);
            let got = row.to_vec();
            let want: Vec<(u32, f64)> = expected.iter().map(|n| (n.user.0, n.similarity)).collect();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "k = {k}");
        }
    }
}
