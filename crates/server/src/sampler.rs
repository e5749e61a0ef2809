//! The Sampler — Section 3.1's candidate-set construction.
//!
//! "The sampler samples a candidate set `S_u(t)` for a user `u` at time `t`
//! by aggregating three sets: (i) the current approximation of `u`'s KNN,
//! `N_u`, (ii) the current KNN of the users in `N_u`, and (iii) `k` random
//! users."
//!
//! The [`Sampler`] trait is the paper's `interface Sampler {…}` (Table 1):
//! content providers can swap the strategy without touching the
//! orchestrator. The server calls [`Sampler::sample_batch`] only, a lone
//! request being a batch of one.

use hyrec_core::{CandidateSet, KnnTable, ProfileTable, UserId};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// Read-only view of server state handed to samplers.
pub struct SamplerContext<'a> {
    /// The global profile table.
    pub profiles: &'a ProfileTable,
    /// The global KNN table.
    pub knn: &'a KnnTable,
    /// Registry of all user ids ever seen (for uniform random picks).
    pub directory: &'a UserDirectory,
}

/// Append-only registry of user ids supporting O(1) uniform sampling.
///
/// The profile table shards make "pick a uniformly random user" awkward;
/// this directory keeps a flat list, which also matches the paper's server
/// that knows the full user population. It keeps no membership set: the
/// server registers a user exactly once, where the profile table reports
/// that their first vote created their profile
/// (`HyRecServer::record_many`).
#[derive(Debug, Default)]
pub struct UserDirectory {
    list: RwLock<Vec<UserId>>,
}

impl UserDirectory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a user. Each user must be registered once: a repeat would
    /// double their weight in the random leg.
    pub fn register(&self, user: UserId) {
        self.list.write().push(user);
    }

    /// Number of registered users.
    #[must_use]
    pub fn len(&self) -> usize {
        self.list.read().len()
    }

    /// True when no user is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.list.read().is_empty()
    }

    /// Draws up to `n` users uniformly at random (with replacement across
    /// draws, deduplicated by the candidate set downstream).
    pub fn random_users(&self, n: usize, rng: &mut StdRng) -> Vec<UserId> {
        let users = self.list.read();
        if users.is_empty() {
            return Vec::new();
        }
        (0..n)
            .map(|_| users[rng.gen_range(0..users.len())])
            .collect()
    }

    /// Snapshot of all registered users.
    #[must_use]
    pub fn snapshot(&self) -> Vec<UserId> {
        self.list.read().clone()
    }
}

/// A candidate-set construction strategy (Table 1's `Sampler` interface).
pub trait Sampler: Send + Sync {
    /// Builds the candidate set for `user`.
    ///
    /// Implementations must not include `user` itself (self-similarity is
    /// trivially 1.0 and would poison the KNN) and should respect the
    /// paper's size bound for comparability.
    fn sample(
        &self,
        user: UserId,
        k: usize,
        random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut StdRng,
    ) -> CandidateSet;

    /// Builds candidate sets for a whole batch of users.
    ///
    /// The default implementation loops [`Self::sample`]; strategies that
    /// can amortize table traffic across the batch (see [`DefaultSampler`])
    /// override it, and may then implement `sample` as a batch of one.
    /// Implementations must return one set per user, in input order, and
    /// must consume the RNG exactly as the sequential loop would so any
    /// split of a request stream into batches replays identically.
    fn sample_batch(
        &self,
        users: &[UserId],
        k: usize,
        random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<CandidateSet> {
        users
            .iter()
            .map(|&user| self.sample(user, k, random_candidates, ctx, rng))
            .collect()
    }

    /// Short stable name for experiment output.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The paper's sampler: `N_u ∪ KNN(N_u) ∪ random`.
///
/// [`Sampler::sample_batch`] holds the only candidate-assembly body;
/// [`Sampler::sample`] runs it on a batch of one, so a lone request and a
/// coalesced batch produce the same sets from the same RNG stream by
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefaultSampler;

impl Sampler for DefaultSampler {
    fn sample(
        &self,
        user: UserId,
        k: usize,
        random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut StdRng,
    ) -> CandidateSet {
        self.sample_batch(std::slice::from_ref(&user), k, random_candidates, ctx, rng)
            .pop()
            .expect("one user in, one set out")
    }

    /// Candidate assembly for a batch, with table traffic amortized.
    ///
    /// Each user's set holds, in order and first occurrence only, their
    /// KNN, their neighbours' KNN and `random_candidates` random users,
    /// minus the requester and users without a profile. Every table read
    /// is staged: neighbourhoods and profiles come through the tables'
    /// batch reads (one lock per touched shard per stage), each distinct
    /// neighbour's KNN is read once per batch, and each distinct candidate
    /// profile is fetched once and fanned out as `Arc` clones — converged
    /// tables make a batch's candidates overlap heavily.
    ///
    /// Every candidate id is hashed once, into a batch-wide slot. A slot's
    /// "last user" tag dedups within a set, and the slot itself dedups
    /// across the batch.
    fn sample_batch(
        &self,
        users: &[UserId],
        k: usize,
        random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<CandidateSet> {
        // Random legs (they bootstrap new users and keep the gossip out of
        // local optima) first, in user order, under one directory lock: the
        // back-to-back draws consume the RNG exactly as per-user draws do.
        // An empty directory draws nothing, so every leg is empty.
        let random = ctx
            .directory
            .random_users(random_candidates * users.len(), rng);
        let random_leg = |i: usize| {
            random
                .get(i * random_candidates..(i + 1) * random_candidates)
                .unwrap_or_default()
        };

        let mut slots = Slots::with_capacity(users.len() * (k + k * k + random_candidates));
        // Neighbour lists as slots in one flat buffer: first the batch's
        // 1-hop lists (ids extracted under the shard locks; no Neighborhood
        // is cloned), then the 2-hop list of each distinct 1-hop neighbour,
        // read once per batch.
        let mut hops = Vec::with_capacity(users.len() * (k + k * k));
        let one_hop_spans = ctx
            .knn
            .map_many(users, |hood| slots.extend(&mut hops, hood));
        let mut hop_of = vec![NONE; slots.ids.len()];
        let mut hop_ids = Vec::with_capacity(hops.len());
        for &v in &hops {
            if hop_of[v as usize] == NONE {
                hop_of[v as usize] = hop_ids.len() as u32;
                hop_ids.push(slots.ids[v as usize]);
            }
        }
        let two_hop_spans = ctx
            .knn
            .map_many(&hop_ids, |hood| slots.extend(&mut hops, hood));

        // Each user's picks, in insertion order, concatenated flat.
        let mut picked = Vec::with_capacity(hops.len() + random.len());
        let mut spans = Vec::with_capacity(users.len());
        // A batch position is its set's `u32` owner tag (`NONE` excluded).
        assert!(users.len() < NONE as usize, "batch of 2^32 users or more");
        for (owner, &user) in (0u32..).zip(users) {
            let start = picked.len();
            let one_hop = &hops[one_hop_spans[owner as usize].clone().unwrap_or_default()];
            for &v in one_hop {
                slots.pick(v, owner, user, &mut picked);
            }
            for &v in one_hop {
                let two_hop = two_hop_spans[hop_of[v as usize] as usize].clone();
                for &w in &hops[two_hop.unwrap_or_default()] {
                    slots.pick(w, owner, user, &mut picked);
                }
            }
            for &w in random_leg(owner as usize) {
                let w = slots.slot(w);
                slots.pick(w, owner, user, &mut picked);
            }
            spans.push(start..picked.len());
        }

        // One fetch per distinct candidate. A set takes the fetched handle
        // itself when it is the slot's last user, a clone otherwise.
        let mut profiles = ctx.profiles.get_many(&slots.ids);
        let mut sets = Vec::with_capacity(users.len());
        for (owner, span) in (0u32..).zip(spans) {
            let mut members = Vec::with_capacity(span.len());
            for &slot in &picked[span] {
                let slot = slot as usize;
                let profile = if slots.last[slot] == owner {
                    profiles[slot].take()
                } else {
                    profiles[slot].clone()
                };
                if let Some(profile) = profile {
                    members.push(hyrec_core::CandidateProfile {
                        user: slots.ids[slot],
                        profile,
                    });
                }
            }
            sets.push(CandidateSet::from_deduped(members));
        }
        sets
    }

    fn name(&self) -> &'static str {
        "default"
    }
}

/// "No slot" / "no user yet" marker.
const NONE: u32 = u32::MAX;

/// The batch-wide slot table of [`DefaultSampler::sample_batch`]: every
/// distinct candidate id gets one `u32` slot, found by one hash lookup.
struct Slots {
    index: hyrec_core::FastHashMap<UserId, u32>,
    /// The id of each slot.
    ids: Vec<UserId>,
    /// The batch position of the last user whose set took the slot.
    last: Vec<u32>,
}

impl Slots {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            index: hyrec_core::FastHashMap::with_capacity_and_hasher(capacity, Default::default()),
            ids: Vec::with_capacity(capacity),
            last: Vec::with_capacity(capacity),
        }
    }

    /// The slot of `id`, created on first sight.
    fn slot(&mut self, id: UserId) -> u32 {
        *self.index.entry(id).or_insert_with(|| {
            self.ids.push(id);
            self.last.push(NONE);
            u32::try_from(self.ids.len() - 1).expect("fewer than 2^32 candidates per batch")
        })
    }

    /// Appends the slots of `hood`'s users to `hops`, returning their span.
    fn extend(&mut self, hops: &mut Vec<u32>, hood: &hyrec_core::Neighborhood) -> Range<usize> {
        let start = hops.len();
        hops.extend(hood.users().map(|user| self.slot(user)));
        start..hops.len()
    }

    /// Appends `slot` to the set of the user at batch position `owner`
    /// unless it is that user or the set already holds it.
    fn pick(&mut self, slot: u32, owner: u32, requester: UserId, picked: &mut Vec<u32>) {
        let index = slot as usize;
        if self.last[index] != owner && self.ids[index] != requester {
            self.last[index] = owner;
            picked.push(slot);
        }
    }
}

/// Ablation sampler: random users only (no gossip structure). Converges far
/// more slowly — used to quantify the value of the 2-hop feedback loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomOnlySampler;

impl Sampler for RandomOnlySampler {
    fn sample(
        &self,
        user: UserId,
        k: usize,
        random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut StdRng,
    ) -> CandidateSet {
        let budget = k + k * k + random_candidates;
        let mut set = CandidateSet::with_capacity(budget);
        for w in ctx.directory.random_users(budget, rng) {
            if w != user && !set.contains(w) {
                if let Some(profile) = ctx.profiles.get(w) {
                    set.insert(w, profile);
                }
            }
        }
        set
    }

    fn name(&self) -> &'static str {
        "random-only"
    }
}

/// Ablation sampler: neighbours and 2-hop only, no random injection. Prone
/// to getting stuck in local optima exactly as Section 3.1 warns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoRandomSampler;

impl Sampler for NoRandomSampler {
    fn sample(
        &self,
        user: UserId,
        k: usize,
        _random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut StdRng,
    ) -> CandidateSet {
        DefaultSampler.sample(user, k, 0, ctx, rng)
    }

    fn name(&self) -> &'static str {
        "no-random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_core::{ItemId, Neighbor, Neighborhood, Vote};
    use rand::SeedableRng;

    fn context() -> (ProfileTable, KnnTable, UserDirectory) {
        let profiles = ProfileTable::new();
        let knn = KnnTable::new();
        let directory = UserDirectory::new();
        for u in 0..50u32 {
            profiles.record(UserId(u), ItemId(u % 7), Vote::Like);
            directory.register(UserId(u));
        }
        (profiles, knn, directory)
    }

    fn hood(users: &[u32]) -> Neighborhood {
        Neighborhood::from_neighbors(users.iter().map(|&u| Neighbor {
            user: UserId(u),
            similarity: 0.5,
        }))
    }

    #[test]
    fn aggregates_one_hop_two_hop_and_random() {
        let (profiles, knn, directory) = context();
        knn.update(UserId(0), hood(&[1, 2]));
        knn.update(UserId(1), hood(&[3, 4]));
        knn.update(UserId(2), hood(&[5]));
        let ctx = SamplerContext {
            profiles: &profiles,
            knn: &knn,
            directory: &directory,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let set = DefaultSampler.sample(UserId(0), 2, 2, &ctx, &mut rng);

        for expected in [1u32, 2, 3, 4, 5] {
            assert!(set.contains(UserId(expected)), "missing u{expected}");
        }
        // Requester never appears.
        assert!(!set.contains(UserId(0)));
    }

    #[test]
    fn respects_size_bound() {
        let (profiles, knn, directory) = context();
        // Fully-populated tables: every user has k neighbours.
        let k = 5usize;
        for u in 0..50u32 {
            let others: Vec<u32> = (0..50)
                .filter(|&v| v != u)
                .take(k as u32 as usize)
                .collect();
            knn.update(UserId(u), hood(&others));
        }
        let ctx = SamplerContext {
            profiles: &profiles,
            knn: &knn,
            directory: &directory,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for u in 0..50u32 {
            let set = DefaultSampler.sample(UserId(u), k, k, &ctx, &mut rng);
            assert!(
                set.len() <= hyrec_core::candidate_set_bound(k),
                "candidate set {} exceeds bound {}",
                set.len(),
                hyrec_core::candidate_set_bound(k)
            );
        }
    }

    #[test]
    fn bootstrap_user_gets_random_candidates() {
        let (profiles, knn, directory) = context();
        let ctx = SamplerContext {
            profiles: &profiles,
            knn: &knn,
            directory: &directory,
        };
        let mut rng = StdRng::seed_from_u64(3);
        // No KNN entry for u0 yet: candidates come only from the random leg.
        let set = DefaultSampler.sample(UserId(0), 10, 10, &ctx, &mut rng);
        assert!(!set.is_empty());
        assert!(set.len() <= 10);
    }

    #[test]
    fn empty_directory_yields_empty_set() {
        let profiles = ProfileTable::new();
        let knn = KnnTable::new();
        let directory = UserDirectory::new();
        let ctx = SamplerContext {
            profiles: &profiles,
            knn: &knn,
            directory: &directory,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let set = DefaultSampler.sample(UserId(0), 10, 10, &ctx, &mut rng);
        assert!(set.is_empty());
    }

    #[test]
    fn candidates_without_profiles_are_skipped() {
        let profiles = ProfileTable::new();
        let knn = KnnTable::new();
        let directory = UserDirectory::new();
        // u1 is in u0's KNN but has no profile (e.g. purged).
        knn.update(UserId(0), hood(&[1]));
        directory.register(UserId(0));
        let ctx = SamplerContext {
            profiles: &profiles,
            knn: &knn,
            directory: &directory,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let set = DefaultSampler.sample(UserId(0), 2, 0, &ctx, &mut rng);
        assert!(set.is_empty());
    }

    #[test]
    fn ablation_samplers_have_names() {
        assert_eq!(DefaultSampler.name(), "default");
        assert_eq!(RandomOnlySampler.name(), "random-only");
        assert_eq!(NoRandomSampler.name(), "no-random");
    }

    #[test]
    fn no_random_sampler_is_empty_without_knn() {
        let (profiles, knn, directory) = context();
        let ctx = SamplerContext {
            profiles: &profiles,
            knn: &knn,
            directory: &directory,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let set = NoRandomSampler.sample(UserId(0), 5, 5, &ctx, &mut rng);
        assert!(set.is_empty(), "no-random sampler cannot bootstrap");
    }

    #[test]
    fn random_only_excludes_requester() {
        let (profiles, knn, directory) = context();
        let ctx = SamplerContext {
            profiles: &profiles,
            knn: &knn,
            directory: &directory,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let set = RandomOnlySampler.sample(UserId(3), 3, 3, &ctx, &mut rng);
            assert!(!set.contains(UserId(3)));
        }
    }
}
