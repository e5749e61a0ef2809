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
//!
//! [`DefaultSampler`] works in slot space (`hyrec_core::tables`): stored
//! KNN rows name neighbours by slot, every slot is a user who owns a
//! profile (slot `i` is the `i`-th profile created, so [`random_slots`]
//! draws users), and one [`SlotView`] per batch serves every row, profile
//! and id as a column read. The only keyed lookups are the requesters' own
//! ids; a candidate is never hashed by id, and the set's dedup is a small
//! open-addressed set of slots sized from the paper's bound.

use hyrec_core::{
    candidate_set_bound, CandidateProfile, CandidateSet, Profile, Slot, SlotView, UserId, UserTable,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Read-only view of server state handed to samplers.
pub struct SamplerContext<'a> {
    /// The global profile and KNN table.
    pub table: &'a UserTable,
}

/// Draws `n` users' slots uniformly at random (with replacement across
/// draws, deduplicated by the candidate set downstream); none from an empty
/// table. Every slot below `view.len()` owns a profile.
pub fn random_slots(view: &SlotView<'_>, n: usize, rng: &mut StdRng) -> Vec<Slot> {
    let users = view.len();
    if users == 0 {
        return Vec::new();
    }
    (0..n)
        .map(|_| Slot::try_from(rng.gen_range(0..users)).expect("slots are u32"))
        .collect()
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

    /// Candidate assembly for a batch, in slot space.
    ///
    /// Each user's set holds, in order and first occurrence only, their
    /// KNN row, each neighbour's row and `random_candidates` random users,
    /// minus the requester. One [`SlotView`] serves the whole batch: the
    /// random legs are drawn first ([`random_slots`]), then one index lookup
    /// per requester, then rows, profiles and ids by slot. Every profile is
    /// the table's own `Arc`.
    fn sample_batch(
        &self,
        users: &[UserId],
        k: usize,
        random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<CandidateSet> {
        // Random legs (they bootstrap new users and keep the gossip out of
        // local optima) first, in user order: the back-to-back draws consume
        // the RNG exactly as per-user draws do. An empty table draws
        // nothing, so every leg is empty.
        let view = ctx.table.read();
        let random = random_slots(&view, random_candidates * users.len(), rng);
        let mut builder = SetBuilder::new(candidate_set_bound(k));
        users
            .iter()
            .enumerate()
            .map(|(i, &user)| {
                let requester = view.slot_of(user);
                let row = requester
                    .and_then(|slot| view.row(slot))
                    .unwrap_or_default();
                let two_hop = row
                    .iter()
                    .flat_map(|&(v, _)| view.row(v).unwrap_or_default());
                let random_leg = random
                    .get(i * random_candidates..(i + 1) * random_candidates)
                    .unwrap_or_default();
                let candidates = row
                    .iter()
                    .chain(two_hop)
                    .map(|&(slot, _)| slot)
                    .chain(random_leg.iter().copied());
                builder.build(&view, requester, candidates)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "default"
    }
}

/// "No slot here" in [`SetBuilder`]'s buckets; never minted.
const EMPTY: Slot = Slot::MAX;

/// Builds candidate sets from slots: first occurrence only, never the
/// requester. Reused across a batch, so its cost does not grow with the
/// population.
///
/// The dedup set is open addressing over a power-of-two bucket array kept
/// at most half full (Fibonacci hashing of the slot); `picked` lists the
/// set's slots with their profiles in insertion order and is what a rehash
/// replays.
struct SetBuilder<'v> {
    buckets: Vec<Slot>,
    /// `64 - log2(buckets.len())`: the hash keeps the product's top bits.
    shift: u32,
    picked: Vec<(Slot, &'v Arc<Profile>)>,
}

impl<'v> SetBuilder<'v> {
    /// A builder whose buckets hold `bound` slots without growing.
    fn new(bound: usize) -> Self {
        let buckets = (2 * bound).next_power_of_two().max(16);
        Self {
            buckets: vec![EMPTY; buckets],
            shift: 64 - buckets.trailing_zeros(),
            picked: Vec::with_capacity(bound),
        }
    }

    fn bucket(&self, slot: Slot) -> usize {
        (u64::from(slot).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Adds `slot` with its profile unless the set holds it already.
    fn insert(&mut self, slot: Slot, profile: &'v Arc<Profile>) {
        if 2 * (self.picked.len() + 1) > self.buckets.len() {
            self.buckets = vec![EMPTY; 2 * self.buckets.len()];
            self.shift -= 1;
            for i in 0..self.picked.len() {
                let at = self.probe(self.picked[i].0);
                self.buckets[at] = self.picked[i].0;
            }
        }
        let at = self.probe(slot);
        if self.buckets[at] != slot {
            self.buckets[at] = slot;
            self.picked.push((slot, profile));
        }
    }

    /// The bucket holding `slot`, or the empty one where it would go.
    fn probe(&self, slot: Slot) -> usize {
        let mask = self.buckets.len() - 1;
        let mut at = self.bucket(slot);
        while self.buckets[at] != EMPTY && self.buckets[at] != slot {
            at = (at + 1) & mask;
        }
        at
    }

    /// The candidate set of `requester` over `candidates`, in order.
    fn build(
        &mut self,
        view: &'v SlotView<'_>,
        requester: Option<Slot>,
        candidates: impl IntoIterator<Item = Slot>,
    ) -> CandidateSet {
        if !self.picked.is_empty() {
            self.buckets.fill(EMPTY);
            self.picked.clear();
        }
        for slot in candidates {
            if Some(slot) != requester {
                self.insert(slot, view.profile(slot));
            }
        }
        CandidateSet::from_deduped(
            self.picked
                .iter()
                .map(|&(slot, profile)| CandidateProfile {
                    user: view.id(slot),
                    profile: Arc::clone(profile),
                })
                .collect(),
        )
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
        let view = ctx.table.read();
        let random = random_slots(&view, budget, rng);
        SetBuilder::new(budget).build(&view, view.slot_of(user), random)
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

    fn context() -> UserTable {
        let table = UserTable::new();
        for u in 0..50u32 {
            table.record(UserId(u), ItemId(u % 7), Vote::Like);
        }
        table
    }

    fn hood(users: &[u32]) -> Neighborhood {
        Neighborhood::from_neighbors(users.iter().map(|&u| Neighbor {
            user: UserId(u),
            similarity: 0.5,
        }))
    }

    #[test]
    fn aggregates_one_hop_two_hop_and_random() {
        let table = context();
        table.update(UserId(0), hood(&[1, 2]));
        table.update(UserId(1), hood(&[3, 4]));
        table.update(UserId(2), hood(&[5]));
        let ctx = SamplerContext { table: &table };
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
        let table = context();
        // Fully-populated tables: every user has k neighbours.
        let k = 5usize;
        for u in 0..50u32 {
            let others: Vec<u32> = (0..50)
                .filter(|&v| v != u)
                .take(k as u32 as usize)
                .collect();
            table.update(UserId(u), hood(&others));
        }
        let ctx = SamplerContext { table: &table };
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
        let table = context();
        let ctx = SamplerContext { table: &table };
        let mut rng = StdRng::seed_from_u64(3);
        // No KNN entry for u0 yet: candidates come only from the random leg.
        let set = DefaultSampler.sample(UserId(0), 10, 10, &ctx, &mut rng);
        assert!(!set.is_empty());
        assert!(set.len() <= 10);
    }

    #[test]
    fn empty_table_yields_empty_set() {
        let table = UserTable::new();
        let ctx = SamplerContext { table: &table };
        let mut rng = StdRng::seed_from_u64(4);
        let set = DefaultSampler.sample(UserId(0), 10, 10, &ctx, &mut rng);
        assert!(set.is_empty());
    }

    #[test]
    fn candidates_without_profiles_are_skipped() {
        let table = UserTable::new();
        // u1 is in u0's neighbourhood but never voted: the table stores
        // the row without them.
        table.record(UserId(0), ItemId(0), Vote::Like);
        table.update(UserId(0), hood(&[1]));
        let ctx = SamplerContext { table: &table };
        let mut rng = StdRng::seed_from_u64(5);
        let set = DefaultSampler.sample(UserId(0), 2, 0, &ctx, &mut rng);
        assert!(set.is_empty());
    }

    #[test]
    fn sets_past_the_bound_keep_every_first_occurrence() {
        // A direct update may store a row longer than `k`: the dedup set
        // grows past its initial size, keeps insertion order, and is reused
        // by the next requester of the batch.
        let table = context();
        let row: Vec<u32> = (1..50).rev().collect();
        let others: Vec<u32> = (0..49).collect();
        table.update(UserId(0), hood(&row));
        table.update(UserId(49), hood(&others));
        let ctx = SamplerContext { table: &table };
        let mut rng = StdRng::seed_from_u64(8);
        let users = [UserId(0), UserId(49), UserId(0)];
        let sets = DefaultSampler.sample_batch(&users, 1, 0, &ctx, &mut rng);
        let ids = |set: &CandidateSet| set.iter().map(|c| c.user.0).collect::<Vec<_>>();
        assert_eq!(ids(&sets[0]), row);
        assert_eq!(ids(&sets[1]), others);
        assert_eq!(sets[2], sets[0]);
    }

    #[test]
    fn ablation_samplers_have_names() {
        assert_eq!(DefaultSampler.name(), "default");
        assert_eq!(RandomOnlySampler.name(), "random-only");
        assert_eq!(NoRandomSampler.name(), "no-random");
    }

    #[test]
    fn no_random_sampler_is_empty_without_knn() {
        let table = context();
        let ctx = SamplerContext { table: &table };
        let mut rng = StdRng::seed_from_u64(6);
        let set = NoRandomSampler.sample(UserId(0), 5, 5, &ctx, &mut rng);
        assert!(set.is_empty(), "no-random sampler cannot bootstrap");
    }

    #[test]
    fn random_only_excludes_requester() {
        let table = context();
        let ctx = SamplerContext { table: &table };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let set = RandomOnlySampler.sample(UserId(3), 3, 3, &ctx, &mut rng);
            assert!(!set.contains(UserId(3)));
        }
    }
}
