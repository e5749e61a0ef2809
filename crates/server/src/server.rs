//! The HyRec server: global tables + sampler + personalization orchestrator.

use crate::anonymize::AnonymousMapping;
use crate::config::{HyRecConfig, HyRecConfigBuilder};
use crate::sampler::{DefaultSampler, Sampler, SamplerContext};
use hyrec_core::tables::ranked_row;
use hyrec_core::{
    CandidateProfile, CandidateSet, ItemId, Neighborhood, Profile, UserId, UserTable, Vote,
};
use hyrec_sched::RejectReason;
use hyrec_wire::{KnnUpdate, PersonalizationJob};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The HyRec server (Figure 1, bottom): orchestrates browser-side
/// personalization while owning the global Profile and KNN tables.
///
/// All methods take `&self`; the server is meant to be shared across request
/// threads (`Arc<HyRecServer>` in the HTTP front-end).
///
/// ```
/// use hyrec_core::{ItemId, UserId, Vote};
/// use hyrec_server::HyRecServer;
/// use hyrec_client::Widget;
///
/// let server = HyRecServer::new();
/// server.record(UserId(1), ItemId(10), Vote::Like);
/// server.record(UserId(2), ItemId(10), Vote::Like);
///
/// // One full HyRec interaction (arrows 1-3 of Figure 1):
/// let job = server.build_job(UserId(1));
/// let out = Widget::new().run_job(&job);
/// server.apply_update(&out.update);
/// ```
pub struct HyRecServer {
    config: HyRecConfig,
    table: UserTable,
    sampler: Box<dyn Sampler>,
    anonymizer: Mutex<AnonymousMapping>,
    rng: Mutex<StdRng>,
    requests_served: AtomicU64,
    updates_applied: AtomicU64,
}

impl std::fmt::Debug for HyRecServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HyRecServer")
            .field("config", &self.config)
            .field("users", &self.table.len())
            .field("sampler", &self.sampler.name())
            .finish()
    }
}

impl Default for HyRecServer {
    fn default() -> Self {
        Self::new()
    }
}

impl HyRecServer {
    /// Creates a server with the paper's default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(HyRecConfig::default())
    }

    /// Creates a server from a configuration.
    #[must_use]
    pub fn with_config(config: HyRecConfig) -> Self {
        Self::with_sampler(config, DefaultSampler)
    }

    /// Creates a server with a custom sampling strategy (Table 1's
    /// `Sampler` interface).
    #[must_use]
    pub fn with_sampler(config: HyRecConfig, sampler: impl Sampler + 'static) -> Self {
        let seed = config.seed;
        Self {
            config,
            table: UserTable::new(),
            sampler: Box::new(sampler),
            anonymizer: Mutex::new(AnonymousMapping::new(seed ^ 0xA11CE)),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            requests_served: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
        }
    }

    /// Shorthand for `HyRecConfig::builder()` + `HyRecServer::with_config`.
    #[must_use]
    pub fn builder() -> HyRecConfigBuilder<Self> {
        HyRecConfigBuilder::default()
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &HyRecConfig {
        &self.config
    }

    /// Records a rating into the user's profile (arrow 1 of Figure 1: the
    /// server "first updates u's profile in its global data structure").
    ///
    /// Returns `true` when the vote changed the profile. A one-vote
    /// [`Self::record_many`].
    pub fn record(&self, user: UserId, item: ItemId, vote: Vote) -> bool {
        self.record_many(&[(user, item, vote)])[0]
    }

    /// Ingests a burst of votes through [`UserTable::record_many`], which
    /// takes each touched shard's write lock once for the whole batch
    /// instead of once per vote, and is the only place a user is created:
    /// a voter's first vote creates their profile and slot, which the
    /// sampler's random leg draws from. Change flags come back in input
    /// order. This is the ingestion entry point for coalescing `/rate/`
    /// front-ends.
    #[must_use]
    pub fn record_many(&self, votes: &[(UserId, ItemId, Vote)]) -> Vec<bool> {
        self.table.record_many(votes)
    }

    /// Number of users known to the server: those who own a profile.
    #[must_use]
    pub fn user_count(&self) -> usize {
        self.table.len()
    }

    /// Shared handle to a user's profile, if any.
    #[must_use]
    pub fn profile_of(&self, user: UserId) -> Option<Arc<Profile>> {
        self.table.profile_of(user)
    }

    /// Clone of a user's current KNN approximation, if any.
    #[must_use]
    pub fn knn_of(&self, user: UserId) -> Option<Neighborhood> {
        self.table.knn_of(user)
    }

    /// Direct access to the profile and KNN table (offline back-ends,
    /// metrics, and simulators that seed neighbourhoods).
    #[must_use]
    pub fn table(&self) -> &UserTable {
        &self.table
    }

    /// Average view similarity across the KNN table (Figures 3–4).
    #[must_use]
    pub fn average_view_similarity(&self) -> f64 {
        self.table.average_view_similarity()
    }

    /// Builds the personalization job for `user` (arrow 2 of Figure 1): a
    /// batch of one through [`Self::build_jobs`].
    #[must_use]
    pub fn build_job(&self, user: UserId) -> PersonalizationJob {
        self.build_jobs(std::slice::from_ref(&user))
            .pop()
            .expect("one user in, one job out")
    }

    /// Replaces each candidate's id with its pseudonym under the current
    /// epoch, with the anonymizer lock already held (taken once per batch
    /// of jobs). Profiles pass through as the table's own `Arc`s.
    fn pseudonymize(raw: CandidateSet, anonymizer: &mut AnonymousMapping) -> CandidateSet {
        // Pseudonymization is injective within an epoch, so the input's
        // uniqueness survives and the output set needs no re-hashed dedup
        // index.
        let members = raw
            .into_vec()
            .into_iter()
            .map(|c| CandidateProfile {
                user: anonymizer.pseudonymize(c.user),
                profile: c.profile,
            })
            .collect();
        CandidateSet::from_deduped(members)
    }

    /// Builds personalization jobs for a whole batch of users.
    ///
    /// The sampler assembles each candidate set; candidate user ids are
    /// pseudonymized under the current anonymization epoch when the config
    /// says so. An unknown user receives an empty profile and whatever the
    /// random leg of the sampler provides — exactly how cold-start behaves
    /// in the paper (new users start with random neighbours).
    ///
    /// This is the only job builder ([`Self::build_job`] is a batch of
    /// one), so any split of a request stream into batches yields the same
    /// jobs: same candidate sets, same RNG stream, same pseudonyms. Locks,
    /// each taken once per batch and released before the next:
    ///
    /// 1. one `SlotView` of the table (its index, then every shard in
    ///    ascending order) for the requester profiles
    ///    ([`UserTable::profiles_of`]);
    /// 2. the RNG, held while the sampler runs; inside it a second
    ///    `SlotView` for the whole batch (random legs, then candidates);
    /// 3. the anonymizer, only when `anonymize_users` is set.
    ///
    /// Every profile in a job is the table's own `Arc`.
    #[must_use]
    pub fn build_jobs(&self, users: &[UserId]) -> Vec<PersonalizationJob> {
        self.requests_served
            .fetch_add(users.len() as u64, Ordering::Relaxed);
        let ctx = SamplerContext { table: &self.table };
        let profiles = self.table.profiles_of(users);
        let candidate_sets = {
            let mut rng = self.rng.lock();
            let k = self.config.k;
            self.sampler.sample_batch(users, k, k, &ctx, &mut rng)
        };
        let mut anonymizer = self.config.anonymize_users.then(|| self.anonymizer.lock());
        users
            .iter()
            .zip(profiles)
            .zip(candidate_sets)
            .map(|((&user, profile), candidates)| PersonalizationJob {
                uid: user,
                k: self.config.k,
                r: self.config.r,
                lease: 0,
                epoch: 0,
                profile: profile.unwrap_or_default(),
                candidates: match &mut anonymizer {
                    Some(anonymizer) => Self::pseudonymize(candidates, anonymizer),
                    None => candidates,
                },
            })
            .collect()
    }

    /// Applies a KNN update sent back by a widget (arrow 3 of Figure 1): a
    /// batch of one through [`Self::apply_updates`].
    pub fn apply_update(&self, update: &KnnUpdate) {
        self.apply_updates(std::slice::from_ref(update));
    }

    /// Applies a batch of KNN updates: [`Self::admit_and_apply`] admitting
    /// every update, so each one whose uid owns a profile is stored.
    /// Updates are read by reference, so a caller can pass a filtered view
    /// of its batch without copying.
    pub fn apply_updates<'a>(&self, updates: impl IntoIterator<Item = &'a KnnUpdate>) {
        self.admit_and_apply(updates, |_, _, _| Ok(()));
    }

    /// Admits and applies a batch of KNN updates, returning the outcomes
    /// in input order.
    ///
    /// `admit(update, owned, known)` decides each update: `owned` says
    /// whether its uid owns a profile, and `known(id)` whether a neighbour
    /// id resolves. This is the one neighbour-id resolver: pseudonymized,
    /// an id resolves to the user behind a pseudonym of the current or
    /// previous epoch (older ones are dropped; the widget refines again on
    /// its next request); plain, to the user with that id. Either way the
    /// user owns a profile. An admitted update is stored, if its uid owns a
    /// profile, as a row of the slots its neighbours resolve to, keeping the
    /// `k` most similar, so a client cannot grow a stored neighbourhood (and
    /// with it the requester's next candidate set) past the paper's bound.
    /// Locks: the anonymizer (pseudonymized only), then one `SlotView` of
    /// the table, both held while `admit` runs; the write-backs go through
    /// [`UserTable::update_rows`] once they are released, each touched
    /// shard's lock once per batch.
    pub fn admit_and_apply<'a>(
        &self,
        updates: impl IntoIterator<Item = &'a KnnUpdate>,
        mut admit: impl FnMut(&KnnUpdate, bool, &dyn Fn(UserId) -> bool) -> Result<(), RejectReason>,
    ) -> Vec<Result<(), RejectReason>> {
        let mut rows = Vec::new();
        let outcomes = {
            let anonymizer = self.config.anonymize_users.then(|| self.anonymizer.lock());
            let view = self.table.read();
            let resolve = |user: UserId| match &anonymizer {
                Some(anonymizer) => view.slot_of(anonymizer.resolve(user)?),
                None => view.slot_of(user),
            };
            let known = |user: UserId| resolve(user).is_some();
            updates
                .into_iter()
                .map(|update| {
                    let owner = view.slot_of(update.uid);
                    let outcome = admit(update, owner.is_some(), &known);
                    if let (Ok(()), Some(owner)) = (outcome, owner) {
                        let neighbors = update
                            .neighbors
                            .iter()
                            .filter_map(|n| Some((resolve(n.user)?, n.similarity)))
                            .collect();
                        rows.push((owner, ranked_row(neighbors, self.config.k)));
                    }
                    outcome
                })
                .collect()
        };
        self.updates_applied
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.table.update_rows(rows);
        outcomes
    }

    /// Rotates the anonymization epoch ("periodically, the identifiers …
    /// are anonymously shuffled"). Call on a timer in deployments. No
    /// simulator or figure calls it; only tests do.
    ///
    /// Candidate fragments memoized on the profiles name the old
    /// pseudonyms, so the stored profiles' memos are emptied too
    /// ([`UserTable::clear_memos`]), under the anonymizer lock. Locks: the
    /// anonymizer, then every shard in ascending order.
    pub fn rotate_pseudonyms(&self) {
        let mut anonymizer = self.anonymizer.lock();
        anonymizer.reshuffle();
        self.table.clear_memos();
    }

    /// Number of personalization jobs built so far.
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Number of KNN updates applied so far.
    #[must_use]
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied.load(Ordering::Relaxed)
    }
}

impl From<HyRecConfig> for HyRecServer {
    fn from(config: HyRecConfig) -> Self {
        Self::with_config(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_client::Widget;
    use hyrec_core::Neighbor;

    fn populated_server(anonymize: bool) -> HyRecServer {
        let server = HyRecServer::with_config(
            HyRecConfig::builder()
                .k(3)
                .r(5)
                .anonymize_users(anonymize)
                .seed(9)
                .build(),
        );
        // Three taste groups of users.
        for u in 0..30u32 {
            let base = (u % 3) * 100;
            for i in 0..8u32 {
                server.record(UserId(u), ItemId(base + i), Vote::Like);
            }
        }
        server
    }

    fn converge(server: &HyRecServer, widget: &Widget, rounds: usize) {
        for _ in 0..rounds {
            for u in 0..30u32 {
                let job = server.build_job(UserId(u));
                let out = widget.run_job(&job);
                server.apply_update(&out.update);
            }
        }
    }

    #[test]
    fn full_loop_converges_to_taste_groups() {
        let server = populated_server(false);
        let widget = Widget::new();
        converge(&server, &widget, 5);

        // After a few gossip rounds every user's KNN is within their group.
        for u in 0..30u32 {
            let hood = server.knn_of(UserId(u)).expect("knn exists");
            assert!(!hood.is_empty());
            for n in hood.iter() {
                assert_eq!(
                    n.user.0 % 3,
                    u % 3,
                    "u{u} has out-of-group neighbour {}",
                    n.user
                );
                assert!((n.similarity - 1.0).abs() < 1e-9);
            }
        }
        assert!(server.average_view_similarity() > 0.99);
    }

    #[test]
    fn anonymized_loop_converges_identically() {
        let server = populated_server(true);
        let widget = Widget::new();
        converge(&server, &widget, 5);
        assert!(server.average_view_similarity() > 0.99);
        // And the KNN table holds *real* ids, not pseudonyms.
        for u in 0..30u32 {
            let hood = server.knn_of(UserId(u)).unwrap();
            for n in hood.iter() {
                assert!(n.user.0 < 30, "pseudonym leaked into KNN table: {}", n.user);
            }
        }
    }

    #[test]
    fn jobs_never_leak_real_candidate_ids_when_anonymized() {
        let server = populated_server(true);
        let widget = Widget::new();
        converge(&server, &widget, 2);
        let job = server.build_job(UserId(0));
        for c in job.candidates.iter() {
            assert!(c.user.0 >= 30, "real id {} leaked into job", c.user);
        }
    }

    #[test]
    fn updates_across_one_reshuffle_still_resolve() {
        let server = populated_server(true);
        let widget = Widget::new();
        let job = server.build_job(UserId(0));
        server.rotate_pseudonyms();
        let out = widget.run_job(&job);
        server.apply_update(&out.update);
        let hood = server.knn_of(UserId(0)).unwrap();
        assert!(!hood.is_empty(), "one-epoch-old pseudonyms must resolve");
    }

    #[test]
    fn updates_across_two_reshuffles_are_dropped() {
        let server = populated_server(true);
        let widget = Widget::new();
        let job = server.build_job(UserId(0));
        server.rotate_pseudonyms();
        server.rotate_pseudonyms();
        let out = widget.run_job(&job);
        server.apply_update(&out.update);
        let hood = server.knn_of(UserId(0)).unwrap();
        assert!(hood.is_empty(), "stale pseudonyms must not resolve");
    }

    #[test]
    fn cold_start_user_gets_bootstrap_job() {
        let server = populated_server(false);
        let job = server.build_job(UserId(999));
        assert!(job.profile.is_empty());
        assert!(!job.candidates.is_empty(), "random leg must bootstrap");
        assert!(!job.candidates.contains(UserId(999)));
    }

    #[test]
    fn stored_updates_keep_the_k_most_similar_neighbours() {
        // An update may carry any number of neighbours; the table stores
        // the `k` best, so the sender's next job stays within the bound.
        for anonymize in [false, true] {
            let server = HyRecServer::with_config(
                HyRecConfig::builder()
                    .k(10)
                    .anonymize_users(anonymize)
                    .seed(5)
                    .build(),
            );
            for u in 0..300u32 {
                for i in 0..5u32 {
                    server.record(UserId(u), ItemId(u % 50 + i), Vote::Like);
                }
            }
            let neighbors = (2..300u32)
                .map(|u| hyrec_core::Neighbor {
                    user: if anonymize {
                        server.anonymizer.lock().pseudonymize(UserId(u))
                    } else {
                        UserId(u)
                    },
                    similarity: f64::from(u) / 300.0,
                })
                .collect();
            server.apply_update(&KnnUpdate {
                uid: UserId(1),
                lease: 0,
                epoch: 0,
                neighbors,
            });
            let stored: Vec<UserId> = server.knn_of(UserId(1)).unwrap().users().collect();
            let best: Vec<UserId> = (290..300u32).rev().map(UserId).collect();
            assert_eq!(stored, best, "anonymize = {anonymize}");
            let job = server.build_job(UserId(1));
            assert!(job.candidates.len() <= server.config().candidate_bound());
        }
    }

    #[test]
    fn plain_updates_drop_neighbours_without_a_profile() {
        // Without pseudonyms an id resolves only to a user who owns a
        // profile (users 0–29 here); any other id never reaches the table.
        let server = populated_server(false);
        let neighbor = |user, similarity| Neighbor {
            user: UserId(user),
            similarity,
        };
        server.apply_update(&KnnUpdate {
            uid: UserId(1),
            lease: 0,
            epoch: 0,
            neighbors: vec![neighbor(999, 0.9), neighbor(2, 0.5), neighbor(30, 0.4)],
        });
        let stored: Vec<UserId> = server.knn_of(UserId(1)).unwrap().users().collect();
        assert_eq!(stored, vec![UserId(2)]);
        // An update from a uid without a profile is not stored, and mints
        // no user.
        server.apply_update(&KnnUpdate {
            uid: UserId(999),
            lease: 0,
            epoch: 0,
            neighbors: vec![neighbor(2, 0.5)],
        });
        assert_eq!(server.knn_of(UserId(999)), None);
        assert_eq!((server.updates_applied(), server.user_count()), (1, 30));
    }

    #[test]
    fn counters_track_activity() {
        let server = populated_server(false);
        let widget = Widget::new();
        let job = server.build_job(UserId(1));
        let out = widget.run_job(&job);
        server.apply_update(&out.update);
        assert_eq!(server.requests_served(), 1);
        assert_eq!(server.updates_applied(), 1);
        assert_eq!(server.user_count(), 30);
    }

    #[test]
    fn build_job_shares_table_profiles_without_copying() {
        // The zero-copy contract: every profile in a job IS the table's
        // allocation (same Arc), not a copy.
        let server = HyRecServer::with_config(
            HyRecConfig::builder()
                .k(3)
                .anonymize_users(false)
                .seed(4)
                .build(),
        );
        for u in 0..20u32 {
            for i in 0..10u32 {
                server.record(UserId(u), ItemId(i % 7), Vote::Like);
            }
        }
        let job = server.build_job(UserId(0));
        assert!(!job.candidates.is_empty());
        let table_own = server.profile_of(UserId(0)).unwrap();
        assert!(
            Arc::ptr_eq(&job.profile, &table_own),
            "requester profile copied"
        );
        for c in job.candidates.iter() {
            let stored = server.profile_of(c.user).expect("candidate has profile");
            assert!(
                Arc::ptr_eq(&c.profile, &stored),
                "candidate {} copied",
                c.user
            );
        }
    }

    #[test]
    fn build_jobs_matches_sequential_build_job() {
        // Two identically seeded servers: a batched request stream must
        // produce byte-identical jobs to the sequential one.
        let batch_server = populated_server(false);
        let seq_server = populated_server(false);
        let users: Vec<UserId> = (0..30u32).map(UserId).collect();

        // Round 1 (cold tables), then warm both and compare again.
        let widget = Widget::new();
        for round in 0..3 {
            let batch = batch_server.build_jobs(&users);
            let sequential: Vec<_> = users.iter().map(|&u| seq_server.build_job(u)).collect();
            assert_eq!(batch, sequential, "divergence at round {round}");

            let updates: Vec<_> = batch.iter().map(|job| widget.run_job(job).update).collect();
            batch_server.apply_updates(&updates);
            for update in &updates {
                seq_server.apply_update(update);
            }
        }
        assert_eq!(
            batch_server.average_view_similarity(),
            seq_server.average_view_similarity()
        );
        assert_eq!(batch_server.requests_served(), seq_server.requests_served());
        assert_eq!(batch_server.updates_applied(), seq_server.updates_applied());
    }

    #[test]
    fn batched_pipeline_converges_with_anonymization() {
        let server = populated_server(true);
        let widget = Widget::new();
        let users: Vec<UserId> = (0..30u32).map(UserId).collect();
        for _ in 0..5 {
            let jobs = server.build_jobs(&users);
            let updates: Vec<_> = jobs.iter().map(|j| widget.run_job(j).update).collect();
            server.apply_updates(&updates);
        }
        assert!(server.average_view_similarity() > 0.99);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let server = populated_server(false);
        assert!(server.build_jobs(&[]).is_empty());
        server.apply_updates(&[]);
        assert_eq!(server.requests_served(), 0);
        assert_eq!(server.updates_applied(), 0);
    }

    #[test]
    fn record_many_matches_sequential_record() {
        let batched = HyRecServer::with_config(HyRecConfig::builder().k(3).seed(21).build());
        let sequential = HyRecServer::with_config(HyRecConfig::builder().k(3).seed(21).build());
        let votes: Vec<(UserId, ItemId, Vote)> = (0..300u32)
            .map(|i| {
                let vote = if i % 4 == 0 {
                    Vote::Dislike
                } else {
                    Vote::Like
                };
                (UserId(i % 23), ItemId(i % 9), vote)
            })
            .collect();
        let batch_flags = batched.record_many(&votes);
        let seq_flags: Vec<bool> = votes
            .iter()
            .map(|&(user, item, vote)| sequential.record(user, item, vote))
            .collect();
        assert_eq!(batch_flags, seq_flags);
        assert_eq!(batched.user_count(), sequential.user_count());
        // Slot order (first-vote order) matters for the random sampler leg:
        // identically-seeded servers must build identical jobs afterwards.
        let users: Vec<UserId> = (0..23u32).map(UserId).collect();
        for &user in &users {
            assert_eq!(batched.build_job(user), sequential.build_job(user));
        }
    }

    #[test]
    fn record_returns_change_flag() {
        let server = HyRecServer::new();
        assert!(server.record(UserId(1), ItemId(1), Vote::Like));
        assert!(!server.record(UserId(1), ItemId(1), Vote::Like));
        assert!(server.record(UserId(1), ItemId(1), Vote::Dislike));
    }
}
