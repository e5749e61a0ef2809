//! Differential tests of the batched sampler against the per-user sampler
//! it replaced.
//!
//! `reference::sample` below is `DefaultSampler::sample` as it was before
//! candidate assembly was given one implementation: one candidate set per
//! call, read neighbourhood by neighbourhood and profile by profile, with
//! every candidate checked against the set (`CandidateSet::contains`)
//! before it is inserted. `DefaultSampler::sample_batch`, and `sample` (now
//! a batch of one), must give the same sets from the same RNG stream for
//! any split of a request stream into batches.
//!
//! The tables are random and cover every state the table can reach: users
//! vote first, in shuffled order, and rows are stored after, so a slot is a
//! profile owner and a row names profile owners only (the table drops the
//! other ids, and the row of a user who never voted). They cover requesters
//! without a profile, requesters inside their own KNN, neighbour ids
//! repeated across 1-hop and 2-hop lists and across users, repeated uids in
//! one batch, an empty table, and `k` and `random_candidates` equal to 0.
//! `build_jobs` must likewise give the same jobs under any split, with
//! pseudonymization on and off.

use hyrec_client::Widget;
use hyrec_core::{CandidateSet, ItemId, Neighbor, Neighborhood, UserId, UserTable, Vote};
use hyrec_server::sampler::SamplerContext;
use hyrec_server::{DefaultSampler, HyRecConfig, HyRecServer, NoRandomSampler, Sampler};
use hyrec_wire::{KnnUpdate, PersonalizationJob};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use hyrec_core::{CandidateSet, UserId};
    use hyrec_server::sampler::{random_slots, SamplerContext};
    use rand::rngs::StdRng;

    /// The paper's sampler, one user at a time: `N_u ∪ KNN(N_u) ∪ random`.
    pub fn sample(
        user: UserId,
        k: usize,
        random_candidates: usize,
        ctx: &SamplerContext<'_>,
        rng: &mut StdRng,
    ) -> CandidateSet {
        let mut set = CandidateSet::with_capacity(2 * k + k * k);
        let push = |set: &mut CandidateSet, candidate: UserId| {
            if candidate != user && !set.contains(candidate) {
                if let Some(profile) = ctx.table.profile_of(candidate) {
                    set.insert(candidate, profile);
                }
            }
        };

        // (i) current KNN of u; (ii) KNN of each neighbour (2-hop).
        let neighbors: Vec<UserId> = ctx
            .table
            .knn_of(user)
            .map(|hood| hood.users().collect())
            .unwrap_or_default();
        for &v in &neighbors {
            push(&mut set, v);
        }
        for &v in &neighbors {
            let two_hop: Vec<UserId> = ctx
                .table
                .knn_of(v)
                .map(|hood| hood.users().collect())
                .unwrap_or_default();
            for w in two_hop {
                push(&mut set, w);
            }
        }

        // (iii) k random users: slots, named here by id (the view is
        // dropped before the keyed reads above run).
        let random: Vec<UserId> = {
            let view = ctx.table.read();
            let slots = random_slots(&view, random_candidates, rng);
            slots.into_iter().map(|slot| view.id(slot)).collect()
        };
        for w in random {
            push(&mut set, w);
        }
        set
    }
}

/// Ids `0..n` are the population; ids up to `n + UNKNOWN` also appear as
/// neighbours, row owners and requesters but never vote.
const UNKNOWN: u32 = 6;

/// A random neighbourhood for `user` over ids `0..n + UNKNOWN`: sometimes
/// holding `user` itself, sometimes listing an id twice (the table keeps
/// one entry).
fn random_hood(user: u32, n: u32, rng: &mut StdRng) -> Neighborhood {
    let len = rng.gen_range(0..8usize);
    let mut neighbors: Vec<Neighbor> = (0..len)
        .map(|_| Neighbor {
            user: UserId(rng.gen_range(0..n + UNKNOWN)),
            similarity: rng.gen_range(0.0..1.0),
        })
        .collect();
    if rng.gen_bool(0.3) {
        neighbors.push(Neighbor {
            user: UserId(user),
            similarity: 0.5,
        });
    }
    if let Some(&first) = neighbors.first() {
        if rng.gen_bool(0.3) {
            neighbors.push(first);
        }
    }
    Neighborhood::from_neighbors(neighbors)
}

/// Random tables: most users vote, in shuffled order, so slot order is
/// not id order; then most ids, unknown ones too, are given a
/// neighbourhood, which the table stores for voters only.
fn world(seed: u64, n: u32) -> UserTable {
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(seed);
    let table = UserTable::new();
    let mut voters: Vec<u32> = (0..n).collect();
    voters.shuffle(&mut rng);
    for u in voters {
        if rng.gen_bool(0.8) {
            for _ in 0..rng.gen_range(1..6u32) {
                table.record(UserId(u), ItemId(rng.gen_range(0..20u32)), Vote::Like);
            }
        }
    }
    for u in 0..n + UNKNOWN / 2 {
        if rng.gen_bool(0.8) {
            table.update(UserId(u), random_hood(u, n, &mut rng));
        }
    }
    table
}

/// Requesters over ids `0..n + UNKNOWN`, with repeats.
fn requesters(seed: u64, n: u32, len: usize) -> Vec<UserId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| UserId(rng.gen_range(0..n + UNKNOWN)))
        .collect()
}

/// Splits `items` into consecutive batches at random points (empty batches
/// included).
fn split<T>(items: &[T], seed: u64) -> Vec<&[T]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    let mut rest = items;
    loop {
        let take = rng.gen_range(0..=rest.len().min(8));
        let (batch, tail) = rest.split_at(take);
        batches.push(batch);
        rest = tail;
        if rest.is_empty() {
            return batches;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn sample_batch_matches_the_reference_over_random_splits(
        seed in any::<u64>(),
        n in 0u32..40,
        len in 0usize..30,
        k in 0usize..6,
        random_candidates in 0usize..6,
    ) {
        let table = world(seed, n);
        let ctx = SamplerContext { table: &table };
        let users = requesters(seed ^ 0x5EED, n, len);

        let mut reference_rng = StdRng::seed_from_u64(seed ^ 1);
        let expected: Vec<CandidateSet> = users
            .iter()
            .map(|&user| reference::sample(user, k, random_candidates, &ctx, &mut reference_rng))
            .collect();

        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let mut batched = Vec::new();
        for batch in split(&users, seed ^ 2) {
            batched.extend(DefaultSampler.sample_batch(batch, k, random_candidates, &ctx, &mut rng));
        }
        prop_assert_eq!(&batched, &expected);
        // Both consumed the RNG stream alike.
        prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());

        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let scalar: Vec<CandidateSet> = users
            .iter()
            .map(|&user| DefaultSampler.sample(user, k, random_candidates, &ctx, &mut rng))
            .collect();
        prop_assert_eq!(&scalar, &expected);

        // The no-random ablation is the reference without its random leg.
        let mut reference_rng = StdRng::seed_from_u64(seed ^ 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        for &user in &users {
            prop_assert_eq!(
                NoRandomSampler.sample(user, k, random_candidates, &ctx, &mut rng),
                reference::sample(user, k, 0, &ctx, &mut reference_rng)
            );
        }
    }

    #[test]
    fn whole_batch_of_the_population_matches_the_reference(
        seed in any::<u64>(),
        n in 1u32..60,
        k in 0usize..4,
    ) {
        // Every user once, then every user again: the second pass repeats
        // every uid of the first inside one batch.
        let table = world(seed, n);
        let ctx = SamplerContext { table: &table };
        let users: Vec<UserId> = (0..n).chain(0..n).map(UserId).collect();
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let expected: Vec<CandidateSet> = users
            .iter()
            .map(|&user| reference::sample(user, k, k, &ctx, &mut reference_rng))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(DefaultSampler.sample_batch(&users, k, k, &ctx, &mut rng), expected);
    }

    #[test]
    fn build_jobs_gives_the_same_jobs_under_any_split(
        seed in any::<u64>(),
        n in 0u32..30,
        len in 0usize..24,
        k in 1usize..5,
        anonymize in any::<bool>(),
    ) {
        // Three identical servers: one builds each round as one batch, one
        // in random batches, one a job at a time. Round two runs on the
        // neighbourhoods the first round's widgets sent back.
        let servers: Vec<HyRecServer> = (0..3).map(|_| server(seed, n, k, anonymize)).collect();
        let users = requesters(seed ^ 0x5EED, n, len);
        let widget = Widget::new();
        for round in 0..2u64 {
            let whole = servers[0].build_jobs(&users);
            let mut split_jobs = Vec::new();
            for batch in split(&users, seed ^ round) {
                split_jobs.extend(servers[1].build_jobs(batch));
            }
            let one_by_one: Vec<PersonalizationJob> =
                users.iter().map(|&user| servers[2].build_job(user)).collect();
            prop_assert_eq!(&split_jobs, &whole);
            prop_assert_eq!(&one_by_one, &whole);

            let updates: Vec<KnnUpdate> = whole.iter().map(|job| widget.run_job(job).update).collect();
            servers[0].apply_updates(&updates);
            for batch in split(&updates, seed ^ round ^ 7) {
                servers[1].apply_updates(batch);
            }
            for update in &updates {
                servers[2].apply_update(update);
            }
        }
        for server in &servers[1..] {
            prop_assert_eq!(server.table().view_similarities().len(), servers[0].table().view_similarities().len());
            for user in 0..n + UNKNOWN {
                prop_assert_eq!(server.knn_of(UserId(user)), servers[0].knn_of(UserId(user)));
            }
        }
    }

    #[test]
    fn plain_jobs_carry_the_reference_candidates(
        seed in any::<u64>(),
        n in 0u32..30,
        len in 0usize..24,
        k in 1usize..5,
    ) {
        // Without pseudonyms a job is the requester's table profile plus
        // the reference sampler's set, drawn with the server's seeded RNG.
        let server = server(seed, n, k, false);
        let ctx = SamplerContext { table: server.table() };
        let mut rng = StdRng::seed_from_u64(seed);
        let users = requesters(seed ^ 0x5EED, n, len);
        let expected: Vec<PersonalizationJob> = users
            .iter()
            .map(|&user| PersonalizationJob {
                uid: user,
                k,
                r: server.config().r,
                lease: 0,
                epoch: 0,
                profile: server.profile_of(user).unwrap_or_default(),
                candidates: reference::sample(user, k, k, &ctx, &mut rng),
            })
            .collect();
        let mut jobs = Vec::new();
        for batch in split(&users, seed ^ 9) {
            jobs.extend(server.build_jobs(batch));
        }
        prop_assert_eq!(jobs, expected);
    }
}

/// The votes that populate a test server: users `0..n`, first votes in a
/// shuffled order, some users voting several times.
fn votes(seed: u64, n: u32) -> Vec<(UserId, ItemId, Vote)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB07E);
    (0..4 * n)
        .map(|_| {
            let vote = if rng.gen_bool(0.2) {
                Vote::Dislike
            } else {
                Vote::Like
            };
            (
                UserId(rng.gen_range(0..n)),
                ItemId(rng.gen_range(0..12u32)),
                vote,
            )
        })
        .collect()
}

/// A server holding [`votes`] and random neighbourhoods (see
/// [`random_hood`]).
fn server(seed: u64, n: u32, k: usize, anonymize: bool) -> HyRecServer {
    let server = HyRecServer::with_config(
        HyRecConfig::builder()
            .k(k)
            .r(3)
            .anonymize_users(anonymize)
            .seed(seed)
            .build(),
    );
    let votes = votes(seed, n);
    let (head, tail) = votes.split_at(votes.len() / 2);
    for &(user, item, vote) in head {
        server.record(user, item, vote);
    }
    let _ = server.record_many(tail);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4009);
    for user in 0..n + UNKNOWN / 2 {
        if rng.gen_bool(0.7) {
            server
                .table()
                .update(UserId(user), random_hood(user, n, &mut rng));
        }
    }
    server
}
