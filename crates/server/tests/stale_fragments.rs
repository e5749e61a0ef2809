//! The job encoder memoizes a candidate fragment or requester chunk on the
//! profile version it was written from, and every profile in a job is the
//! table's own `Arc`. This suite drives random interleavings of votes (new
//! likes, like→dislike flips, repeated votes; through `record` and
//! `record_many`, including a requester voting between its own encodes),
//! pseudonymization and batched encodes over overlapping user sets
//! (including a user who is both requester and candidate in one batch),
//! and asserts that every job carries current profiles and that every body
//! one long-lived encoder emits is byte-identical to a cold body for the
//! same job — a fresh encoder's, over deep copies of the job's profiles —
//! i.e. no stale fragment or requester chunk is ever served. It also checks
//! that rotating pseudonyms does not grow what the encoder keeps.

use hyrec_core::Profile;
use hyrec_core::{ItemId, UserId, Vote};
use hyrec_server::encoder::JobEncoder;
use hyrec_server::{HyRecConfig, HyRecServer};
use hyrec_wire::PersonalizationJob;
use proptest::prelude::*;

const USERS: u32 = 12;

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Like an item nobody has rated yet.
    NewLike,
    /// Dislike one of the user's liked items.
    Flip,
    /// Repeat one of the user's existing votes (no change).
    Repeat,
}

#[derive(Debug, Clone)]
enum Op {
    Record(u32, u32, Kind),
    RecordMany(Vec<(u32, u32, Kind)>),
    /// Build and encode jobs for these users; with the flag set, the
    /// previous batch's (possibly stale) jobs ride along in the same call.
    Encode(Vec<u32>, bool),
    RotatePseudonyms,
    /// Encode this user's job, let the user vote, encode it again.
    VoteBetween(u32, u32, Kind),
    /// Build jobs for both users and add the first, under its own uid and
    /// its job's profile, to the second's candidates: one user fills both
    /// of its cache slots in one batch.
    SelfCandidate(u32, u32),
}

fn kind() -> impl Strategy<Value = Kind> {
    prop_oneof![Just(Kind::NewLike), Just(Kind::Flip), Just(Kind::Repeat)]
}

fn vote() -> impl Strategy<Value = (u32, u32, Kind)> {
    (0..USERS, any::<u32>(), kind())
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => vote().prop_map(|(u, s, k)| Op::Record(u, s, k)),
        2 => proptest::collection::vec(vote(), 1..6).prop_map(Op::RecordMany),
        4 => (proptest::collection::vec(0..USERS, 1..6), any::<bool>())
            .prop_map(|(users, previous)| Op::Encode(users, previous)),
        1 => Just(Op::RotatePseudonyms),
        2 => vote().prop_map(|(u, s, k)| Op::VoteBetween(u, s, k)),
        2 => (0..USERS, 0..USERS).prop_map(|(u, v)| Op::SelfCandidate(u, v)),
    ]
}

/// Turns a generated vote into a concrete one against the current table.
fn concrete(
    server: &HyRecServer,
    next_item: &mut u32,
    (user, selector, kind): (u32, u32, Kind),
) -> (UserId, ItemId, Vote) {
    let user = UserId(user);
    let profile = server.profile_of(user).unwrap_or_default();
    let liked: Vec<ItemId> = profile.liked().collect();
    let disliked: Vec<ItemId> = profile.disliked().collect();
    let pick = |items: &[ItemId]| items[selector as usize % items.len()];
    match kind {
        Kind::Flip if !liked.is_empty() => (user, pick(&liked), Vote::Dislike),
        Kind::Repeat if !liked.is_empty() && (disliked.is_empty() || selector % 2 == 0) => {
            (user, pick(&liked), Vote::Like)
        }
        Kind::Repeat if !disliked.is_empty() => (user, pick(&disliked), Vote::Dislike),
        _ => {
            *next_item += 1;
            (user, ItemId(*next_item), Vote::Like)
        }
    }
}

/// `job` encoded by a fresh encoder from deep copies of its profiles, which
/// start with empty memos: nothing memoized on `job`'s profiles is read.
fn cold(job: &PersonalizationJob) -> Vec<u8> {
    let copy = PersonalizationJob {
        profile: Profile::clone(&job.profile).into(),
        candidates: job
            .candidates
            .pairs()
            .map(|(user, profile)| (user, profile.clone()))
            .collect(),
        ..job.clone()
    };
    JobEncoder::new().encode(&copy)
}

fn check_against_cold(encoder: &JobEncoder, jobs: &[PersonalizationJob]) -> TestCaseResult {
    let bodies = encoder.encode_jobs(jobs);
    prop_assert_eq!(bodies.len(), jobs.len());
    for (job, body) in jobs.iter().zip(&bodies) {
        let cold = cold(job);
        prop_assert!(
            *body == cold,
            "warm body for requester {} is stale",
            job.uid
        );
        prop_assert_eq!(&PersonalizationJob::decode(body).unwrap(), job);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn warm_bodies_equal_cold_bodies(
        anonymize in any::<bool>(),
        seed in any::<u64>(),
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let server = HyRecServer::with_config(
            HyRecConfig::builder().k(3).r(3).anonymize_users(anonymize).seed(seed).build(),
        );
        for u in 0..USERS {
            for i in 0..4 {
                server.record(UserId(u), ItemId((u * 3 + i) % 20), Vote::Like);
            }
        }
        let encoder = JobEncoder::new();
        let mut next_item = 1_000u32;
        let mut previous: Vec<PersonalizationJob> = Vec::new();
        for op in ops {
            match op {
                Op::Record(u, s, k) => {
                    let (user, item, vote) = concrete(&server, &mut next_item, (u, s, k));
                    server.record(user, item, vote);
                }
                Op::RecordMany(votes) => {
                    let batch: Vec<_> = votes
                        .into_iter()
                        .map(|v| concrete(&server, &mut next_item, v))
                        .collect();
                    let _ = server.record_many(&batch);
                }
                Op::Encode(users, with_previous) => {
                    let users: Vec<UserId> = users.into_iter().map(UserId).collect();
                    let fresh = server.build_jobs(&users);
                    if !anonymize {
                        // The jobs themselves are current: every candidate
                        // carries its table profile.
                        for candidate in fresh.iter().flat_map(|job| job.candidates.iter()) {
                            let expected = server.profile_of(candidate.user).unwrap_or_default();
                            prop_assert!(
                                candidate.profile == expected,
                                "candidate {} is out of date",
                                candidate.user
                            );
                        }
                    }
                    let mut jobs = if with_previous { previous.clone() } else { Vec::new() };
                    jobs.extend(fresh.iter().cloned());
                    check_against_cold(&encoder, &jobs)?;
                    // At most two pieces per live profile version: the
                    // table's and the ones these jobs hold.
                    let versions: usize = jobs.iter().map(|job| 1 + job.candidates.len()).sum();
                    prop_assert!(encoder.cached_profiles() <= 2 * (USERS as usize + versions));
                    previous = fresh;
                }
                Op::RotatePseudonyms => server.rotate_pseudonyms(),
                Op::VoteBetween(u, s, k) => {
                    check_against_cold(&encoder, &server.build_jobs(&[UserId(u)]))?;
                    let (user, item, vote) = concrete(&server, &mut next_item, (u, s, k));
                    server.record(user, item, vote);
                    let jobs = server.build_jobs(&[UserId(u)]);
                    // The requester's own profile is current.
                    let expected = server.profile_of(user).unwrap_or_default();
                    prop_assert!(jobs[0].profile == expected, "requester {} is stale", u);
                    check_against_cold(&encoder, &jobs)?;
                }
                Op::SelfCandidate(u, v) => {
                    let mut jobs = server.build_jobs(&[UserId(u), UserId(v)]);
                    let own = std::sync::Arc::clone(&jobs[0].profile);
                    jobs[1].candidates.insert(UserId(u), own);
                    check_against_cold(&encoder, &jobs)?;
                }
            }
        }
        // A final pass over everyone, twice: all hits the second time.
        let everyone: Vec<UserId> = (0..USERS).map(UserId).collect();
        let jobs = server.build_jobs(&everyone);
        check_against_cold(&encoder, &jobs)?;
        check_against_cold(&encoder, &jobs)?;
    }
}

#[test]
fn pseudonym_rotation_does_not_grow_the_encoder() {
    // Candidates are shown under pseudonyms that change every epoch. A
    // fragment written for an old pseudonym is replaced on the profile, not
    // kept beside the new one, so what the encoder holds stays within two
    // pieces per user however often the pseudonyms rotate.
    let server = HyRecServer::with_config(
        HyRecConfig::builder()
            .k(3)
            .r(3)
            .anonymize_users(true)
            .build(),
    );
    for u in 0..USERS {
        for i in 0..4 {
            server.record(UserId(u), ItemId((u * 3 + i) % 20), Vote::Like);
        }
    }
    let everyone: Vec<UserId> = (0..USERS).map(UserId).collect();
    let encoder = JobEncoder::new();
    for round in 0..6 {
        if round > 0 {
            server.rotate_pseudonyms();
        }
        let jobs = server.build_jobs(&everyone);
        for (job, body) in jobs.iter().zip(encoder.encode_jobs(&jobs)) {
            assert!(body == cold(job), "round {round}: requester {}", job.uid);
        }
        assert!(
            encoder.cached_profiles() <= 2 * USERS as usize,
            "round {round}: {} pieces for {USERS} users",
            encoder.cached_profiles()
        );
    }
}
