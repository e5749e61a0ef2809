//! Concurrency smoke tests: the sharded `parking_lot` tables under real
//! contention. Eight threads hammer the full request cycle — `record`,
//! `build_job`/`build_jobs`, widget run, `apply_update`/`apply_updates` —
//! against one shared server, validating that the zero-copy pipeline's
//! shared handles and the batched entry points are safe under interleaving
//! (no deadlocks across the rng/anonymizer/shard locks, no lost writes,
//! internally consistent jobs).

use hyrec::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: u32 = 8;
const USERS_PER_THREAD: u32 = 100;
const ROUNDS: u32 = 30;

fn shared_server(anonymize: bool) -> Arc<HyRecServer> {
    Arc::new(
        HyRecServer::builder()
            .k(5)
            .r(5)
            .anonymize_users(anonymize)
            .seed(99)
            .build(),
    )
}

#[test]
fn eight_threads_hammer_record_build_apply() {
    let server = shared_server(false);
    let jobs_built = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            let jobs_built = Arc::clone(&jobs_built);
            std::thread::spawn(move || {
                let widget = Widget::new();
                // Each thread owns a disjoint user range but reads (and
                // neighbours with) everyone through the shared tables.
                let base = t * USERS_PER_THREAD;
                for round in 0..ROUNDS {
                    for u in 0..USERS_PER_THREAD {
                        let user = UserId(base + u);
                        // Overlapping item space across threads so
                        // candidate sets cross shard boundaries.
                        server.record(user, ItemId((u + round) % 40), Vote::Like);
                        let job = server.build_job(user);
                        assert_eq!(job.uid, user);
                        assert!(!job.candidates.contains(user), "self in own candidates");
                        let out = widget.run_job(&job);
                        server.apply_update(&out.update);
                        jobs_built.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let expected = u64::from(THREADS * USERS_PER_THREAD * ROUNDS);
    assert_eq!(jobs_built.load(Ordering::Relaxed), expected);
    assert_eq!(server.requests_served(), expected);
    assert_eq!(server.updates_applied(), expected);
    assert_eq!(server.user_count() as u32, THREADS * USERS_PER_THREAD);
    // Every user ended with a live neighbourhood.
    for t in 0..THREADS {
        for u in 0..USERS_PER_THREAD {
            let user = UserId(t * USERS_PER_THREAD + u);
            assert!(server.profile_of(user).is_some(), "lost profile for {user}");
            assert!(server.knn_of(user).is_some(), "lost knn for {user}");
        }
    }
}

#[test]
fn eight_threads_hammer_batched_entry_points() {
    // Same contention pattern through build_jobs/apply_updates, with
    // pseudonymization on so the anonymizer lock is in the mix too.
    let server = shared_server(true);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let widget = Widget::new();
                let base = t * USERS_PER_THREAD;
                let users: Vec<UserId> = (0..USERS_PER_THREAD).map(|u| UserId(base + u)).collect();
                for round in 0..ROUNDS / 3 {
                    for &user in &users {
                        server.record(user, ItemId((user.0 + round) % 40), Vote::Like);
                    }
                    let jobs = server.build_jobs(&users);
                    assert_eq!(jobs.len(), users.len());
                    let updates: Vec<KnnUpdate> =
                        jobs.iter().map(|job| widget.run_job(job).update).collect();
                    server.apply_updates(&updates);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let expected = u64::from(THREADS * USERS_PER_THREAD * (ROUNDS / 3));
    assert_eq!(server.requests_served(), expected);
    assert_eq!(server.updates_applied(), expected);
    // Pseudonyms resolved: the KNN table holds only real user ids.
    let max_real = THREADS * USERS_PER_THREAD;
    for t in 0..THREADS {
        let user = UserId(t * USERS_PER_THREAD);
        let hood = server.knn_of(user).expect("knn exists");
        for n in hood.iter() {
            assert!(n.user.0 < max_real, "pseudonym leaked into KNN table");
        }
    }
}

#[test]
fn concurrent_readers_see_consistent_snapshots() {
    // Writers mutate profiles while readers snapshot and build jobs; every
    // observed profile handle must be internally consistent (the Arc
    // clone-on-write discipline never exposes a half-updated profile).
    let server = shared_server(false);
    for u in 0..50u32 {
        server.record(UserId(u), ItemId(0), Vote::Like);
    }
    let stop = Arc::new(AtomicU64::new(0));

    let writer = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 1u32;
            while stop.load(Ordering::Relaxed) == 0 {
                server.record(UserId(i % 50), ItemId(i % 1000), Vote::Like);
                i = i.wrapping_add(1);
            }
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let snapshot = server.table().snapshot();
                    assert_eq!(snapshot.len(), 50);
                    for (_, profile) in &snapshot {
                        // liked() iterates a sorted vector; a torn profile
                        // would violate sortedness.
                        let liked: Vec<ItemId> = profile.liked().collect();
                        assert!(liked.windows(2).all(|w| w[0] < w[1]));
                    }
                }
            })
        })
        .collect();

    for r in readers {
        r.join().expect("reader panicked");
    }
    stop.store(1, Ordering::Relaxed);
    writer.join().expect("writer panicked");
}

#[test]
fn racing_first_votes_register_each_user_once() {
    // Every thread rates the same fresh users, each in its own order and
    // in small batches, so first votes for one user race across threads.
    // A vote that creates a profile mints its slot, under the index's
    // write lock: each voter gets one slot, and no vote is lost.
    const FRESH: u32 = 500;
    let server = shared_server(false);
    let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
    let handles: Vec<_> = [1u32, 3, 7, 9, 11, 13, 17, 19]
        .into_iter()
        .enumerate()
        .map(|(t, stride)| {
            let server = Arc::clone(&server);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let offset = t as u32 * 37;
                let votes: Vec<(UserId, ItemId, Vote)> = (0..FRESH)
                    .map(|i| {
                        let user = UserId(10_000 + (i * stride + offset) % FRESH);
                        (user, ItemId(t as u32), Vote::Like)
                    })
                    .collect();
                start.wait();
                for batch in votes.chunks(25) {
                    let changed = server.record_many(batch);
                    assert!(changed.iter().all(|&c| c), "a new item changes a profile");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    assert_eq!(server.user_count(), FRESH as usize);
    let view = server.table().read();
    assert_eq!(view.len(), FRESH as usize);
    let mut registered: Vec<UserId> = (0..FRESH).map(|slot| view.id(slot)).collect();
    registered.sort_unstable();
    let expected: Vec<UserId> = (0..FRESH).map(|i| UserId(10_000 + i)).collect();
    assert_eq!(registered, expected, "duplicate or missing slots");
    for slot in 0..FRESH {
        assert_eq!(view.slot_of(view.id(slot)), Some(slot));
        assert_eq!(
            view.profile(slot).liked_len(),
            THREADS as usize,
            "lost vote"
        );
    }
}
