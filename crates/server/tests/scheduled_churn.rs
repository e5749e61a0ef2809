//! Concurrency test for the leased pipeline: many browser threads fetch
//! jobs, a fixed fraction abandon them mid-flight, sweeps on a tick the
//! test owns re-issue (and eventually server-side-recompute) the abandoned
//! work — and every user's KNN still converges to their taste group.

use hyrec_client::Widget;
use hyrec_core::{ItemId, UserId, Vote};
use hyrec_sched::SchedConfig;
use hyrec_server::{HyRecConfig, HyRecServer, ScheduledServer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const USERS: u32 = 30;
const GROUPS: u32 = 3;
const THREADS: usize = 8;
const ROUNDS: usize = 10;
/// Lease lifetime in ticks (milliseconds).
const LEASE_TIMEOUT: u64 = 120;

fn taste_group_server(seed: u64) -> Arc<ScheduledServer> {
    let server = Arc::new(HyRecServer::with_config(
        HyRecConfig::builder()
            .k(3)
            .r(5)
            .anonymize_users(false)
            .seed(seed)
            .build(),
    ));
    let scheduled = Arc::new(ScheduledServer::new(
        server,
        SchedConfig {
            lease_timeout: LEASE_TIMEOUT,
            max_reissues: 1,
            ..SchedConfig::default()
        },
    ));
    for u in 0..USERS {
        let base = (u % GROUPS) * 100;
        for i in 0..8u32 {
            let now = scheduled.now_ms();
            scheduled.record(UserId(u), ItemId(base + i), Vote::Like, now);
        }
    }
    scheduled
}

#[test]
fn concurrent_browsers_with_abandonment_still_converge() {
    let scheduled = taste_group_server(17);
    // The test owns the clock: it advances one tick per fetch, and a
    // browser completes at the tick of its own fetch. Threads meet at a
    // barrier after every round, where one of them sweeps, and a round
    // fetches fewer than LEASE_TIMEOUT jobs: no honest lease can expire
    // mid-flight however the OS schedules the threads, and an abandoned
    // one expires about two rounds later. (The wall-clock sweeper has
    // tests of its own.)
    let clock = Arc::new(AtomicU64::new(scheduled.now_ms()));
    let round_end = Arc::new(Barrier::new(THREADS));

    // 8 browser threads × 10 rounds over 30 users; every 4th fetch is
    // abandoned (25% churn). Deterministic per-thread abandon pattern so
    // the run is reproducible modulo scheduling.
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let scheduled = Arc::clone(&scheduled);
            let (clock, round_end) = (Arc::clone(&clock), Arc::clone(&round_end));
            std::thread::spawn(move || {
                let widget = Widget::new();
                let mut completed = 0usize;
                let mut abandoned = 0usize;
                for round in 0..ROUNDS {
                    for u in (t as u32 % GROUPS..USERS).step_by(THREADS / 2) {
                        let now = clock.fetch_add(1, Ordering::SeqCst);
                        let job = scheduled.issue_jobs(&[UserId(u)], now).pop().unwrap();
                        assert!(job.lease > 0, "every issued job carries a lease");
                        if (round + u as usize + t).is_multiple_of(4) {
                            abandoned += 1; // browser navigates away
                            continue;
                        }
                        let update = widget.run_job(&job).update;
                        // Rejections are legitimate under concurrency (a
                        // sibling lease may have completed first); they
                        // must never panic the pipeline.
                        let _ = scheduled.complete_updates(&[update], now);
                        completed += 1;
                    }
                    if round_end.wait().is_leader() {
                        let _ = scheduled.sweep_and_recover(clock.load(Ordering::SeqCst));
                    }
                    round_end.wait();
                }
                (completed, abandoned)
            })
        })
        .collect();
    let (mut completed, mut abandoned) = (0, 0);
    for handle in handles {
        let (c, a) = handle.join().expect("browser thread panicked");
        completed += c;
        abandoned += a;
    }
    assert!(completed > 0 && abandoned > 0);

    // Advance the clock one lease timeout per sweep to chase the abandoned
    // tail: every abandoned lease expires, climbs the ladder, and lands
    // either on another browser (none left now) or in server-side
    // fallback. Drained means no live leases, an empty re-issue backlog,
    // an empty fallback pen, and nobody overdue.
    let mut now = clock.load(Ordering::SeqCst);
    let deadline = now + 10_000;
    loop {
        now += LEASE_TIMEOUT;
        let (report, _) = scheduled.sweep_and_recover(now);
        let outstanding = scheduled.scheduler().outstanding_leases();
        let overdue = scheduled.scheduler().overdue_users(now, 500);
        if outstanding == 0
            && overdue.is_empty()
            && report.reissue_backlog == 0
            && report.fallback_ready == 0
        {
            break;
        }
        assert!(
            now < deadline,
            "sweeper failed to drain: {outstanding} leases, {} overdue, {report:?}",
            overdue.len()
        );
    }

    // Despite 25% abandonment, every user has a neighbourhood and the
    // table converged to the taste groups.
    let server = scheduled.server();
    for u in 0..USERS {
        let hood = server.knn_of(UserId(u)).unwrap_or_else(|| {
            panic!(
                "u{u} has no KNN after recovery (stats {:?}, state {:?}, now {})",
                scheduled.scheduler().stats().snapshot(),
                scheduled.scheduler().user_snapshot(UserId(u)),
                now,
            )
        });
        assert!(!hood.is_empty(), "u{u} has an empty neighbourhood");
    }
    // Threads fetching the same user race: some in-flight completions lose
    // their epoch race and a few users keep an older (mid-convergence)
    // refresh, so the bound is looser than the single-test ideal (~1.0).
    assert!(
        server.average_view_similarity() > 0.85,
        "converged similarity too low: {}",
        server.average_view_similarity()
    );

    let stats = scheduled.scheduler().stats();
    assert!(stats.expired() > 0, "abandonment must expire leases");
    assert!(
        stats.reissued() + stats.fallbacks() > 0,
        "expired leases must be re-issued or recomputed"
    );
}

#[test]
fn rejected_completions_never_reach_the_knn_table() {
    let scheduled = taste_group_server(23);
    let widget = Widget::new();

    // Issue for one user, then complete twice from two "browsers" racing:
    // exactly one application lands in the table.
    let job = scheduled.issue_jobs(&[UserId(5)], 0).pop().unwrap();
    let update = widget.run_job(&job).update;
    let applied_before = scheduled.server().updates_applied();
    let outcomes = scheduled.complete_updates(&[update.clone(), update], 1);
    assert_eq!(outcomes[0], Ok(()));
    assert!(outcomes[1].is_err());
    assert_eq!(scheduled.server().updates_applied(), applied_before + 1);
}
