//! Property tests over the lease lifecycle: however browsers race, retry,
//! or resurface after churn, each user's recomputation round is applied
//! **exactly once** per refresh epoch.

use hyrec_core::{Neighbor, UserId};
use hyrec_sched::{RejectReason, SchedConfig, Scheduler};
use proptest::prelude::*;

fn neighbors() -> Vec<Neighbor> {
    vec![Neighbor {
        user: UserId(1000),
        similarity: 0.5,
    }]
}

/// One user, a chain of issues where every lease but the last is allowed
/// to expire (abandoned browser → re-issue), then *every* lease's
/// completion arrives `dup + 1` times in arbitrary order. Exactly one
/// application must survive: the live lease's first completion.
/// Everything else is a NotLeased / StaleEpoch / Duplicate reject.
fn check_reissued_chain(abandoned: usize, dup: usize, shuffle_seed: u64) -> Result<(), String> {
    let timeout = 10u64;
    let sched = Scheduler::new(SchedConfig {
        lease_timeout: timeout,
        max_reissues: 10, // keep the whole chain on the re-issue rungs
        ..SchedConfig::default()
    });

    // Issue + abandon `abandoned` leases; each sweep expires the previous
    // one and the next issue re-grants the same user's job.
    let mut now = 0u64;
    let mut grants = vec![sched.issue(UserId(7), now)];
    for _ in 0..abandoned {
        now = grants.last().unwrap().deadline + 1;
        sched.sweep(now);
        // Another browser (any uid) asks; churn recovery hands it the
        // abandoned job.
        let regrant = sched.issue(UserId(500), now);
        if !regrant.reissue || regrant.user != UserId(7) {
            return Err(format!("expected a re-issue of user 7, got {regrant:?}"));
        }
        grants.push(regrant);
    }

    // Now every historical completion arrives, each `dup + 1` times, in a
    // deterministic pseudo-shuffled order.
    let mut arrivals: Vec<usize> = (0..grants.len())
        .flat_map(|g| std::iter::repeat_n(g, dup + 1))
        .collect();
    let n = arrivals.len();
    for i in 0..n {
        let j = (shuffle_seed as usize)
            .wrapping_mul(31)
            .wrapping_add(i * 17)
            % n;
        arrivals.swap(i, j);
    }

    let mut applied = 0usize;
    for &g in &arrivals {
        let grant = grants[g];
        now += 1;
        match sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &neighbors(),
            now,
            |_| true,
        ) {
            Ok(()) => applied += 1,
            Err(RejectReason::NotLeased | RejectReason::StaleEpoch | RejectReason::Duplicate) => {}
            Err(other) => return Err(format!("unexpected reject {other:?}")),
        }
    }

    if applied != 1 {
        return Err(format!("{applied} completions applied, expected exactly 1"));
    }
    if sched.stats().completed() != 1 {
        return Err("completed counter disagrees".into());
    }
    if sched.outstanding_leases() != 0 {
        return Err("a lease leaked".into());
    }
    if sched.stats().rejected_total() != (n - 1) as u64 {
        return Err(format!(
            "rejected {} of {n} arrivals, expected {}",
            sched.stats().rejected_total(),
            n - 1
        ));
    }
    Ok(())
}

/// Concurrent same-epoch leases (several browsers asked for the same user
/// before any finished): however many complete, only the first
/// application survives; the rest go stale or duplicate.
fn check_sibling_leases(siblings: usize, completions: usize, pick_seed: u64) -> Result<(), String> {
    let sched = Scheduler::new(SchedConfig::default());
    let grants: Vec<_> = (0..siblings).map(|_| sched.issue(UserId(3), 0)).collect();
    let mut applied = 0;
    for i in 0..completions {
        let grant = grants[(pick_seed as usize + i * 7) % grants.len()];
        let outcome = sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &neighbors(),
            1 + i as u64,
            |_| true,
        );
        if outcome.is_ok() {
            applied += 1;
        }
    }
    if applied != 1 || sched.stats().completed() != 1 {
        return Err(format!("{applied} applications, expected exactly 1"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reissued_chain_applies_exactly_once(
        abandoned in 1usize..5,
        dup in 1usize..3,
        shuffle_seed in 0u64..1024,
    ) {
        let outcome = check_reissued_chain(abandoned, dup, shuffle_seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn sibling_leases_apply_exactly_once(
        siblings in 2usize..6,
        completions in 2usize..12,
        pick_seed in 0u64..1024,
    ) {
        let outcome = check_sibling_leases(siblings, completions, pick_seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
