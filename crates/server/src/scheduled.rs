//! The scheduled pipeline: [`HyRecServer`] routed through the
//! job-lifecycle scheduler.
//!
//! [`ScheduledServer`] is the glue the HTTP front-end and the churn replay
//! drive instead of a bare [`HyRecServer`] when leases are on:
//!
//! * `issue_jobs` asks the scheduler *which* users most need recomputation
//!   (the staleness queue / churn backlog may override the requested uid),
//!   builds their jobs through the batched pipeline, and stamps each with
//!   its lease credentials.
//! * `complete_updates` validates every [`KnnUpdate`] against the lease
//!   table — stale-epoch, non-leased, duplicate, NaN/out-of-range
//!   similarity and unknown-neighbor completions are rejected with
//!   per-reason counters — and applies only the survivors, in the same
//!   [`HyRecServer::admit_and_apply`] pass. Every leased user comes from a
//!   vote or a request by a user who owns a profile, so a live lease
//!   always names one.
//! * `sweep_and_recover` expires abandoned leases; users whose escalation
//!   ladder is exhausted are recomputed **server-side** by running the
//!   widget kernel on the server (the centralized CRec-style path the
//!   paper falls back to when browsers cannot be trusted to return).
//! * `spawn_sweeper` runs that recovery on a timer thread for live
//!   deployments; harnesses with logical clocks call the explicit-`now`
//!   methods directly.
//!
//! [`ScheduledServer::unleased`] is the same surface with leases off: jobs
//! are built for the uid asked for, votes touch no scheduler state, and a
//! completion passes [`Scheduler::check_unleased`] on the same path: its
//! uid must own a profile, then its payload is checked. Leased or not, a
//! completion naming a neighbour id that does not resolve is rejected.
//! Nothing on the unleased path takes the scheduler's lock.

use crate::server::HyRecServer;
use hyrec_client::Widget;
use hyrec_core::{ItemId, UserId, Vote};
use hyrec_sched::{RejectReason, SchedConfig, Scheduler, SweepReport, Tick};
use hyrec_wire::{KnnUpdate, PersonalizationJob};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`HyRecServer`] whose job issue / update apply pair is routed through
/// the job-lifecycle [`Scheduler`].
///
/// ```
/// use hyrec_core::{ItemId, UserId, Vote};
/// use hyrec_server::{HyRecServer, ScheduledServer};
/// use hyrec_client::Widget;
/// use std::sync::Arc;
///
/// let scheduled = ScheduledServer::new(
///     Arc::new(HyRecServer::builder().k(2).seed(3).build()),
///     hyrec_sched::SchedConfig::default(),
/// );
/// scheduled.record(UserId(1), ItemId(10), Vote::Like, 0);
/// scheduled.record(UserId(2), ItemId(10), Vote::Like, 0);
///
/// // One leased interaction: issue → widget → validated completion.
/// let job = scheduled.issue_jobs(&[UserId(1)], 1).pop().unwrap();
/// assert!(job.lease > 0);
/// let out = Widget::new().run_job(&job);
/// assert_eq!(scheduled.complete_updates(&[out.update], 2), vec![Ok(())]);
/// ```
pub struct ScheduledServer {
    inner: Arc<HyRecServer>,
    sched: Scheduler,
    /// Whether jobs are leased and completions validated against the
    /// lease table ([`Self::new`]) or not ([`Self::unleased`]).
    leased: bool,
    /// Server-side widget kernel for escalation-exhausted users (the
    /// centralized fallback — same algorithms the browser would run).
    fallback_widget: Widget,
    /// Serializes validated-completion *application* (browser completions
    /// and fallback recomputes alike). The scheduler's epoch check gates
    /// admission, but without an ordering lock a thread preempted between
    /// validation and its KNN write could write an older neighbourhood
    /// over a newer one.
    apply_order: parking_lot::Mutex<()>,
    /// Origin of the wall-clock tick stream ([`Self::now_ms`]).
    origin: Instant,
}

impl std::fmt::Debug for ScheduledServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduledServer")
            .field("server", &self.inner)
            .field("sched", &self.sched.config())
            .field("leased", &self.leased)
            .finish()
    }
}

impl ScheduledServer {
    /// Wraps a server with a scheduler configured by `config`.
    #[must_use]
    pub fn new(server: Arc<HyRecServer>, config: SchedConfig) -> Self {
        Self {
            inner: server,
            sched: Scheduler::new(config),
            leased: true,
            fallback_widget: Widget::new(),
            apply_order: parking_lot::Mutex::new(()),
            origin: Instant::now(),
        }
    }

    /// Wraps a server with leases off: [`Self::issue_jobs`] is
    /// [`HyRecServer::build_jobs`], [`Self::record`] and
    /// [`Self::record_many`] write the profile tables only, and
    /// [`Self::complete_updates`] applies every completion that passes
    /// [`Scheduler::check_unleased`] (a uid that owns a profile, finite
    /// similarities in range, every neighbour id resolvable). The
    /// scheduler only counts those rejects.
    #[must_use]
    pub fn unleased(server: Arc<HyRecServer>) -> Self {
        Self {
            leased: false,
            ..Self::new(server, SchedConfig::default())
        }
    }

    /// The wrapped server.
    #[must_use]
    pub fn server(&self) -> &Arc<HyRecServer> {
        &self.inner
    }

    /// The scheduler (lease table, staleness queue, stats).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Milliseconds since this wrapper was created — the tick stream the
    /// HTTP front-end feeds into the explicit-`now` methods.
    #[must_use]
    pub fn now_ms(&self) -> Tick {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Records a rating and, leased, bumps the user's staleness priority:
    /// a one-vote [`Self::record_many`].
    pub fn record(&self, user: UserId, item: ItemId, vote: Vote, now: Tick) -> bool {
        self.record_many(&[(user, item, vote)], now)[0]
    }

    /// Records a burst of ratings: one table sweep (and, leased, one
    /// scheduler lock) for a coalesced `/rate/` burst.
    #[must_use]
    pub fn record_many(&self, votes: &[(UserId, ItemId, Vote)], now: Tick) -> Vec<bool> {
        let changed = self.inner.record_many(votes);
        if self.leased {
            let users: Vec<UserId> = votes.iter().map(|&(user, _, _)| user).collect();
            self.sched.note_votes(&users, now);
        }
        changed
    }

    /// Issues leased personalization jobs for a batch of requests.
    ///
    /// Each returned job is the scheduler's pick for that request slot —
    /// the churn backlog and the staleness queue may override the
    /// requested uid — and carries its lease credentials in
    /// [`PersonalizationJob::lease`] / [`PersonalizationJob::epoch`].
    ///
    /// A uid the server has never seen a vote from does **not** mint
    /// scheduler state: arbitrary browser-supplied ids must not grow the
    /// lease table or, worse, buy a server-side fallback compute by
    /// abandoning phantom jobs. Such requests are answered with the
    /// scheduler's anonymous pick (backlog / staleness queue) when one
    /// exists, and otherwise with an *unleased* cold-start job — the
    /// paper's semantics for unknown users, at the seed wire shape. The
    /// user becomes leasable with their first recorded vote.
    ///
    /// Unleased, each slot gets the requested uid's job, with no lease.
    #[must_use]
    pub fn issue_jobs(&self, requested: &[UserId], now: Tick) -> Vec<PersonalizationJob> {
        if !self.leased {
            return self.inner.build_jobs(requested);
        }
        let slots: Vec<Option<UserId>> = requested
            .iter()
            .map(|&uid| self.inner.table().contains(uid).then_some(uid))
            .collect();
        let grants = self.sched.issue_mixed(&slots, now);
        let picks: Vec<UserId> = grants
            .iter()
            .zip(requested)
            .map(|(grant, &req)| grant.map_or(req, |g| g.user))
            .collect();
        let mut jobs = self.inner.build_jobs(&picks);
        for (job, grant) in jobs.iter_mut().zip(&grants) {
            if let Some(grant) = grant {
                job.lease = grant.lease;
                job.epoch = grant.epoch;
            }
        }
        jobs
    }

    /// Validates a batch of completions and applies the survivors, both in
    /// one [`HyRecServer::admit_and_apply`] pass: leased, each must pass
    /// [`Scheduler::complete`]; unleased, [`Scheduler::check_unleased`].
    /// Either way every neighbour id must resolve. Outcomes come back in
    /// input order, each `Err` naming its (already counted) reason.
    #[must_use]
    pub fn complete_updates(
        &self,
        updates: &[KnnUpdate],
        now: Tick,
    ) -> Vec<Result<(), RejectReason>> {
        // Leased admission (scheduler) and application (KNN table) must be
        // ordered together: see the `apply_order` field.
        let _ordered = self.leased.then(|| self.apply_order.lock());
        self.inner.admit_and_apply(updates, |u, owned, known| {
            if self.leased {
                self.sched
                    .complete(u.uid, u.lease, u.epoch, &u.neighbors, now, known)
            } else {
                self.sched.check_unleased(owned, &u.neighbors, known)
            }
        })
    }

    /// Expires overdue leases and immediately recomputes every user whose
    /// escalation ladder is exhausted — server-side, with the same widget
    /// kernel a browser would run. Returns the sweep report and the number
    /// of fallback recomputations performed.
    pub fn sweep_and_recover(&self, now: Tick) -> (SweepReport, usize) {
        let report = self.sched.sweep(now);
        (report, self.run_fallbacks(now))
    }

    /// Runs the server-side fallback compute for every user in the pen.
    pub fn run_fallbacks(&self, now: Tick) -> usize {
        let users = self.sched.take_fallback();
        if users.is_empty() {
            return 0;
        }
        let jobs = self.inner.build_jobs(&users);
        let updates: Vec<KnnUpdate> = jobs
            .iter()
            .map(|job| self.fallback_widget.run_job(job).update)
            .collect();
        // Same ordering lock as `complete_updates`: the recompute must
        // not interleave with a concurrent validated browser completion's
        // apply for the same user.
        let _ordered = self.apply_order.lock();
        self.inner.apply_updates(&updates);
        for &user in &users {
            self.sched.mark_refreshed(user, now);
        }
        users.len()
    }

    /// Spawns a background sweeper thread driving
    /// [`Self::sweep_and_recover`] every `interval` on the wall clock.
    /// Stops (and joins) when the returned handle is dropped or stopped.
    #[must_use]
    pub fn spawn_sweeper(self: &Arc<Self>, interval: Duration) -> SweeperHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let scheduled = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("hyrec-sweeper".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    let now = scheduled.now_ms();
                    let _ = scheduled.sweep_and_recover(now);
                }
            })
            .expect("spawn sweeper thread");
        SweeperHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// Handle owning the background sweeper thread.
#[derive(Debug)]
pub struct SweeperHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SweeperHandle {
    /// Signals the sweeper to stop and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for SweeperHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HyRecConfig;

    fn scheduled(anonymize: bool, sched: SchedConfig) -> Arc<ScheduledServer> {
        let server = Arc::new(HyRecServer::with_config(
            HyRecConfig::builder()
                .k(3)
                .r(5)
                .anonymize_users(anonymize)
                .seed(11)
                .build(),
        ));
        let scheduled = ScheduledServer::new(server, sched);
        for u in 0..18u32 {
            let base = (u % 3) * 100;
            for i in 0..6u32 {
                scheduled.record(UserId(u), ItemId(base + i), Vote::Like, 0);
            }
        }
        Arc::new(scheduled)
    }

    #[test]
    fn leased_loop_converges_like_the_plain_one() {
        let scheduled = scheduled(false, SchedConfig::default());
        let widget = Widget::new();
        let users: Vec<UserId> = (0..18u32).map(UserId).collect();
        for round in 0..6u64 {
            let jobs = scheduled.issue_jobs(&users, round * 10);
            let updates: Vec<KnnUpdate> = jobs.iter().map(|j| widget.run_job(j).update).collect();
            let outcomes = scheduled.complete_updates(&updates, round * 10 + 5);
            assert!(outcomes.iter().all(Result::is_ok), "round {round}");
        }
        assert!(scheduled.server().average_view_similarity() > 0.99);
        let stats = scheduled.scheduler().stats();
        assert_eq!(stats.issued(), 6 * 18);
        assert_eq!(stats.completed(), 6 * 18);
        assert_eq!(stats.rejected_total(), 0);
    }

    #[test]
    fn completions_validate_against_the_lease_table() {
        let scheduled = scheduled(false, SchedConfig::default());
        let widget = Widget::new();
        let job = scheduled.issue_jobs(&[UserId(1)], 0).pop().unwrap();
        let real = widget.run_job(&job).update;

        // Unleased, fabricated-neighbour and out-of-range forgeries all
        // bounce before apply_updates; the real completion lands.
        let unleased = KnnUpdate {
            lease: 0,
            ..real.clone()
        };
        let forged_neighbor = KnnUpdate {
            neighbors: vec![hyrec_core::Neighbor {
                user: UserId(9999),
                similarity: 0.5,
            }],
            ..real.clone()
        };
        let forged_sim = KnnUpdate {
            neighbors: vec![hyrec_core::Neighbor {
                user: UserId(2),
                similarity: 7.0,
            }],
            ..real.clone()
        };
        let outcomes =
            scheduled.complete_updates(&[unleased, forged_neighbor, forged_sim, real], 1);
        assert_eq!(
            outcomes,
            vec![
                Err(RejectReason::NotLeased),
                Err(RejectReason::UnknownNeighbor),
                Err(RejectReason::OutOfRangeSimilarity),
                Ok(()),
            ]
        );
        assert_eq!(scheduled.server().updates_applied(), 1);
        assert!(scheduled.server().knn_of(UserId(1)).is_some());
    }

    #[test]
    fn completions_under_a_live_lease_always_resolve_their_owner() {
        // Leases go only to users who own a profile: a fresh uid gets a
        // cold-start job without one, or an abandoned job of a voter's.
        // So every completion the scheduler admits stores its owner's row,
        // and the table never grows.
        let config = SchedConfig {
            lease_timeout: 3,
            max_reissues: 1,
            ..SchedConfig::default()
        };
        let scheduled = scheduled(false, config);
        let server = scheduled.server();
        let widget = Widget::new();
        let mut leased = 0;
        for round in 0..40u64 {
            let now = round * 2;
            let requested: Vec<UserId> = (0..6u32)
                .map(|i| UserId(if i % 2 == 0 { 1_000 + i } else { i }))
                .collect();
            let jobs = scheduled.issue_jobs(&requested, now);
            for job in jobs.iter().filter(|job| job.lease > 0) {
                leased += 1;
                assert!(server.table().contains(job.uid), "lease for {}", job.uid);
            }
            // Every third job is abandoned, so leases expire, re-issue to
            // fresh uids and fall back to the server.
            let updates: Vec<KnnUpdate> = jobs
                .iter()
                .enumerate()
                .filter(|&(i, _)| !(i as u64 + round).is_multiple_of(3))
                .map(|(_, job)| widget.run_job(job).update)
                .collect();
            let _ = scheduled.complete_updates(&updates, now + 1);
            let _ = scheduled.sweep_and_recover(now + 1);
        }
        let stats = scheduled.scheduler().stats();
        assert!(leased > 100 && stats.reissued() > 0 && stats.fallbacks() > 0);
        assert_eq!(
            server.updates_applied(),
            stats.completed() + stats.fallbacks()
        );
        assert_eq!(server.user_count(), 18);
    }

    #[test]
    fn anonymized_completions_resolve_pseudonyms_in_validation() {
        let scheduled = scheduled(true, SchedConfig::default());
        let widget = Widget::new();
        let job = scheduled.issue_jobs(&[UserId(0)], 0).pop().unwrap();
        // Candidate ids are pseudonyms — they must count as known.
        let update = widget.run_job(&job).update;
        assert_eq!(scheduled.complete_updates(&[update], 1), vec![Ok(())]);
        // A raw (non-pseudonym) id is unknown under anonymization.
        let job = scheduled.issue_jobs(&[UserId(0)], 2).pop().unwrap();
        let mut update = widget.run_job(&job).update;
        update.neighbors = vec![hyrec_core::Neighbor {
            user: UserId(1),
            similarity: 0.5,
        }];
        assert_eq!(
            scheduled.complete_updates(&[update], 3),
            vec![Err(RejectReason::UnknownNeighbor)]
        );
    }

    #[test]
    fn abandoned_jobs_fall_back_to_server_side_compute() {
        let config = SchedConfig {
            lease_timeout: 5,
            max_reissues: 1,
            ..SchedConfig::default()
        };
        let scheduled = scheduled(false, config);
        // User 1 votes, asks for a job, and the browser vanishes.
        scheduled.record(UserId(1), ItemId(7), Vote::Like, 0);
        let job = scheduled.issue_jobs(&[UserId(1)], 0).pop().unwrap();
        assert_eq!(job.uid, UserId(1));

        // First expiry: the next requesting browser is handed the job…
        let (report, fallbacks) = scheduled.sweep_and_recover(6);
        assert_eq!((report.expired, fallbacks), (1, 0));
        let reissued = scheduled.issue_jobs(&[UserId(2)], 7).pop().unwrap();
        assert_eq!(reissued.uid, UserId(1), "re-issue rung");

        // …and also abandons it: the ladder is exhausted, the server
        // computes the KNN itself.
        let (report, fallbacks) = scheduled.sweep_and_recover(20);
        assert_eq!(report.expired, 1);
        assert_eq!(fallbacks, 1);
        assert!(
            scheduled.server().knn_of(UserId(1)).is_some(),
            "fallback compute must populate the KNN table"
        );
        assert_eq!(scheduled.scheduler().stats().fallbacks(), 1);
        // The user is fresh: no longer overdue (the other seeded users
        // still owe their first refresh, which is fine here).
        assert!(!scheduled
            .scheduler()
            .overdue_users(21, 0)
            .contains(&UserId(1)));
    }

    #[test]
    fn wall_clock_sweeper_recovers_abandoned_jobs() {
        let config = SchedConfig {
            lease_timeout: 30, // ms
            max_reissues: 0,   // straight to fallback
            ..SchedConfig::default()
        };
        let scheduled = scheduled(false, config);
        let sweeper = scheduled.spawn_sweeper(Duration::from_millis(10));
        scheduled.record(UserId(1), ItemId(7), Vote::Like, scheduled.now_ms());
        let job = scheduled
            .issue_jobs(&[UserId(1)], scheduled.now_ms())
            .pop()
            .unwrap();
        assert!(job.lease > 0);
        // Abandon it; within a few sweeper periods the fallback fires.
        let deadline = Instant::now() + Duration::from_secs(5);
        while scheduled.scheduler().stats().fallbacks() == 0 {
            assert!(Instant::now() < deadline, "sweeper never recovered");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(scheduled.server().knn_of(UserId(1)).is_some());
        sweeper.stop();
    }
}
