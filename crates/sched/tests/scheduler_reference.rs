//! Differential suite: the scheduler against the implementation it
//! replaced, kept below as `reference` (a lazily invalidated heap for the
//! staleness queue, two booleans for the escalation phase). Random
//! operation sequences drive both over a grid of configurations; after
//! every operation the results, counters, per-user snapshots, lease counts
//! and overdue lists must be equal.
//!
//! The reference also carries the `unknown_user` reject of unleased
//! completions (`check_unleased`, its counter and `/stats/` key), which
//! came after it: the stats are compared field by field, and the unleased
//! check is the reference payload check behind the owner test.

#[allow(dead_code, clippy::all, clippy::pedantic)]
mod reference {
    pub mod scheduler {
        //! The lease table, staleness queue and validation core.

        use super::stats::SchedStats;
        use hyrec_core::{FastHashMap, Neighbor, UserId};
        use parking_lot::Mutex;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, VecDeque};

        /// Logical time. The scheduler never reads a clock: every entry point
        /// takes `now` explicitly, so the HTTP front-end can feed monotonic
        /// milliseconds while the churn replay feeds simulated ticks.
        pub type Tick = u64;

        /// Default slack above `1.0` tolerated in completion similarities
        /// (floating point: the widget's cosine can land at `1.0 + ulp`).
        /// [`SchedConfig::default`] takes it, so the payload check of leased
        /// ([`Scheduler::complete`]) and unleased ([`Scheduler::check_payload`])
        /// completions uses it unless a config overrides it.
        pub const DEFAULT_SIMILARITY_TOLERANCE: f64 = 1e-6;

        /// The payload check every completion passes, leased or not: each
        /// neighbour's similarity is a number in `[0, 1 + tolerance]` and its id
        /// satisfies `known`, checked in that order per neighbour, in list order.
        /// Returns the first failing check's reason.
        fn check_payload<I, F>(
            neighbors: I,
            tolerance: f64,
            mut known: F,
        ) -> Result<(), RejectReason>
        where
            I: IntoIterator<Item = (UserId, f64)>,
            F: FnMut(UserId) -> bool,
        {
            for (neighbor, similarity) in neighbors {
                if similarity.is_nan() {
                    return Err(RejectReason::NanSimilarity);
                }
                if !(0.0..=1.0 + tolerance).contains(&similarity) {
                    return Err(RejectReason::OutOfRangeSimilarity);
                }
                if !known(neighbor) {
                    return Err(RejectReason::UnknownNeighbor);
                }
            }
            Ok(())
        }

        /// Scheduling parameters.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct SchedConfig {
            /// Ticks until an outstanding lease expires and its user re-enters the
            /// queue (the browser is presumed to have navigated away).
            pub lease_timeout: Tick,
            /// How many times an expired job is re-issued to another browser
            /// before the user is surrendered to server-side fallback compute.
            pub max_reissues: u32,
            /// Priority weight of one vote recorded since the last KNN refresh.
            pub vote_weight: f64,
            /// Priority weight of one tick of age since the last KNN refresh.
            pub age_weight: f64,
            /// Slack above `1.0` tolerated in completion similarities (floating
            /// point; the widget's cosine can land at `1.0 + ulp`).
            pub similarity_tolerance: f64,
        }

        impl Default for SchedConfig {
            fn default() -> Self {
                Self {
                    lease_timeout: 30_000, // 30 s at millisecond ticks
                    max_reissues: 2,
                    vote_weight: 1.0,
                    age_weight: 1e-4,
                    similarity_tolerance: DEFAULT_SIMILARITY_TOLERANCE,
                }
            }
        }

        /// A granted job lease: who to compute for and under which credentials.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct JobGrant {
            /// The scheduler's pick — not necessarily the requesting user.
            pub user: UserId,
            /// Lease id the completion must present (`0` is never issued; it is
            /// the wire's "unleased" sentinel).
            pub lease: u64,
            /// The user's refresh epoch at issue time; completions at an older
            /// epoch are rejected.
            pub epoch: u64,
            /// Tick at which the lease expires.
            pub deadline: Tick,
            /// Whether this grant re-issues a job abandoned by another browser.
            pub reissue: bool,
        }

        /// Why a completion was rejected.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum RejectReason {
            /// No live lease with that id (never issued, expired, or `0`).
            NotLeased,
            /// The lease was superseded: the user refreshed (or was re-issued)
            /// under a newer epoch since this job was handed out.
            StaleEpoch,
            /// The lease was already consumed by an earlier completion.
            Duplicate,
            /// The completion's uid does not match the leased user.
            WrongUser,
            /// A neighbour similarity is NaN.
            NanSimilarity,
            /// A neighbour similarity is negative or above `1.0`.
            OutOfRangeSimilarity,
            /// A neighbour id the server does not know (and cannot resolve).
            UnknownNeighbor,
            /// An unleased completion whose uid owns no profile.
            UnknownUser,
        }

        impl std::fmt::Display for RejectReason {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let text = match self {
                    Self::NotLeased => "not_leased",
                    Self::StaleEpoch => "stale_epoch",
                    Self::Duplicate => "duplicate",
                    Self::WrongUser => "wrong_user",
                    Self::NanSimilarity => "nan_similarity",
                    Self::OutOfRangeSimilarity => "out_of_range_similarity",
                    Self::UnknownNeighbor => "unknown_neighbor",
                    Self::UnknownUser => "unknown_user",
                };
                f.write_str(text)
            }
        }

        /// What one [`Scheduler::sweep`] pass found.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct SweepReport {
            /// Leases that expired during this pass.
            pub expired: usize,
            /// Users currently waiting to be re-issued to the next browser.
            pub reissue_backlog: usize,
            /// Users waiting in the fallback pen (escalation ladder exhausted);
            /// collect them with [`Scheduler::take_fallback`].
            pub fallback_ready: usize,
        }

        /// Point-in-time copy of a user's lifecycle state
        /// ([`Scheduler::user_snapshot`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // field names mirror the UserState docs below
        pub struct UserSnapshot {
            pub epoch: u64,
            pub votes: u64,
            pub last_refresh: Tick,
            pub attempts: u32,
            pub outstanding: u32,
            pub in_reissue: bool,
            pub in_fallback: bool,
        }

        /// Per-user lifecycle state.
        #[derive(Debug)]
        struct UserState {
            /// Refresh epoch: bumped on every applied refresh and on every
            /// re-issue, invalidating completions of superseded leases.
            epoch: u64,
            /// Votes recorded since the last applied KNN refresh.
            votes: u64,
            /// Tick of the last applied refresh (registration tick before any).
            last_refresh: Tick,
            /// Consecutive lease expiries since the last refresh — the rung of the
            /// escalation ladder this user stands on.
            attempts: u32,
            /// Live leases for this user.
            outstanding: u32,
            /// Version of this user's live staleness-queue entry (lazy heap
            /// invalidation: entries with an older version are discarded on pop).
            queue_version: u64,
            /// Whether the user sits in the re-issue backlog.
            in_reissue: bool,
            /// Whether the user sits in the fallback pen.
            in_fallback: bool,
            /// Taken from the pen by [`Scheduler::take_fallback`]; the recompute
            /// has not been reported back yet.
            recomputing: bool,
        }

        impl UserState {
            fn new(now: Tick) -> Self {
                Self {
                    epoch: 1,
                    votes: 0,
                    last_refresh: now,
                    attempts: 0,
                    outstanding: 0,
                    queue_version: 0,
                    in_reissue: false,
                    in_fallback: false,
                    recomputing: false,
                }
            }
        }

        /// One staleness-queue entry. `key` is time-shifted priority: comparing
        /// `vote_weight·votes + age_weight·(now − last_refresh)` between two users
        /// at any common `now` is equivalent to comparing
        /// `vote_weight·votes − age_weight·last_refresh`, which is constant — so
        /// entries need no re-scoring as time passes.
        #[derive(Debug)]
        struct QueueEntry {
            key: f64,
            version: u64,
            user: UserId,
        }

        impl PartialEq for QueueEntry {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for QueueEntry {}
        impl PartialOrd for QueueEntry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for QueueEntry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Ties broken by user id for determinism across runs.
                self.key
                    .total_cmp(&other.key)
                    .then_with(|| self.user.raw().cmp(&other.user.raw()))
            }
        }

        /// One outstanding lease. Expiry is driven by the `(deadline, lease)`
        /// heap, not stored here: a completion that lands after its deadline but
        /// before the sweep notices still counts (the work *did* come back), and
        /// exactly-once application is guaranteed by the epoch check regardless.
        #[derive(Debug)]
        struct LeaseEntry {
            user: UserId,
            epoch: u64,
        }

        #[derive(Debug, Default)]
        struct Inner {
            next_lease: u64,
            users: FastHashMap<UserId, UserState>,
            /// Outstanding leases by id.
            leases: FastHashMap<u64, LeaseEntry>,
            /// Recently consumed lease ids → completion tick (duplicate
            /// detection); pruned against the lease timeout so it stays bounded.
            completed: FastHashMap<u64, Tick>,
            /// Staleness priority queue (max-heap over `QueueEntry::key`).
            queue: BinaryHeap<QueueEntry>,
            /// Expired users awaiting re-issue to the next requesting browser,
            /// with the tick they entered the backlog (waiting longer than one
            /// lease timeout promotes them straight to fallback — recomputation
            /// latency stays bounded even if request traffic dries up).
            reissue: VecDeque<(UserId, Tick)>,
            /// Users whose escalation ladder is exhausted.
            fallback: Vec<UserId>,
            /// Expiry index: min-heap of `(deadline, lease id)`.
            expiry: BinaryHeap<Reverse<(Tick, u64)>>,
        }

        /// The job-lifecycle scheduler. See the crate docs for the model.
        ///
        /// All methods take `&self`; state lives behind one mutex (held for
        /// bookkeeping only — never across job building, widget compute or table
        /// writes).
        #[derive(Debug)]
        pub struct Scheduler {
            config: SchedConfig,
            inner: Mutex<Inner>,
            stats: SchedStats,
        }

        impl Default for Scheduler {
            fn default() -> Self {
                Self::new(SchedConfig::default())
            }
        }

        impl Scheduler {
            /// Creates a scheduler with the given parameters.
            #[must_use]
            pub fn new(config: SchedConfig) -> Self {
                Self {
                    config,
                    inner: Mutex::new(Inner {
                        next_lease: 1,
                        ..Inner::default()
                    }),
                    stats: SchedStats::default(),
                }
            }

            /// The active configuration.
            #[must_use]
            pub fn config(&self) -> &SchedConfig {
                &self.config
            }

            /// Lifecycle and reject counters.
            #[must_use]
            pub fn stats(&self) -> &SchedStats {
                &self.stats
            }

            /// Records that `user` voted at `now`: their staleness priority rises
            /// by one vote weight.
            pub fn note_vote(&self, user: UserId, now: Tick) {
                self.note_votes(std::slice::from_ref(&user), now);
            }

            /// Batched [`Self::note_vote`]: one lock acquisition for a coalesced
            /// `/rate/` burst.
            pub fn note_votes(&self, users: &[UserId], now: Tick) {
                if users.is_empty() {
                    return;
                }
                let mut guard = self.inner.lock();
                let inner = &mut *guard;
                for &user in users {
                    let state = inner
                        .users
                        .entry(user)
                        .or_insert_with(|| UserState::new(now));
                    state.votes += 1;
                    Self::requeue(&self.config, state, user, &mut inner.queue);
                }
            }

            /// Issues one job lease for a request nominally asking for `requested`.
            ///
            /// The pick order is the crate's scheduling policy:
            /// 1. the re-issue backlog (churn recovery beats everything),
            /// 2. the staleness-queue top, when it is strictly more urgent than
            ///    the requester and has no job in flight,
            /// 3. the requester itself.
            pub fn issue(&self, requested: UserId, now: Tick) -> JobGrant {
                self.issue_mixed(&[Some(requested)], now)
                    .pop()
                    .flatten()
                    .expect("a requested slot is always granted")
            }

            /// Issues leases for a coalesced `/online/` batch under one lock
            /// acquisition, in request order. A `Some(uid)` slot is granted as
            /// [`Self::issue`] describes. A `None` slot is an *anonymous* request —
            /// one whose nominal uid the caller refuses to register (e.g. an
            /// unknown browser-supplied id, which must not mint permanent
            /// scheduler state or fallback obligations): it is served the re-issue
            /// backlog or the staleness-queue top, and comes back `None` when no
            /// registered user needs work.
            #[must_use]
            pub fn issue_mixed(
                &self,
                requested: &[Option<UserId>],
                now: Tick,
            ) -> Vec<Option<JobGrant>> {
                if requested.is_empty() {
                    return Vec::new();
                }
                let mut guard = self.inner.lock();
                let inner = &mut *guard;
                self.sweep_locked(inner, now);
                requested
                    .iter()
                    .map(|&slot| match slot {
                        Some(uid) => Some(self.issue_one_locked(inner, uid, now)),
                        None => {
                            if let Some(grant) = self.pop_reissue_locked(inner, now) {
                                return Some(grant);
                            }
                            // No user id exists to self-serve: only a strictly
                            // positive-priority registered user is picked.
                            let pick = self.pop_queue_pick_locked(inner, None, now)?;
                            Some(self.grant_locked(inner, pick, now, false))
                        }
                    })
                    .collect()
            }

            /// Rung 1: churn recovery. Pops the oldest abandoned user (skimming
            /// entries whose flag was cleared by a late completion) and re-grants
            /// under a bumped epoch, so the vanished browser's completion — if it
            /// ever arrives — is recognizably stale.
            fn pop_reissue_locked(&self, inner: &mut Inner, now: Tick) -> Option<JobGrant> {
                while let Some((user, _)) = inner.reissue.pop_front() {
                    let Some(state) = inner.users.get_mut(&user) else {
                        continue;
                    };
                    if !state.in_reissue {
                        continue;
                    }
                    state.in_reissue = false;
                    state.epoch += 1;
                    self.stats.inc_reissued();
                    return Some(self.grant_locked(inner, user, now, true));
                }
                None
            }

            fn issue_one_locked(
                &self,
                inner: &mut Inner,
                requested: UserId,
                now: Tick,
            ) -> JobGrant {
                if let Some(grant) = self.pop_reissue_locked(inner, now) {
                    return grant;
                }

                // Make sure the requester exists (cold start registers here).
                inner
                    .users
                    .entry(requested)
                    .or_insert_with(|| UserState::new(now));

                // Rung 2: the staleness queue, when its top is strictly more
                // urgent than the requester.
                let pick = self
                    .pop_queue_pick_locked(inner, Some(requested), now)
                    .unwrap_or(requested);
                self.grant_locked(inner, pick, now, false)
            }

            /// Pops the staleness-queue top if it should be served *instead of*
            /// `requested` (`None` = anonymous request: any strictly
            /// positive-priority eligible user wins). Stale heap entries are
            /// discarded; valid entries of currently ineligible users (job in
            /// flight, queued for re-issue or fallback) are stashed and restored.
            fn pop_queue_pick_locked(
                &self,
                inner: &mut Inner,
                requested: Option<UserId>,
                now: Tick,
            ) -> Option<UserId> {
                let requested_priority = requested
                    .and_then(|uid| inner.users.get(&uid))
                    .map_or(0.0, |s| self.priority_at(s, now));
                let mut stash = Vec::new();
                let mut pick = None;
                while let Some(top) = inner.queue.peek() {
                    let user = top.user;
                    let version = top.version;
                    let Some(state) = inner.users.get(&user) else {
                        inner.queue.pop();
                        continue;
                    };
                    if version != state.queue_version {
                        inner.queue.pop(); // superseded entry
                        continue;
                    }
                    if Some(user) == requested {
                        // The requester *is* the most urgent user; serve them via
                        // rung 3 and leave their entry for the refresh to clear.
                        break;
                    }
                    if state.outstanding > 0 || state.in_reissue || state.in_fallback {
                        stash.push(inner.queue.pop().expect("peeked entry exists"));
                        continue;
                    }
                    if self.priority_at(state, now) > requested_priority {
                        inner.queue.pop();
                        pick = Some(user);
                    }
                    break;
                }
                inner.queue.extend(stash);
                pick
            }

            fn grant_locked(
                &self,
                inner: &mut Inner,
                user: UserId,
                now: Tick,
                reissue: bool,
            ) -> JobGrant {
                let lease = inner.next_lease;
                inner.next_lease += 1;
                let deadline = now + self.config.lease_timeout;
                let state = inner.users.get_mut(&user).expect("pick is registered");
                state.outstanding += 1;
                let epoch = state.epoch;
                inner.leases.insert(lease, LeaseEntry { user, epoch });
                inner.expiry.push(Reverse((deadline, lease)));
                self.stats.inc_issued();
                JobGrant {
                    user,
                    lease,
                    epoch,
                    deadline,
                    reissue,
                }
            }

            /// Validates a completion and, on success, consumes its lease and
            /// resets the user's staleness.
            ///
            /// `known` answers whether a reported neighbour id is resolvable by
            /// the server (under pseudonymization this means "the pseudonym
            /// resolves", not "the raw id exists").
            ///
            /// The *caller* applies the update to the KNN table iff this returns
            /// `Ok` — validation happens strictly before `apply_updates`.
            ///
            /// # Errors
            ///
            /// Returns the [`RejectReason`] (also counted in [`SchedStats`]) when
            /// the completion must not be applied. Payload rejects (NaN / range /
            /// unknown neighbour) leave the lease live, so the job is still
            /// recoverable through expiry if the worker never sends a valid one.
            ///
            /// Lease-state checks run strictly **before** any payload inspection:
            /// the neighbour-resolvability probe must never fire for a request
            /// without a live lease, or unauthenticated clients could use the
            /// `unknown_neighbor`-vs-`not_leased` distinction as an oracle to
            /// enumerate live pseudonyms (exactly what anonymization epochs hide).
            pub fn complete<F>(
                &self,
                uid: UserId,
                lease: u64,
                epoch: u64,
                neighbors: &[Neighbor],
                now: Tick,
                mut known: F,
            ) -> Result<(), RejectReason>
            where
                F: FnMut(UserId) -> bool,
            {
                let mut guard = self.inner.lock();
                let inner = &mut *guard;
                let verdict = (|| {
                    if lease == 0 {
                        return Err(RejectReason::NotLeased);
                    }
                    if inner.completed.contains_key(&lease) {
                        return Err(RejectReason::Duplicate);
                    }
                    let Some(entry) = inner.leases.get(&lease) else {
                        return Err(RejectReason::NotLeased);
                    };
                    if entry.user != uid {
                        return Err(RejectReason::WrongUser);
                    }
                    let current_epoch = inner.users.get(&uid).map_or(0, |s| s.epoch);
                    if epoch != entry.epoch || entry.epoch != current_epoch {
                        return Err(RejectReason::StaleEpoch);
                    }
                    // Payload validation last, under a proven-live lease. A
                    // malformed payload does not consume the lease (the browser
                    // may retry; expiry re-issues otherwise).
                    check_payload(
                        neighbors.iter().map(|n| (n.user, n.similarity)),
                        self.config.similarity_tolerance,
                        &mut known,
                    )
                })();
                match verdict {
                    Ok(()) => {
                        inner.leases.remove(&lease);
                        inner.completed.insert(lease, now);
                        let config = self.config;
                        let state = inner.users.get_mut(&uid).expect("leased user exists");
                        state.outstanding = state.outstanding.saturating_sub(1);
                        state.votes = 0;
                        state.attempts = 0;
                        state.last_refresh = now;
                        state.epoch += 1; // any sibling lease is now stale
                        state.in_reissue = false;
                        state.in_fallback = false;
                        Self::requeue(&config, state, uid, &mut inner.queue);
                        self.stats.inc_completed();
                        Ok(())
                    }
                    Err(reason) => {
                        self.stats.inc_reject(reason);
                        Err(reason)
                    }
                }
            }

            /// Validates the payload of a completion that carries no lease (the
            /// unleased configuration): the NaN, range and `known` checks of
            /// [`Self::complete`], in the same order, the reject counted in
            /// [`SchedStats`]. Takes no lock.
            ///
            /// # Errors
            ///
            /// Returns the [`RejectReason`] of the first failing check.
            pub fn check_payload<F>(
                &self,
                neighbors: &[Neighbor],
                known: F,
            ) -> Result<(), RejectReason>
            where
                F: FnMut(UserId) -> bool,
            {
                check_payload(
                    neighbors.iter().map(|n| (n.user, n.similarity)),
                    self.config.similarity_tolerance,
                    known,
                )
                .inspect_err(|&reason| self.stats.inc_reject(reason))
            }

            /// The unleased check: the uid must own a profile (`owned`),
            /// then [`Self::check_payload`].
            pub fn check_unleased<F>(
                &self,
                owned: bool,
                neighbors: &[Neighbor],
                known: F,
            ) -> Result<(), RejectReason>
            where
                F: FnMut(UserId) -> bool,
            {
                if !owned {
                    self.stats.inc_reject(RejectReason::UnknownUser);
                    return Err(RejectReason::UnknownUser);
                }
                self.check_payload(neighbors, known)
            }

            /// Expires overdue leases, climbing each user one rung up the
            /// escalation ladder (re-issue backlog, then the fallback pen).
            pub fn sweep(&self, now: Tick) -> SweepReport {
                let mut guard = self.inner.lock();
                let inner = &mut *guard;
                let expired = self.sweep_locked(inner, now);
                SweepReport {
                    expired,
                    reissue_backlog: inner.reissue.len(),
                    fallback_ready: inner.fallback.len(),
                }
            }

            fn sweep_locked(&self, inner: &mut Inner, now: Tick) -> usize {
                let mut expired = 0;
                while let Some(&Reverse((deadline, lease))) = inner.expiry.peek() {
                    if deadline > now {
                        break;
                    }
                    inner.expiry.pop();
                    // Completed (or superseded) leases were already removed from
                    // the table; only live entries expire.
                    let Some(entry) = inner.leases.remove(&lease) else {
                        continue;
                    };
                    expired += 1;
                    self.stats.inc_expired();
                    let max_reissues = self.config.max_reissues;
                    let user = entry.user;
                    let Some(state) = inner.users.get_mut(&user) else {
                        continue;
                    };
                    state.outstanding = state.outstanding.saturating_sub(1);
                    // A superseded lease (the user refreshed, or was re-issued,
                    // under a newer epoch since this one was granted) expires
                    // without climbing the ladder: the work it covered is already
                    // done or already being recovered. Only current-epoch expiries
                    // mean a user is actually stranded.
                    if entry.epoch != state.epoch {
                        continue;
                    }
                    // One abandonment event climbs one rung: sibling leases (two
                    // tabs fetching the same user, same epoch) expiring in one
                    // sweep must not burn several re-issues at once, so the
                    // attempt counter moves only when a recovery is enqueued.
                    if state.in_reissue || state.in_fallback {
                        continue;
                    }
                    state.attempts += 1;
                    if state.attempts > max_reissues {
                        state.in_fallback = true;
                        inner.fallback.push(user);
                    } else {
                        state.in_reissue = true;
                        inner.reissue.push_back((user, now));
                    }
                }
                // Liveness: a backlog entry that no browser showed up to adopt
                // within one lease timeout is promoted straight to fallback, so
                // recomputation latency stays bounded even when traffic dries up.
                while let Some(&(user, queued_at)) = inner.reissue.front() {
                    if queued_at + self.config.lease_timeout > now {
                        break;
                    }
                    inner.reissue.pop_front();
                    let Some(state) = inner.users.get_mut(&user) else {
                        continue;
                    };
                    if !state.in_reissue {
                        continue;
                    }
                    state.in_reissue = false;
                    state.in_fallback = true;
                    inner.fallback.push(user);
                }
                // Keep the duplicate-detection set bounded: a completion older than
                // a few lease lifetimes can no longer collide with a live retry.
                if inner.completed.len() > 4096 {
                    let horizon = now.saturating_sub(4 * self.config.lease_timeout);
                    inner.completed.retain(|_, &mut t| t >= horizon);
                }
                // Compact the staleness heap when superseded entries dominate:
                // every vote/refresh pushes a fresh entry and only invalidates the
                // old one lazily, so a vote-heavy workload would otherwise grow
                // the heap with total votes ever recorded.
                if inner.queue.len() > 64 && inner.queue.len() > 2 * inner.users.len() {
                    let users = &inner.users;
                    let live: Vec<QueueEntry> = std::mem::take(&mut inner.queue)
                        .into_iter()
                        .filter(|entry| {
                            users
                                .get(&entry.user)
                                .is_some_and(|s| s.queue_version == entry.version)
                        })
                        .collect();
                    inner.queue = BinaryHeap::from(live);
                }
                expired
            }

            /// Drains the fallback pen: users whose escalation ladder is exhausted
            /// and who must now be recomputed server-side. The caller performs the
            /// compute and reports back through [`Self::mark_refreshed`], which is
            /// when the fallback counts.
            #[must_use]
            pub fn take_fallback(&self) -> Vec<UserId> {
                let mut guard = self.inner.lock();
                let inner = &mut *guard;
                let drained: Vec<UserId> = inner.fallback.drain(..).collect();
                let mut taken = Vec::with_capacity(drained.len());
                for user in drained {
                    let Some(state) = inner.users.get_mut(&user) else {
                        continue;
                    };
                    // A late valid completion may have refreshed the user while
                    // they sat in the pen; skip those.
                    if state.in_fallback {
                        state.in_fallback = false;
                        state.recomputing = true;
                        taken.push(user);
                    }
                }
                taken
            }

            /// Records an out-of-band refresh (server-side fallback compute):
            /// resets the user's staleness and bumps their epoch so any straggler
            /// browser completion is recognizably stale. For a user taken from the
            /// pen this counts the fallback.
            pub fn mark_refreshed(&self, user: UserId, now: Tick) {
                let mut guard = self.inner.lock();
                let inner = &mut *guard;
                let config = self.config;
                let state = inner
                    .users
                    .entry(user)
                    .or_insert_with(|| UserState::new(now));
                state.votes = 0;
                state.attempts = 0;
                state.last_refresh = now;
                state.epoch += 1;
                state.in_reissue = false;
                state.in_fallback = false;
                if std::mem::take(&mut state.recomputing) {
                    self.stats.inc_fallbacks();
                }
                Self::requeue(&config, state, user, &mut inner.queue);
            }

            /// Users who still owe a recomputation `budget` ticks after their
            /// first unserviced vote — the churn replay's acceptance probe.
            #[must_use]
            pub fn overdue_users(&self, now: Tick, budget: Tick) -> Vec<UserId> {
                let inner = self.inner.lock();
                let mut overdue: Vec<UserId> = inner
                    .users
                    .iter()
                    .filter(|(_, s)| s.votes > 0 && now.saturating_sub(s.last_refresh) > budget)
                    .map(|(&u, _)| u)
                    .collect();
                overdue.sort_unstable_by_key(|user| user.raw());
                overdue
            }

            /// Point-in-time copy of one user's lifecycle state (observability
            /// and test diagnostics).
            #[must_use]
            pub fn user_snapshot(&self, user: UserId) -> Option<UserSnapshot> {
                let inner = self.inner.lock();
                inner.users.get(&user).map(|s| UserSnapshot {
                    epoch: s.epoch,
                    votes: s.votes,
                    last_refresh: s.last_refresh,
                    attempts: s.attempts,
                    outstanding: s.outstanding,
                    in_reissue: s.in_reissue,
                    in_fallback: s.in_fallback,
                })
            }

            /// Number of live (unexpired, unconsumed) leases.
            #[must_use]
            pub fn outstanding_leases(&self) -> usize {
                self.inner.lock().leases.len()
            }

            /// Number of users known to the scheduler.
            #[must_use]
            pub fn user_count(&self) -> usize {
                self.inner.lock().users.len()
            }

            fn priority_at(&self, state: &UserState, now: Tick) -> f64 {
                self.config.vote_weight * state.votes as f64
                    + self.config.age_weight * now.saturating_sub(state.last_refresh) as f64
            }

            /// Pushes a fresh queue entry for `user`, superseding any live one.
            fn requeue(
                config: &SchedConfig,
                state: &mut UserState,
                user: UserId,
                queue: &mut BinaryHeap<QueueEntry>,
            ) {
                state.queue_version += 1;
                queue.push(QueueEntry {
                    key: config.vote_weight * state.votes as f64
                        - config.age_weight * state.last_refresh as f64,
                    version: state.queue_version,
                    user,
                });
            }
        }
    }

    pub mod stats {
        //! Scheduler observability: lifecycle and per-reason reject counters.

        use super::scheduler::RejectReason;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Atomic counters tracking the job lifecycle and every reject reason.
        ///
        /// Shared by reference from the scheduler; cheap to read at any time (the
        /// `/stats/` route serializes a [`SchedStatsSnapshot`] per request).
        #[derive(Debug, Default)]
        pub struct SchedStats {
            issued: AtomicU64,
            reissued: AtomicU64,
            completed: AtomicU64,
            expired: AtomicU64,
            fallbacks: AtomicU64,
            rejected_not_leased: AtomicU64,
            rejected_stale_epoch: AtomicU64,
            rejected_duplicate: AtomicU64,
            rejected_wrong_user: AtomicU64,
            rejected_nan_similarity: AtomicU64,
            rejected_out_of_range_similarity: AtomicU64,
            rejected_unknown_neighbor: AtomicU64,
            rejected_unknown_user: AtomicU64,
        }

        macro_rules! counter {
            ($(#[$doc:meta])* $name:ident, $inc:ident) => {
                $(#[$doc])*
                #[must_use]
                pub fn $name(&self) -> u64 {
                    self.$name.load(Ordering::Relaxed)
                }

                pub(crate) fn $inc(&self) {
                    self.$name.fetch_add(1, Ordering::Relaxed);
                }
            };
        }

        impl SchedStats {
            counter!(
                /// Leases issued (including re-issues).
                issued,
                inc_issued
            );
            counter!(
                /// Expired jobs handed to another browser (escalation ladder).
                reissued,
                inc_reissued
            );
            counter!(
                /// Completions validated and applied.
                completed,
                inc_completed
            );
            counter!(
                /// Leases that outlived their deadline (abandoned browsers).
                expired,
                inc_expired
            );
            counter!(
                /// Server-side fallback recomputes, counted when the caller
                /// reports one applied ([`super::scheduler::Scheduler::mark_refreshed`]).
                fallbacks,
                inc_fallbacks
            );
            counter!(
                /// Completions presenting no (or an unknown / expired) lease.
                rejected_not_leased,
                inc_rejected_not_leased
            );
            counter!(
                /// Completions whose lease was superseded by a newer epoch.
                rejected_stale_epoch,
                inc_rejected_stale_epoch
            );
            counter!(
                /// Completions for a lease that was already consumed.
                rejected_duplicate,
                inc_rejected_duplicate
            );
            counter!(
                /// Completions whose uid does not match the leased user.
                rejected_wrong_user,
                inc_rejected_wrong_user
            );
            counter!(
                /// Completions carrying a NaN similarity.
                rejected_nan_similarity,
                inc_rejected_nan_similarity
            );
            counter!(
                /// Completions carrying a similarity outside `[0, 1]`.
                rejected_out_of_range_similarity,
                inc_rejected_out_of_range_similarity
            );
            counter!(
                /// Completions naming a neighbour the server does not know.
                rejected_unknown_neighbor,
                inc_rejected_unknown_neighbor
            );
            counter!(
                /// Unleased completions whose uid owns no profile.
                rejected_unknown_user,
                inc_rejected_unknown_user
            );

            /// Sum over every reject reason.
            #[must_use]
            pub fn rejected_total(&self) -> u64 {
                self.rejected_not_leased()
                    + self.rejected_stale_epoch()
                    + self.rejected_duplicate()
                    + self.rejected_wrong_user()
                    + self.rejected_nan_similarity()
                    + self.rejected_out_of_range_similarity()
                    + self.rejected_unknown_neighbor()
                    + self.rejected_unknown_user()
            }

            pub(crate) fn inc_reject(&self, reason: RejectReason) {
                match reason {
                    RejectReason::NotLeased => self.inc_rejected_not_leased(),
                    RejectReason::StaleEpoch => self.inc_rejected_stale_epoch(),
                    RejectReason::Duplicate => self.inc_rejected_duplicate(),
                    RejectReason::WrongUser => self.inc_rejected_wrong_user(),
                    RejectReason::NanSimilarity => self.inc_rejected_nan_similarity(),
                    RejectReason::OutOfRangeSimilarity => {
                        self.inc_rejected_out_of_range_similarity()
                    }
                    RejectReason::UnknownNeighbor => self.inc_rejected_unknown_neighbor(),
                    RejectReason::UnknownUser => self.inc_rejected_unknown_user(),
                }
            }

            /// A consistent-enough point-in-time copy of every counter.
            #[must_use]
            pub fn snapshot(&self) -> SchedStatsSnapshot {
                SchedStatsSnapshot {
                    issued: self.issued(),
                    reissued: self.reissued(),
                    completed: self.completed(),
                    expired: self.expired(),
                    fallbacks: self.fallbacks(),
                    rejected_not_leased: self.rejected_not_leased(),
                    rejected_stale_epoch: self.rejected_stale_epoch(),
                    rejected_duplicate: self.rejected_duplicate(),
                    rejected_wrong_user: self.rejected_wrong_user(),
                    rejected_nan_similarity: self.rejected_nan_similarity(),
                    rejected_out_of_range_similarity: self.rejected_out_of_range_similarity(),
                    rejected_unknown_neighbor: self.rejected_unknown_neighbor(),
                    rejected_unknown_user: self.rejected_unknown_user(),
                }
            }
        }

        /// Plain-data snapshot of [`SchedStats`] (the `/stats/` payload).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        #[allow(missing_docs)] // field names mirror the documented SchedStats accessors
        pub struct SchedStatsSnapshot {
            pub issued: u64,
            pub reissued: u64,
            pub completed: u64,
            pub expired: u64,
            pub fallbacks: u64,
            pub rejected_not_leased: u64,
            pub rejected_stale_epoch: u64,
            pub rejected_duplicate: u64,
            pub rejected_wrong_user: u64,
            pub rejected_nan_similarity: u64,
            pub rejected_out_of_range_similarity: u64,
            pub rejected_unknown_neighbor: u64,
            pub rejected_unknown_user: u64,
        }

        impl SchedStatsSnapshot {
            /// Sum over every reject reason.
            #[must_use]
            pub fn rejected_total(&self) -> u64 {
                self.rejected_not_leased
                    + self.rejected_stale_epoch
                    + self.rejected_duplicate
                    + self.rejected_wrong_user
                    + self.rejected_nan_similarity
                    + self.rejected_out_of_range_similarity
                    + self.rejected_unknown_neighbor
                    + self.rejected_unknown_user
            }

            /// Serializes the snapshot as a compact JSON object.
            #[must_use]
            pub fn to_json(&self) -> String {
                format!(
                    "{{\"issued\":{},\"reissued\":{},\"completed\":{},\"expired\":{},\
                     \"fallbacks\":{},\"rejected\":{{\"not_leased\":{},\"stale_epoch\":{},\
                     \"duplicate\":{},\"wrong_user\":{},\"nan_similarity\":{},\
                     \"out_of_range_similarity\":{},\"unknown_neighbor\":{},\
                     \"unknown_user\":{},\"total\":{}}}}}",
                    self.issued,
                    self.reissued,
                    self.completed,
                    self.expired,
                    self.fallbacks,
                    self.rejected_not_leased,
                    self.rejected_stale_epoch,
                    self.rejected_duplicate,
                    self.rejected_wrong_user,
                    self.rejected_nan_similarity,
                    self.rejected_out_of_range_similarity,
                    self.rejected_unknown_neighbor,
                    self.rejected_unknown_user,
                    self.rejected_total(),
                )
            }
        }
    }

    pub use scheduler::{SchedConfig, Scheduler};
}

use hyrec_core::{Neighbor, UserId};
use hyrec_sched::{JobGrant, SchedConfig, Scheduler, Tick};
use proptest::prelude::*;
use std::fmt::Debug;

/// Users `0..UIDS` take part; a small space keeps picks, siblings and
/// re-issues colliding.
const UIDS: u32 = 6;

/// Neighbour ids at or above this are unknown to the server.
const KNOWN_BELOW: u32 = 100;

const LEASE_TIMEOUTS: [Tick; 3] = [1, 5, 40];
const MAX_REISSUES: [u32; 3] = [0, 1, 3];
const AGE_WEIGHTS: [f64; 4] = [0.0, 1e-4, 0.05, 1.0];
const GRID: usize = LEASE_TIMEOUTS.len() * MAX_REISSUES.len() * AGE_WEIGHTS.len();

/// One grid cell's configuration, as each implementation spells it.
fn configs(cell: usize) -> (SchedConfig, reference::SchedConfig) {
    let lease_timeout = LEASE_TIMEOUTS[cell % LEASE_TIMEOUTS.len()];
    let max_reissues = MAX_REISSUES[cell / LEASE_TIMEOUTS.len() % MAX_REISSUES.len()];
    let age_weight = AGE_WEIGHTS[cell / (LEASE_TIMEOUTS.len() * MAX_REISSUES.len())];
    (
        SchedConfig {
            lease_timeout,
            max_reissues,
            age_weight,
        },
        reference::SchedConfig {
            lease_timeout,
            max_reissues,
            age_weight,
            ..reference::SchedConfig::default()
        },
    )
}

fn neighbor(user: u32, similarity: f64) -> Neighbor {
    Neighbor {
        user: UserId(user),
        similarity,
    }
}

/// A completion payload: valid (possibly empty, possibly at the edge of
/// the tolerance) or with one bad neighbour between a valid one and a
/// second bad one, so which check runs first, on which neighbour, shows.
fn payload(variant: u32) -> Vec<Neighbor> {
    let bad = match variant % 10 {
        0 => return Vec::new(),
        1 => neighbor(2, f64::NAN),
        2 => neighbor(2, -0.25),
        3 => neighbor(2, 1.5),
        4 => neighbor(2, 1.0 + 2e-6),
        5 => neighbor(KNOWN_BELOW + 7, 0.5),
        6 => neighbor(KNOWN_BELOW + 7, f64::NAN),
        7 => return vec![neighbor(1, 0.5), neighbor(2, 1.0 + 1e-6)],
        _ => return vec![neighbor(1, 0.5), neighbor(3, 1.0)],
    };
    vec![neighbor(1, 0.5), bad, neighbor(KNOWN_BELOW + 9, -1.0)]
}

/// Both implementations side by side, fed the same operations.
struct Pair {
    new: Scheduler,
    old: reference::Scheduler,
    now: Tick,
    /// Every grant issued so far (both sides issued the same ones).
    grants: Vec<JobGrant>,
    /// The last fallback pen drained (both sides drained the same).
    taken: Vec<UserId>,
    /// Non-reissue grants for a user other than the slot's requester.
    picked_other: u64,
    /// Operation log, printed on a mismatch.
    log: Vec<String>,
}

impl Pair {
    fn new(cell: usize) -> Self {
        let (new, old) = configs(cell);
        Self {
            new: Scheduler::new(new),
            old: reference::Scheduler::new(old),
            now: 0,
            grants: Vec::new(),
            taken: Vec::new(),
            picked_other: 0,
            log: vec![format!("cell {cell}: {new:?}")],
        }
    }

    fn equal<T: Debug>(&self, what: &str, new: T, old: impl Debug) -> Result<(), String> {
        let (new, old) = (format!("{new:?}"), format!("{old:?}"));
        if new == old {
            return Ok(());
        }
        let tail = self.log.len().saturating_sub(40);
        Err(format!(
            "{what} differs\n  new: {new}\n  old: {old}\nlast operations:\n  {}",
            self.log[tail..].join("\n  ")
        ))
    }

    /// Every observable the two sides must agree on.
    fn check_state(&self) -> Result<(), String> {
        let (new, old) = (self.new.stats().snapshot(), self.old.stats().snapshot());
        self.equal("stats", new, old)?;
        self.equal("stats json", new.to_json(), old.to_json())?;
        self.equal(
            "rejected_total",
            self.new.stats().rejected_total(),
            self.old.stats().rejected_total(),
        )?;
        for uid in 0..=UIDS {
            self.equal(
                &format!("user_snapshot({uid})"),
                self.new.user_snapshot(UserId(uid)),
                self.old.user_snapshot(UserId(uid)),
            )?;
        }
        self.equal(
            "outstanding_leases",
            self.new.outstanding_leases(),
            self.old.outstanding_leases(),
        )?;
        self.equal("user_count", self.new.user_count(), self.old.user_count())?;
        for budget in [0, 3, 50] {
            self.equal(
                &format!("overdue_users({budget})"),
                self.new.overdue_users(self.now, budget),
                self.old.overdue_users(self.now, budget),
            )?;
        }
        Ok(())
    }

    /// Moves the clock: mostly forward, sometimes not at all, sometimes
    /// back (wall-clock ticks read by racing threads can arrive out of
    /// order).
    fn step(&mut self, tick: u8, amount: u32) {
        let amount = Tick::from(amount % 24);
        self.now = match tick % 8 {
            0 => self.now.saturating_sub(amount),
            1 | 2 => self.now,
            _ => self.now + amount,
        };
    }

    fn issue(&mut self, slots: &[Option<UserId>]) -> Result<(), String> {
        self.log
            .push(format!("t={} issue_mixed({slots:?})", self.now));
        let new = self.new.issue_mixed(slots, self.now);
        let old = self.old.issue_mixed(slots, self.now);
        self.equal("issue_mixed", &new, old)?;
        for (slot, grant) in slots.iter().zip(&new) {
            if let Some(grant) = grant {
                self.picked_other += u64::from(!grant.reissue && *slot != Some(grant.user));
            }
        }
        self.grants.extend(new.into_iter().flatten());
        Ok(())
    }

    fn note_votes(&mut self, users: &[UserId]) {
        self.log
            .push(format!("t={} note_votes({users:?})", self.now));
        self.new.note_votes(users, self.now);
        self.old.note_votes(users, self.now);
    }

    /// Sends one completion to both sides, recording which neighbour ids
    /// each one probed.
    fn complete(
        &mut self,
        uid: UserId,
        lease: u64,
        epoch: u64,
        payload: &[Neighbor],
    ) -> Result<(), String> {
        self.log.push(format!(
            "t={} complete(uid {}, lease {lease}, epoch {epoch}, {payload:?})",
            self.now, uid.0
        ));
        let (mut new_probes, mut old_probes) = (Vec::new(), Vec::new());
        let new = self
            .new
            .complete(uid, lease, epoch, payload, self.now, |u| {
                new_probes.push(u);
                u.0 < KNOWN_BELOW
            });
        let old = self
            .old
            .complete(uid, lease, epoch, payload, self.now, |u| {
                old_probes.push(u);
                u.0 < KNOWN_BELOW
            });
        self.equal("complete", new, old)?;
        self.equal("complete probes", new_probes, old_probes)
    }

    /// Sends one unleased completion to both sides, from a uid that owns a
    /// profile or not, recording which neighbour ids each one probed.
    fn check_unleased(&mut self, owned: bool, payload: &[Neighbor]) -> Result<(), String> {
        self.log
            .push(format!("check_unleased({owned}, {payload:?})"));
        let (mut new_probes, mut old_probes) = (Vec::new(), Vec::new());
        let new = self.new.check_unleased(owned, payload, |u| {
            new_probes.push(u);
            u.0 < KNOWN_BELOW
        });
        let old = self.old.check_unleased(owned, payload, |u| {
            old_probes.push(u);
            u.0 < KNOWN_BELOW
        });
        self.equal("check_unleased", new, old)?;
        self.equal("check_unleased probes", new_probes, old_probes)
    }

    fn sweep(&mut self) -> Result<(), String> {
        self.log.push(format!("t={} sweep", self.now));
        let new = self.new.sweep(self.now);
        let old = self.old.sweep(self.now);
        self.equal("sweep", new, old)
    }

    fn take_fallback(&mut self) -> Result<(), String> {
        self.log.push("take_fallback".into());
        let new = self.new.take_fallback();
        let old = self.old.take_fallback();
        self.equal("take_fallback", &new, old)?;
        if !new.is_empty() {
            self.taken = new;
        }
        Ok(())
    }

    fn mark_refreshed(&mut self, user: UserId) {
        self.log
            .push(format!("t={} mark_refreshed({})", self.now, user.0));
        self.new.mark_refreshed(user, self.now);
        self.old.mark_refreshed(user, self.now);
    }

    /// Applies one generated operation, then compares the whole state.
    fn apply(&mut self, op: (u8, u32, u32, u8, u32)) -> Result<(), String> {
        let (kind, a, b, tick, amount) = op;
        self.step(tick, amount);
        let uid = |bits: u32| UserId(bits % (UIDS + 1));
        match kind {
            // A coalesced `/online/` batch of 0–3 slots, some anonymous.
            0..=29 => {
                let slots: Vec<Option<UserId>> = (0..a % 4)
                    .map(|i| ((b >> (8 + i)) & 3 != 0).then(|| uid(b >> (4 * i))))
                    .collect();
                self.issue(&slots)?;
            }
            30..=44 => {
                let users: Vec<UserId> = (0..a % 4).map(|i| uid(b >> (4 * i))).collect();
                self.note_votes(&users);
            }
            45..=74 => self.complete_op(a, b)?,
            75..=79 => self.check_unleased(b % 4 != 0, &payload(a))?,
            80..=89 => self.sweep()?,
            90..=94 => self.take_fallback()?,
            _ => {
                let user = match self.taken.get(a as usize % 4) {
                    Some(&user) if b % 4 != 0 => user,
                    _ => uid(b),
                };
                self.mark_refreshed(user);
            }
        }
        self.check_state()
    }

    /// A completion built from a recent grant: live, duplicate (the
    /// grant's lease may already be consumed), stale-epoch, wrong-user,
    /// lease 0, an unknown lease, or a bad payload.
    fn complete_op(&mut self, a: u32, b: u32) -> Result<(), String> {
        let Some(&grant) = self
            .grants
            .iter()
            .rev()
            .nth(a as usize % self.grants.len().clamp(1, 8))
        else {
            return self.complete(uid_of(b), u64::from(b % 5), 1, &payload(8));
        };
        let good = payload(8);
        match b % 12 {
            0 => self.complete(grant.user, grant.lease, grant.epoch + 1, &good),
            1 => self.complete(
                grant.user,
                grant.lease,
                grant.epoch.saturating_sub(1),
                &good,
            ),
            2 => self.complete(
                UserId((grant.user.0 + 1) % UIDS),
                grant.lease,
                grant.epoch,
                &good,
            ),
            3 => self.complete(grant.user, 0, grant.epoch, &good),
            4 => self.complete(grant.user, grant.lease + 1000, grant.epoch, &good),
            5..=7 => self.complete(grant.user, grant.lease, grant.epoch, &payload(a >> 8)),
            _ => self.complete(grant.user, grant.lease, grant.epoch, &good),
        }
    }
}

fn uid_of(bits: u32) -> UserId {
    UserId(bits % UIDS)
}

fn run(cell: usize, ops: &[(u8, u32, u32, u8, u32)]) -> Result<Pair, String> {
    let mut pair = Pair::new(cell);
    pair.check_state()?;
    ops.iter().try_for_each(|&op| pair.apply(op))?;
    Ok(pair)
}

fn op_strategy() -> impl Strategy<Value = (u8, u32, u32, u8, u32)> {
    (
        0u8..100,
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        any::<u32>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_operations_match_the_reference(
        cell in 0usize..GRID,
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let outcome = run(cell, &ops);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap());
    }
}

/// Every grid cell, on a long sequence each (the property test samples
/// cells at random). The sequences must reach every counter and every
/// reject reason, and the staleness pick must serve someone other than
/// the requester, or the comparison shows little.
#[test]
fn every_grid_cell_matches_the_reference() {
    use rand::{Rng, SeedableRng};
    let mut totals = [0u64; 13];
    let mut picked_other = 0;
    for cell in 0..GRID {
        let mut rng = rand::rngs::StdRng::seed_from_u64(cell as u64);
        let ops: Vec<_> = (0..3000)
            .map(|_| {
                (
                    rng.gen_range(0u8..100),
                    rng.gen(),
                    rng.gen(),
                    rng.gen(),
                    rng.gen(),
                )
            })
            .collect();
        let pair = run(cell, &ops).unwrap_or_else(|err| panic!("{err}"));
        let s = pair.new.stats().snapshot();
        let counts = [
            s.issued,
            s.reissued,
            s.completed,
            s.expired,
            s.fallbacks,
            s.rejected_not_leased,
            s.rejected_stale_epoch,
            s.rejected_duplicate,
            s.rejected_wrong_user,
            s.rejected_nan_similarity,
            s.rejected_out_of_range_similarity,
            s.rejected_unknown_neighbor,
            s.rejected_unknown_user,
        ];
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
        picked_other += pair.picked_other;
    }
    assert!(totals.iter().all(|&n| n > 0), "{totals:?}");
    assert!(picked_other > 0);
}

/// More than 4096 consumed leases, so `sweep` prunes the duplicate-
/// detection set: a replay of a lease completed before the pruning
/// horizon reads `NotLeased`, a newer one `Duplicate`, on both sides.
#[test]
fn pruning_of_consumed_leases_matches_the_reference() {
    for cell in [0, 1, 2, GRID - 1] {
        let mut pair = Pair::new(cell);
        let good = payload(8);
        for i in 0..6000u32 {
            pair.now = Tick::from(i / 3);
            pair.issue(&[Some(uid_of(i))]).unwrap();
            let grant = *pair.grants.last().unwrap();
            pair.complete(grant.user, grant.lease, grant.epoch, &good)
                .unwrap();
            if i % 97 == 0 {
                for back in [1, 40, 1500, 4500] {
                    if let Some(&old) = pair.grants.iter().rev().nth(back) {
                        pair.complete(old.user, old.lease, old.epoch, &good)
                            .unwrap();
                    }
                }
                pair.check_state().unwrap();
            }
        }
        assert!(
            pair.new.stats().completed() > 4096,
            "{:?}",
            pair.new.stats().snapshot()
        );
        assert!(
            pair.new
                .stats()
                .rejected(hyrec_sched::RejectReason::NotLeased)
                > 0
        );
        assert!(
            pair.new
                .stats()
                .rejected(hyrec_sched::RejectReason::Duplicate)
                > 0
        );
        pair.check_state().unwrap();
    }
}

/// A sibling lease of the same epoch expires while the user's fallback
/// recompute runs (taken from the pen, not yet reported back): the user
/// re-enters the pen with `recomputing` still set, and the report-back
/// counts one fallback.
#[test]
fn sibling_expiry_during_a_recompute_matches_the_reference() {
    // Cell 1: lease timeout 5, no re-issues, age weight 0.
    let mut pair = Pair::new(1);
    let user = Some(UserId(2));
    pair.note_votes(&[UserId(2)]);
    pair.issue(&[user]).unwrap(); // deadline 5
    pair.now = 3;
    pair.issue(&[user]).unwrap(); // sibling, same epoch, deadline 8
    pair.check_state().unwrap();
    pair.now = 5;
    pair.sweep().unwrap();
    pair.take_fallback().unwrap();
    assert_eq!(pair.taken, vec![UserId(2)]);
    // The sibling expires inside `issue_mixed`'s own sweep.
    pair.now = 8;
    pair.issue(&[Some(UserId(4))]).unwrap();
    pair.check_state().unwrap();
    let snapshot = pair.new.user_snapshot(UserId(2)).unwrap();
    assert!(snapshot.in_fallback, "{snapshot:?}");
    pair.mark_refreshed(UserId(2));
    pair.check_state().unwrap();
    assert_eq!(pair.new.stats().fallbacks(), 1);
    pair.take_fallback().unwrap();
    pair.sweep().unwrap();
    pair.check_state().unwrap();
}
