//! The lease table, staleness index and validation core.

use crate::stats::SchedStats;
use hyrec_core::fast_hash::KeyedHashMap;
use hyrec_core::{FastHashMap, Neighbor, UserId};
use parking_lot::Mutex;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// Logical time. The scheduler never reads a clock: every entry point
/// takes `now` explicitly, so the HTTP front-end can feed monotonic
/// milliseconds while the churn replay feeds simulated ticks.
pub type Tick = u64;

/// Slack above `1.0` tolerated in completion similarities (floating
/// point: the widget's cosine can land at `1.0 + ulp`), by the payload
/// check of leased ([`Scheduler::complete`]) and unleased
/// ([`Scheduler::check_unleased`]) completions alike.
pub const SIMILARITY_TOLERANCE: f64 = 1e-6;

/// The payload check every completion passes, leased or not: each
/// neighbour's similarity is a number in `[0, 1 + SIMILARITY_TOLERANCE]`
/// and its id satisfies `known`, checked in that order per neighbour, in
/// list order. Returns the first failing check's reason.
fn check_payload<F>(neighbors: &[Neighbor], mut known: F) -> Result<(), RejectReason>
where
    F: FnMut(UserId) -> bool,
{
    for neighbor in neighbors {
        if neighbor.similarity.is_nan() {
            return Err(RejectReason::NanSimilarity);
        }
        if !(0.0..=1.0 + SIMILARITY_TOLERANCE).contains(&neighbor.similarity) {
            return Err(RejectReason::OutOfRangeSimilarity);
        }
        if !known(neighbor.user) {
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
    /// Priority weight of one tick of age since the last KNN refresh (one
    /// vote recorded since then weighs `1`).
    ///
    /// Equal priority goes to the requester: another user is served only
    /// while strictly more urgent. With `age_weight = 0`, or a clock that
    /// does not advance, a user nobody requests is therefore served only
    /// while strictly staler than the requester.
    pub age_weight: f64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            lease_timeout: 30_000, // 30 s at millisecond ticks
            max_reissues: 2,
            age_weight: 1e-4,
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
    /// An unleased completion whose uid owns no profile: only a vote
    /// creates a user.
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

/// Where a user stands on the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No recovery pending.
    Idle,
    /// Waiting in the re-issue backlog.
    Reissue,
    /// Waiting in the fallback pen.
    Fallback,
}

/// A staleness-index key: the time-shifted priority
/// `votes − age_weight·last_refresh`. Comparing priorities
/// `votes + age_weight·(now − last_refresh)` of two users at any common
/// `now` is equivalent to comparing their keys, which are constant, so
/// entries need no re-scoring as time passes. Ordered by `f64::total_cmp`.
#[derive(Debug, Clone, Copy)]
struct Key(f64);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
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
    /// The key of this user's staleness-index entry, if they have one.
    queued: Option<Key>,
    phase: Phase,
    /// Taken from the pen by [`Scheduler::take_fallback`]; the recompute
    /// has not been reported back yet. A sibling lease expiring meanwhile
    /// may put the user back on the ladder, so this is not a [`Phase`].
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
            queued: None,
            phase: Phase::Idle,
            recomputing: false,
        }
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

/// The scheduler's state. `users` is never pruned, so every id held by
/// any other field is a key of `users`.
#[derive(Debug, Default)]
struct Inner {
    next_lease: u64,
    /// Keyed: `/rate/` uids fill it, so clients choose its keys.
    users: KeyedHashMap<UserId, UserState>,
    /// Outstanding leases by id.
    leases: FastHashMap<u64, LeaseEntry>,
    /// Recently consumed lease ids → completion tick (duplicate
    /// detection); pruned against the lease timeout so it stays bounded.
    completed: FastHashMap<u64, Tick>,
    /// At most the smallest tick in `completed`: while the prune horizon
    /// has not passed it, the sweep has nothing to prune and skips the
    /// walk over the map.
    oldest_completion: Tick,
    /// Staleness index: one entry per queued user, the most urgent last
    /// (ties broken by user id for determinism across runs).
    queue: BTreeSet<(Key, UserId)>,
    /// Expired users awaiting re-issue to the next requesting browser,
    /// with the tick they entered the backlog (waiting longer than one
    /// lease timeout promotes them straight to fallback — recomputation
    /// latency stays bounded even if request traffic dries up). An entry
    /// whose user has since left [`Phase::Reissue`] is skipped on pop.
    reissue: VecDeque<(UserId, Tick)>,
    /// Users whose escalation ladder is exhausted (skipped on drain once
    /// they leave [`Phase::Fallback`]).
    fallback: Vec<UserId>,
    /// Expiry index: min-heap of `(deadline, lease id)`.
    expiry: BinaryHeap<Reverse<(Tick, u64)>>,
}

impl Inner {
    fn user(&mut self, user: UserId) -> &mut UserState {
        self.users.get_mut(&user).expect("users are never removed")
    }

    /// Moves `user`'s staleness-index entry to their current key.
    fn requeue(&mut self, user: UserId, age_weight: f64) {
        let state = self.users.get_mut(&user).expect("users are never removed");
        let key = Key(state.votes as f64 - age_weight * state.last_refresh as f64);
        if let Some(old) = state.queued.replace(key) {
            self.queue.remove(&(old, user));
        }
        self.queue.insert((key, user));
    }
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
    /// by one.
    pub fn note_vote(&self, user: UserId, now: Tick) {
        self.note_votes(std::slice::from_ref(&user), now);
    }

    /// Batched [`Self::note_vote`]: one lock acquisition for a coalesced
    /// `/rate/` burst.
    pub fn note_votes(&self, users: &[UserId], now: Tick) {
        if users.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        for &user in users {
            inner
                .users
                .entry(user)
                .or_insert_with(|| UserState::new(now))
                .votes += 1;
            inner.requeue(user, self.config.age_weight);
        }
    }

    /// Issues one job lease for a request nominally asking for `requested`.
    ///
    /// The pick order is the crate's scheduling policy:
    /// 1. the re-issue backlog (churn recovery beats everything),
    /// 2. the most urgent user in the staleness index with no job in
    ///    flight and no recovery pending, when strictly more urgent than
    ///    the requester (equal priority goes to the requester),
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
    /// backlog or the staleness-index pick, and comes back `None` when no
    /// registered user needs work.
    #[must_use]
    pub fn issue_mixed(&self, requested: &[Option<UserId>], now: Tick) -> Vec<Option<JobGrant>> {
        if requested.is_empty() {
            return Vec::new();
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        self.sweep_locked(inner, now);
        requested
            .iter()
            .map(|&slot| {
                if let Some(grant) = self.pop_reissue_locked(inner, now) {
                    return Some(grant);
                }
                if let Some(uid) = slot {
                    // Cold start registers the requester here.
                    inner
                        .users
                        .entry(uid)
                        .or_insert_with(|| UserState::new(now));
                }
                // An anonymous slot has no user to self-serve: only a
                // strictly positive-priority registered user is picked.
                let pick = self.pick_locked(inner, slot, now).or(slot)?;
                Some(self.grant_locked(inner, pick, now, false))
            })
            .collect()
    }

    /// Rung 1: churn recovery. Pops the oldest abandoned user (skipping
    /// entries whose user left the backlog through a late completion or a
    /// refresh) and re-grants under a bumped epoch, so the vanished
    /// browser's completion — if it ever arrives — is recognizably stale.
    fn pop_reissue_locked(&self, inner: &mut Inner, now: Tick) -> Option<JobGrant> {
        while let Some((user, _)) = inner.reissue.pop_front() {
            let state = inner.user(user);
            if state.phase != Phase::Reissue {
                continue;
            }
            state.phase = Phase::Idle;
            state.epoch += 1;
            self.stats.inc_reissued();
            return Some(self.grant_locked(inner, user, now, true));
        }
        None
    }

    /// Rung 2: scans the staleness index from its most urgent entry and
    /// takes the first user with no job in flight and no recovery pending,
    /// if they are strictly more urgent than `requested` (`None` =
    /// anonymous request, priority 0). Reaching the requester's own entry
    /// first ends the scan: the requester is then served via rung 3 and
    /// their entry stays for the refresh to move.
    ///
    /// Rung 1 runs first and empties the backlog, so no user in
    /// [`Phase::Reissue`] is left for this scan to meet.
    fn pick_locked(
        &self,
        inner: &mut Inner,
        requested: Option<UserId>,
        now: Tick,
    ) -> Option<UserId> {
        let users = &inner.users;
        let requested_priority = requested.map_or(0.0, |uid| self.priority_at(&users[&uid], now));
        let &(key, user) = inner.queue.iter().rev().find(|&&(_, user)| {
            let state = &users[&user];
            Some(user) == requested || (state.outstanding == 0 && state.phase == Phase::Idle)
        })?;
        if Some(user) == requested || self.priority_at(&users[&user], now) <= requested_priority {
            return None;
        }
        inner.queue.remove(&(key, user));
        inner.user(user).queued = None;
        Some(user)
    }

    fn grant_locked(&self, inner: &mut Inner, user: UserId, now: Tick, reissue: bool) -> JobGrant {
        let lease = inner.next_lease;
        inner.next_lease += 1;
        let deadline = now + self.config.lease_timeout;
        let state = inner.user(user);
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
    /// `Ok` — validation happens strictly before the KNN write.
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
        known: F,
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
            if epoch != entry.epoch || entry.epoch != inner.users[&uid].epoch {
                return Err(RejectReason::StaleEpoch);
            }
            // Payload validation last, under a proven-live lease. A
            // malformed payload does not consume the lease (the browser
            // may retry; expiry re-issues otherwise).
            check_payload(neighbors, known)
        })();
        if let Err(reason) = verdict {
            self.stats.inc_reject(reason);
            return Err(reason);
        }
        inner.leases.remove(&lease);
        inner.completed.insert(lease, now);
        // Ticks may step back, so a new completion can be the oldest.
        inner.oldest_completion = inner.oldest_completion.min(now);
        let state = inner.user(uid);
        state.outstanding = state.outstanding.saturating_sub(1);
        state.votes = 0;
        state.attempts = 0;
        state.last_refresh = now;
        state.epoch += 1; // any sibling lease is now stale
        state.phase = Phase::Idle;
        inner.requeue(uid, self.config.age_weight);
        self.stats.inc_completed();
        Ok(())
    }

    /// Validates a completion that carries no lease (the unleased
    /// configuration): its uid must own a profile (`owned`, else
    /// [`RejectReason::UnknownUser`]), then its payload passes the NaN,
    /// range and `known` checks of [`Self::complete`], in the same order.
    /// The reject is counted in [`SchedStats`]. Takes no lock.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] of the first failing check.
    pub fn check_unleased<F>(
        &self,
        owned: bool,
        neighbors: &[Neighbor],
        known: F,
    ) -> Result<(), RejectReason>
    where
        F: FnMut(UserId) -> bool,
    {
        let verdict = if owned {
            check_payload(neighbors, known)
        } else {
            Err(RejectReason::UnknownUser)
        };
        verdict.inspect_err(|&reason| self.stats.inc_reject(reason))
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
            let state = inner.user(entry.user);
            state.outstanding = state.outstanding.saturating_sub(1);
            // A superseded lease (the user refreshed, or was re-issued,
            // under a newer epoch since this one was granted) expires
            // without climbing the ladder: the work it covered is already
            // done or already being recovered. Only current-epoch expiries
            // mean a user is actually stranded.
            //
            // One abandonment event climbs one rung: sibling leases (two
            // tabs fetching the same user, same epoch) expiring in one
            // sweep must not burn several re-issues at once, so the
            // attempt counter moves only when a recovery is enqueued.
            if entry.epoch != state.epoch || state.phase != Phase::Idle {
                continue;
            }
            state.attempts += 1;
            if state.attempts > self.config.max_reissues {
                state.phase = Phase::Fallback;
                inner.fallback.push(entry.user);
            } else {
                state.phase = Phase::Reissue;
                inner.reissue.push_back((entry.user, now));
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
            let state = inner.user(user);
            if state.phase == Phase::Reissue {
                state.phase = Phase::Fallback;
                inner.fallback.push(user);
            }
        }
        // Keep the duplicate-detection set bounded: a completion older than
        // a few lease lifetimes can no longer collide with a live retry.
        let horizon = now.saturating_sub(4 * self.config.lease_timeout);
        if inner.completed.len() > 4096 && inner.oldest_completion < horizon {
            let mut oldest = Tick::MAX;
            inner.completed.retain(|_, &mut t| {
                let keep = t >= horizon;
                if keep {
                    oldest = oldest.min(t);
                }
                keep
            });
            inner.oldest_completion = oldest;
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
        let mut taken = std::mem::take(&mut inner.fallback);
        // A late valid completion may have refreshed the user while they
        // sat in the pen; skip those.
        taken.retain(|&user| {
            let state = inner.user(user);
            let ready = state.phase == Phase::Fallback;
            if ready {
                state.phase = Phase::Idle;
                state.recomputing = true;
            }
            ready
        });
        taken
    }

    /// Records an out-of-band refresh (server-side fallback compute):
    /// resets the user's staleness and bumps their epoch so any straggler
    /// browser completion is recognizably stale. For a user taken from the
    /// pen this counts the fallback.
    pub fn mark_refreshed(&self, user: UserId, now: Tick) {
        let mut inner = self.inner.lock();
        let state = inner
            .users
            .entry(user)
            .or_insert_with(|| UserState::new(now));
        state.votes = 0;
        state.attempts = 0;
        state.last_refresh = now;
        state.epoch += 1;
        state.phase = Phase::Idle;
        if std::mem::take(&mut state.recomputing) {
            self.stats.inc_fallbacks();
        }
        inner.requeue(user, self.config.age_weight);
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
        overdue.sort_unstable();
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
            in_reissue: s.phase == Phase::Reissue,
            in_fallback: s.phase == Phase::Fallback,
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
        state.votes as f64 + self.config.age_weight * now.saturating_sub(state.last_refresh) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SchedConfig {
        SchedConfig {
            lease_timeout: 10,
            max_reissues: 2,
            age_weight: 0.01,
        }
    }

    fn neighbor(user: u32, similarity: f64) -> Neighbor {
        Neighbor {
            user: UserId(user),
            similarity,
        }
    }

    fn ok_neighbors() -> Vec<Neighbor> {
        vec![neighbor(7, 0.5), neighbor(8, 0.25)]
    }

    #[test]
    fn issue_then_complete_consumes_the_lease_once() {
        let sched = Scheduler::new(config());
        let grant = sched.issue(UserId(1), 0);
        assert_eq!(grant.user, UserId(1));
        assert!(grant.lease > 0);
        assert!(!grant.reissue);
        assert_eq!(sched.outstanding_leases(), 1);

        let ok = sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &ok_neighbors(),
            1,
            |_| true,
        );
        assert_eq!(ok, Ok(()));
        assert_eq!(sched.outstanding_leases(), 0);

        // The duplicate is rejected and counted.
        let dup = sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &ok_neighbors(),
            2,
            |_| true,
        );
        assert_eq!(dup, Err(RejectReason::Duplicate));
        assert_eq!(sched.stats().completed(), 1);
        assert_eq!(sched.stats().rejected(RejectReason::Duplicate), 1);
    }

    #[test]
    fn sweep_prunes_a_completion_whose_tick_stepped_back() {
        // Past 4096 consumed leases the sweep prunes those older than 4
        // lease timeouts (40 ticks), skipping the walk while the oldest
        // one is younger; a completion stamped with an earlier tick than
        // the rest must still be found and pruned on time.
        let sched = Scheduler::new(config());
        let run = |now: Tick| {
            let grant = sched.issue(UserId(1), now);
            let done = sched.complete(grant.user, grant.lease, grant.epoch, &[], now, |_| true);
            assert_eq!(done, Ok(()));
            grant
        };
        (0..4097).for_each(|_| _ = run(1000));
        let _ = sched.sweep(1041); // prunes all of them
        (0..4097).for_each(|_| _ = run(2000));
        let late = run(1500);
        let replay = |sched: &Scheduler| {
            sched.complete(late.user, late.lease, late.epoch, &[], 1600, |_| true)
        };
        assert_eq!(replay(&sched), Err(RejectReason::Duplicate));
        let _ = sched.sweep(1600);
        assert_eq!(replay(&sched), Err(RejectReason::NotLeased));
    }

    #[test]
    fn unleased_and_unknown_leases_are_rejected() {
        let sched = Scheduler::new(config());
        let no_lease = sched.complete(UserId(1), 0, 1, &ok_neighbors(), 0, |_| true);
        assert_eq!(no_lease, Err(RejectReason::NotLeased));
        let unknown = sched.complete(UserId(1), 999, 1, &ok_neighbors(), 0, |_| true);
        assert_eq!(unknown, Err(RejectReason::NotLeased));
        assert_eq!(sched.stats().rejected(RejectReason::NotLeased), 2);
    }

    #[test]
    fn lease_checks_run_before_any_payload_probe() {
        // The resolvability oracle: without a live lease, a completion is
        // rejected as NotLeased no matter how interesting its payload —
        // the `known` predicate must never run (an attacker could
        // otherwise enumerate live pseudonyms via the reject reason).
        let sched = Scheduler::new(config());
        let mut probed = false;
        let outcome = sched.complete(UserId(1), 777, 1, &[neighbor(2, 0.5)], 0, |_| {
            probed = true;
            false
        });
        assert_eq!(outcome, Err(RejectReason::NotLeased));
        assert!(!probed, "payload probed without a live lease");
    }

    #[test]
    fn payload_rejects_leave_the_lease_live() {
        let sched = Scheduler::new(config());
        let grant = sched.issue(UserId(1), 0);

        let nan = sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &[neighbor(2, f64::NAN)],
            1,
            |_| true,
        );
        assert_eq!(nan, Err(RejectReason::NanSimilarity));
        let negative = sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &[neighbor(2, -0.1)],
            1,
            |_| true,
        );
        assert_eq!(negative, Err(RejectReason::OutOfRangeSimilarity));
        let too_big = sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &[neighbor(2, 1.5)],
            1,
            |_| true,
        );
        assert_eq!(too_big, Err(RejectReason::OutOfRangeSimilarity));
        let stranger = sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &[neighbor(2, 0.5)],
            1,
            |_| false,
        );
        assert_eq!(stranger, Err(RejectReason::UnknownNeighbor));

        // The lease survived all four rejects and is still completable.
        let ok = sched.complete(
            grant.user,
            grant.lease,
            grant.epoch,
            &ok_neighbors(),
            2,
            |_| true,
        );
        assert_eq!(ok, Ok(()));
        assert_eq!(sched.stats().rejected_total(), 4);
    }

    #[test]
    fn wrong_user_is_rejected() {
        let sched = Scheduler::new(config());
        let grant = sched.issue(UserId(1), 0);
        let wrong = sched.complete(
            UserId(2),
            grant.lease,
            grant.epoch,
            &ok_neighbors(),
            1,
            |_| true,
        );
        assert_eq!(wrong, Err(RejectReason::WrongUser));
    }

    #[test]
    fn expiry_reissues_then_falls_back() {
        let sched = Scheduler::new(config());
        let first = sched.issue(UserId(1), 0);

        // Deadline passes; the sweep expires the lease and queues a
        // re-issue.
        let report = sched.sweep(first.deadline + 1);
        assert_eq!(report.expired, 1);
        assert_eq!(report.reissue_backlog, 1);

        // Any next request is answered with the abandoned user's job,
        // under a bumped epoch.
        let second = sched.issue(UserId(99), first.deadline + 2);
        assert_eq!(second.user, UserId(1));
        assert!(second.reissue);
        assert!(second.epoch > first.epoch);

        // The vanished browser's late completion is recognizably stale.
        let late = sched.complete(
            first.user,
            first.lease,
            first.epoch,
            &ok_neighbors(),
            first.deadline + 3,
            |_| true,
        );
        assert_eq!(late, Err(RejectReason::NotLeased));

        // Second rung: the abandoned job is re-issued once more.
        let now = second.deadline + 1;
        sched.sweep(now);
        let third = sched.issue(UserId(99), now);
        assert!(third.reissue);
        assert_eq!(third.user, UserId(1));

        // Third expiry exhausts the ladder (max_reissues = 2): the user
        // lands in the fallback pen instead of the re-issue backlog.
        let report = sched.sweep(third.deadline + 1);
        assert_eq!(report.fallback_ready, 1);
        assert_eq!(report.reissue_backlog, 0);
        let fallback = sched.take_fallback();
        assert_eq!(fallback, vec![UserId(1)]);
        // The pen drains exactly once.
        assert!(sched.take_fallback().is_empty());

        // Server-side compute reports back, which counts the fallback
        // (once); the user is fresh again.
        assert_eq!(sched.stats().fallbacks(), 0);
        sched.mark_refreshed(UserId(1), third.deadline + 2);
        assert_eq!(sched.stats().fallbacks(), 1);
        sched.mark_refreshed(UserId(1), third.deadline + 2);
        assert_eq!(sched.stats().fallbacks(), 1);
        assert!(!sched
            .overdue_users(third.deadline + 3, 0)
            .contains(&UserId(1)));
    }

    #[test]
    fn sibling_expiries_burn_one_rung_not_several() {
        // Two tabs fetch the same user, both are abandoned, both expire in
        // one sweep: that is ONE abandonment event, one rung — not two.
        let sched = Scheduler::new(config());
        let a = sched.issue(UserId(1), 0);
        let _b = sched.issue(UserId(1), 0);
        let report = sched.sweep(a.deadline + 1);
        assert_eq!(report.expired, 2);
        assert_eq!(report.reissue_backlog, 1);
        assert_eq!(report.fallback_ready, 0);
        let snapshot = sched.user_snapshot(UserId(1)).unwrap();
        assert_eq!(snapshot.attempts, 1, "siblings must not stack attempts");
    }

    #[test]
    fn superseded_lease_expiry_does_not_climb_the_ladder() {
        let sched = Scheduler::new(config());
        // Two sibling leases; the first completes (epoch bump), the second
        // is abandoned. Its expiry must NOT re-enqueue the user — their
        // neighbourhood was just refreshed.
        let a = sched.issue(UserId(1), 0);
        let b = sched.issue(UserId(1), 0);
        sched
            .complete(a.user, a.lease, a.epoch, &ok_neighbors(), 1, |_| true)
            .unwrap();
        let report = sched.sweep(b.deadline + 1);
        assert_eq!(report.expired, 1, "the abandoned sibling still expires");
        assert_eq!(report.reissue_backlog, 0, "no spurious recovery");
        assert_eq!(report.fallback_ready, 0);
        // And the next request is a plain grant, not a churn re-issue.
        // (The *staleness queue* may still pick user 1 — they are the
        // oldest-refreshed user — but that is priority, not recovery.)
        let next = sched.issue(UserId(2), b.deadline + 2);
        assert!(!next.reissue);
        assert_eq!(sched.stats().reissued(), 0);
    }

    #[test]
    fn sibling_lease_goes_stale_after_first_completion() {
        let sched = Scheduler::new(config());
        // Two browsers request the same user concurrently.
        let a = sched.issue(UserId(5), 0);
        let b = sched.issue(UserId(5), 0);
        assert_eq!(a.epoch, b.epoch);

        let first = sched.complete(a.user, a.lease, a.epoch, &ok_neighbors(), 1, |_| true);
        assert_eq!(first, Ok(()));
        // The sibling's epoch is now stale: exactly-once application.
        let second = sched.complete(b.user, b.lease, b.epoch, &ok_neighbors(), 2, |_| true);
        assert_eq!(second, Err(RejectReason::StaleEpoch));
        assert_eq!(sched.stats().completed(), 1);
    }

    #[test]
    fn staleness_priority_serves_the_most_starved_user() {
        let sched = Scheduler::new(config());
        // Register three users at t=0 by issuing + completing once.
        for u in 1..=3u32 {
            let g = sched.issue(UserId(u), 0);
            sched
                .complete(g.user, g.lease, g.epoch, &ok_neighbors(), 0, |_| true)
                .unwrap();
        }
        // User 2 accumulates votes; users 1 and 3 stay quiet.
        sched.note_vote(UserId(2), 5);
        sched.note_vote(UserId(2), 6);

        // User 3 requests a job — but user 2 is more urgent, so the
        // scheduler hands user 2's job to user 3's browser.
        let grant = sched.issue(UserId(3), 10);
        assert_eq!(grant.user, UserId(2));

        // While user 2's job is in flight, the next request self-serves.
        let grant = sched.issue(UserId(3), 11);
        assert_eq!(grant.user, UserId(3));
    }

    #[test]
    fn age_breaks_ties_between_voteless_users() {
        let sched = Scheduler::new(SchedConfig {
            age_weight: 1.0,
            ..config()
        });
        let g = sched.issue(UserId(1), 0);
        sched
            .complete(g.user, g.lease, g.epoch, &ok_neighbors(), 0, |_| true)
            .unwrap();
        let g = sched.issue(UserId(2), 50);
        sched
            .complete(g.user, g.lease, g.epoch, &ok_neighbors(), 50, |_| true)
            .unwrap();
        // Both voteless; user 1 is older. A request from a *fresh* user 3
        // (priority 0 at registration) is answered with user 1's job.
        let grant = sched.issue(UserId(3), 100);
        assert_eq!(grant.user, UserId(1));
    }

    #[test]
    fn overdue_users_tracks_unserviced_votes() {
        let sched = Scheduler::new(config());
        sched.note_vote(UserId(1), 0);
        sched.note_vote(UserId(2), 90);
        assert_eq!(sched.overdue_users(100, 50), vec![UserId(1)]);
        // Completing user 1 clears them.
        let g = sched.issue(UserId(1), 100);
        assert_eq!(g.user, UserId(1));
        sched
            .complete(g.user, g.lease, g.epoch, &ok_neighbors(), 101, |_| true)
            .unwrap();
        assert!(sched.overdue_users(150, 60).is_empty());
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let sched = Scheduler::new(config());
        assert!(sched.issue_mixed(&[], 0).is_empty());
        sched.note_votes(&[], 0);
        assert_eq!(sched.user_count(), 0);
        assert_eq!(sched.stats().issued(), 0);
    }
}
