//! Scheduler observability: lifecycle and per-reason reject counters.

use crate::scheduler::RejectReason;
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
    /// Rejects per reason, indexed in [`RejectReason`]'s declaration order.
    rejected: [AtomicU64; 8],
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
        /// reports one applied ([`crate::Scheduler::mark_refreshed`]).
        fallbacks,
        inc_fallbacks
    );

    /// Completions rejected for `reason`.
    #[must_use]
    pub fn rejected(&self, reason: RejectReason) -> u64 {
        self.rejected[reason as usize].load(Ordering::Relaxed)
    }

    /// Sum over every reject reason.
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.rejected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    pub(crate) fn inc_reject(&self, reason: RejectReason) {
        self.rejected[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> SchedStatsSnapshot {
        let [not_leased, stale_epoch, duplicate, wrong_user, nan, out_of_range, unknown, unknown_user] =
            self.rejected.each_ref().map(|c| c.load(Ordering::Relaxed));
        SchedStatsSnapshot {
            issued: self.issued(),
            reissued: self.reissued(),
            completed: self.completed(),
            expired: self.expired(),
            fallbacks: self.fallbacks(),
            rejected_not_leased: not_leased,
            rejected_stale_epoch: stale_epoch,
            rejected_duplicate: duplicate,
            rejected_wrong_user: wrong_user,
            rejected_nan_similarity: nan,
            rejected_out_of_range_similarity: out_of_range,
            rejected_unknown_neighbor: unknown,
            rejected_unknown_user: unknown_user,
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
             \"out_of_range_similarity\":{},\"unknown_neighbor\":{},\"unknown_user\":{},\
             \"total\":{}}}}}",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = SchedStats::default();
        stats.inc_issued();
        stats.inc_issued();
        stats.inc_completed();
        stats.inc_reject(RejectReason::StaleEpoch);
        stats.inc_reject(RejectReason::NanSimilarity);
        let snap = stats.snapshot();
        assert_eq!(snap.issued, 2);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.rejected_stale_epoch, 1);
        assert_eq!(snap.rejected_nan_similarity, 1);
        assert_eq!(snap.rejected_total(), 2);
        assert_eq!(stats.rejected_total(), 2);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let stats = SchedStats::default();
        stats.inc_issued();
        stats.inc_reject(RejectReason::Duplicate);
        let json = stats.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"issued\":1"));
        assert!(json.contains("\"duplicate\":1"));
        assert!(json.contains("\"total\":1"));
    }

    #[test]
    fn snapshot_json_bytes_are_pinned() {
        // Every counter distinct, so a swapped field or key shows.
        let stats = SchedStats::default();
        stats.inc_issued();
        (0..2).for_each(|_| stats.inc_reissued());
        (0..3).for_each(|_| stats.inc_completed());
        (0..4).for_each(|_| stats.inc_expired());
        (0..5).for_each(|_| stats.inc_fallbacks());
        let reasons = [
            RejectReason::NotLeased,
            RejectReason::StaleEpoch,
            RejectReason::Duplicate,
            RejectReason::WrongUser,
            RejectReason::NanSimilarity,
            RejectReason::OutOfRangeSimilarity,
            RejectReason::UnknownNeighbor,
            RejectReason::UnknownUser,
        ];
        for (i, reason) in reasons.into_iter().enumerate() {
            (0..10 + i).for_each(|_| stats.inc_reject(reason));
            assert_eq!(stats.rejected(reason), 10 + i as u64);
        }
        assert_eq!(
            stats.snapshot().to_json(),
            "{\"issued\":1,\"reissued\":2,\"completed\":3,\"expired\":4,\"fallbacks\":5,\
             \"rejected\":{\"not_leased\":10,\"stale_epoch\":11,\"duplicate\":12,\
             \"wrong_user\":13,\"nan_similarity\":14,\"out_of_range_similarity\":15,\
             \"unknown_neighbor\":16,\"unknown_user\":17,\"total\":108}}"
        );
    }
}
