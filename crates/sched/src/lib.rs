//! Job-lifecycle scheduling for HyRec's browser workers.
//!
//! HyRec's workers are *browsers*: a client that fetches a personalization
//! job from `/online/` may navigate away before ever posting its
//! `KnnUpdate` back to `/neighbors/`. The seed pipeline handed out jobs
//! statelessly and applied whatever came back; this crate turns that
//! request/response pair into a managed distributed work loop:
//!
//! * **Leases** — every issued job carries a lease id, the user's current
//!   refresh *epoch*, and a deadline. A completion must present a live
//!   lease at the current epoch to be applied.
//! * **Churn recovery** — leases that outlive their deadline re-enqueue the
//!   user on an escalation ladder: the job is re-issued to the next
//!   requesting browser up to [`SchedConfig::max_reissues`] times, after
//!   which the user is surrendered to the caller for server-side
//!   (centralized, CRec-style) recomputation.
//! * **Staleness-driven priority** — votes recorded since the last KNN
//!   refresh, plus the ticks elapsed since it weighted by
//!   [`SchedConfig::age_weight`], decide who gets recomputed first, so a
//!   request for `uid=A` may be answered with the job of a *staler* user B
//!   (freshness-driven scheduling in the spirit of Agarwal et al.'s
//!   item-item models). The requesting browser computes B's neighbourhood;
//!   its own entry keeps aging until it wins a pick.
//! * **Update validation** — stale-epoch, non-leased, duplicate,
//!   NaN/out-of-range-similarity and unknown-neighbor completions are
//!   rejected *before* they reach the KNN table, with per-reason counters
//!   in [`SchedStats`]. A completion that carries no lease must come from
//!   a user who owns a profile (`unknown_user` otherwise), then passes the
//!   same payload check ([`Scheduler::check_unleased`]: NaN, range, then
//!   every neighbour id resolvable), so leased or not, a stored
//!   neighbourhood names only users the server can resolve.
//!
//! The scheduler is pure bookkeeping over a logical clock (`u64` ticks —
//! milliseconds under the HTTP front-end, simulated seconds in the churn
//! replay) and knows nothing about HTTP or the wire format;
//! `hyrec_server::ScheduledServer` wires it to job building, update
//! application and the fallback compute path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scheduler;
mod stats;

pub use scheduler::{
    JobGrant, RejectReason, SchedConfig, Scheduler, SweepReport, Tick, UserSnapshot,
    SIMILARITY_TOLERANCE,
};
pub use stats::{SchedStats, SchedStatsSnapshot};
