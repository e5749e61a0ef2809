//! # hyrec-core
//!
//! Domain model and collaborative-filtering algorithms for **HyRec**, the
//! hybrid browser-offloaded recommender of Boutet et al. (Middleware 2014).
//!
//! This crate is the foundation of the workspace. It contains everything that
//! both the server and the (browser-side) client need:
//!
//! * [`UserId`] / [`ItemId`] — newtype identifiers ([`id`]).
//! * [`Profile`] — a user's binary rating profile ([`profile`]).
//! * [`similarity`] — the pluggable similarity metrics (cosine by default).
//! * [`knn`] — *Algorithm 1* of the paper: KNN selection `γ(P_u, S_u)`.
//! * [`recommend`] — *Algorithm 2*: most-popular item recommendation
//!   `α(S_u, P_u)`.
//! * [`candidate`] — the candidate set `S_u` shipped to clients.
//! * [`tables`] — the server-side global Profile and KNN tables: one keyed
//!   index and slot-indexed columns.
//!
//! Everything here is deliberately free of I/O so the same code runs inside
//! the server, the simulator, and a `wasm32` build of the client widget.
//!
//! ## Quickstart
//!
//! ```
//! use hyrec_core::prelude::*;
//!
//! // Two users with overlapping tastes and one odd one out.
//! let alice = Profile::from_liked([1, 2, 3, 4]);
//! let bob = Profile::from_liked([2, 3, 4, 5]);
//! let carol = Profile::from_liked([900, 901]);
//!
//! let cosine = Cosine;
//! assert!(cosine.score(&alice, &bob) > cosine.score(&alice, &carol));
//!
//! // Algorithm 1: select alice's nearest neighbours among the candidates.
//! let candidates = vec![
//!     (UserId(1), bob.clone()),
//!     (UserId(2), carol.clone()),
//! ];
//! let knn = knn::select(&alice, candidates.iter().map(|(u, p)| (*u, p)), 1, &cosine);
//! assert_eq!(knn.users().collect::<Vec<_>>(), vec![UserId(1)]);
//!
//! // Algorithm 2: recommend the most popular unseen items.
//! let recs = recommend::most_popular(&alice, candidates.iter().map(|(_, p)| p), 2);
//! assert!(recs.iter().any(|r| r.item == ItemId(5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod error;
pub mod fast_hash;
pub mod id;
pub mod knn;
pub mod profile;
pub mod recommend;
pub mod similarity;
pub mod tables;
pub mod topk;

pub use candidate::{CandidateProfile, CandidateSet};
pub use error::CoreError;
pub use fast_hash::{FastBuildHasher, FastHashMap, FastHashSet};
pub use id::{ItemId, UserId};
pub use knn::{Neighbor, Neighborhood};
pub use profile::{Profile, SharedProfile, Vote};
pub use recommend::Recommendation;
pub use similarity::{Cosine, Jaccard, Overlap, Similarity};
pub use tables::{Row, Slot, SlotView, UserTable};

/// Convenient glob import for downstream code and doc examples.
pub mod prelude {
    pub use crate::candidate::{CandidateProfile, CandidateSet};
    pub use crate::id::{ItemId, UserId};
    pub use crate::knn::{self, Neighbor, Neighborhood};
    pub use crate::profile::{Profile, SharedProfile, Vote};
    pub use crate::recommend::{self, Recommendation};
    pub use crate::similarity::{Cosine, Jaccard, Overlap, Similarity};
    pub use crate::tables::UserTable;
}

/// The maximum candidate-set size produced by the paper's sampler:
/// `|S_u| <= 2k + k^2` (Section 3.1).
///
/// The candidate set aggregates the user's current KNN (`k` entries), the KNN
/// of each of those neighbours (`k^2` entries) and `k` random users; duplicate
/// users are merged, so this is an upper bound.
///
/// ```
/// assert_eq!(hyrec_core::candidate_set_bound(10), 120);
/// assert_eq!(hyrec_core::candidate_set_bound(5), 35);
/// assert_eq!(hyrec_core::candidate_set_bound(20), 440);
/// ```
#[must_use]
pub const fn candidate_set_bound(k: usize) -> usize {
    2 * k + k * k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_bound_matches_paper_values() {
        // Section 5.2: for k = 10 the upper bound is 120.
        assert_eq!(candidate_set_bound(10), 120);
        assert_eq!(candidate_set_bound(0), 0);
        assert_eq!(candidate_set_bound(1), 3);
    }
}
