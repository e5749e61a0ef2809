//! # hyrec-server
//!
//! The server half of HyRec's hybrid architecture (Section 3.1 of the paper)
//! plus every centralized baseline the evaluation compares against.
//!
//! The HyRec server does two things and *only* two things — the whole point
//! of the design is that the expensive per-user computation happens in
//! browsers:
//!
//! 1. **Orchestration** ([`HyRecServer`]): on each user request it assembles
//!    a *personalization job* — the user's profile plus a candidate set
//!    sampled by the [`sampler::Sampler`] (current KNN ∪ 2-hop KNN ∪ `k`
//!    random users) — ships it to the widget, and writes the returned KNN
//!    selection back into the global tables.
//! 2. **Global state** ([`hyrec_core::UserTable`]: profiles and KNN rows
//!    as slot-indexed columns behind one keyed index and sharded locks),
//!    with an epoch-based [`anonymize::AnonymousMapping`] hiding
//!    user/profile associations from clients.
//!
//! Baselines (Section 5 competitors):
//!
//! * [`crec::CRecFrontEnd`] — the centralized front-end that computes item
//!   recommendations server-side from a precomputed KNN table.
//! * [`offline::ExhaustiveBackend`] — *Offline-Ideal*: periodic all-pairs
//!   KNN.
//! * [`offline::CRecBackend`] — *Offline-CRec*: the same sampling algorithm
//!   as HyRec but run as synchronous map-reduce rounds on the back-end.
//! * [`offline::MahoutLikeBackend`] — a Mahout-on-Hadoop stand-in: exact
//!   inverted-index KNN with a configurable node count and per-stage job
//!   overhead.
//! * [`online_ideal::OnlineIdeal`] — brute-force KNN on every request (the
//!   quality upper bound of Figures 3 and 6).
//!
//! ```
//! use hyrec_client::Widget;
//! use hyrec_core::{ItemId, UserId, Vote};
//! use hyrec_server::HyRecServer;
//!
//! let server = HyRecServer::builder().k(3).r(5).seed(7).build();
//! let widget = Widget::new();
//!
//! // A few users rate overlapping items…
//! for u in 0..10u32 {
//!     for i in 0..6u32 {
//!         server.record(UserId(u), ItemId(u % 3 + i), Vote::Like);
//!     }
//! }
//! // …then one of them requests recommendations: job -> widget -> update.
//! let job = server.build_job(UserId(0));
//! let output = widget.run_job(&job);
//! server.apply_update(&output.update);
//! assert!(server.knn_of(UserId(0)).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anonymize;
pub mod config;
pub mod crec;
pub mod encoder;
pub mod offline;
pub mod online_ideal;
pub mod sampler;
pub mod scheduled;
pub mod server;

pub use config::{HyRecConfig, HyRecConfigBuilder};
pub use crec::CRecFrontEnd;
pub use encoder::{EncoderStats, JobBody, JobEncoder};
pub use offline::{CRecBackend, ExhaustiveBackend, MahoutLikeBackend, OfflineBackend};
pub use online_ideal::OnlineIdeal;
pub use sampler::{DefaultSampler, NoRandomSampler, RandomOnlySampler, Sampler};
pub use scheduled::{ScheduledServer, SweeperHandle};
pub use server::HyRecServer;
