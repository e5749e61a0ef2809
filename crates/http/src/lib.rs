//! # hyrec-http
//!
//! A minimal HTTP/1.1 stack over `std::net`, written from scratch for the
//! HyRec reproduction — the stand-in for the paper's J2EE servlets + Jetty
//! (Section 4.1).
//!
//! The serving API is **connection-oriented**: the front-end speaks
//! HTTP/1.1 keep-alive with pipelining, every route is a [`Handler`]
//! behind a [`BatchPolicy`] (scalar routes are the policy-of-1 special
//! case), and each [`Response`] carries an explicit
//! [`response::Disposition`] chosen per request from the parsed
//! `Connection`/version fields, the connection's request budget and
//! shutdown state — never a hardcoded header.
//!
//! * [`reactor`] — the one server front-end: N independent epoll
//!   readiness loops ("shards", raw bindings in a private `sys` module, no
//!   external deps) with persistent per-connection state machines (rolling
//!   read buffer holding pipelined requests, in-order response queue, idle
//!   sweep, max-requests-per-connection). Each shard **runs its own
//!   handlers**: a scalar route's request runs as soon as it is framed,
//!   and the requests one epoll pass framed for a batched route — a
//!   pipelined burst, or requests from several of the shard's connections
//!   — run as one handler call when the pass ends, capped at the route's
//!   `max_batch`. Every shard owns an `SO_REUSEPORT` listener and the
//!   kernel spreads connections across them; no request crosses a thread.
//! * [`request`] / [`response`] — HTTP parsing (the one request parser,
//!   [`Request::try_parse_resuming`], frames the reactor's rolling
//!   buffers in time linear in the bytes received; the mirror-image
//!   [`Response::try_parse`] frames the client's) and serialization with
//!   `Content-Encoding: gzip` handled by our own `hyrec-wire` codec.
//! * [`router`] — path-prefix routing over the unified [`Handler`] trait,
//!   trailing slash optional.
//! * [`client`] — a small blocking client holding one persistent
//!   connection per clone, with automatic reconnect; used by load
//!   generators and examples.
//! * [`api`] — the HyRec web API of Table 1, mounted with batched
//!   policies: `GET /online/?uid=<uid>` batches into
//!   `HyRecServer::build_jobs` + `JobEncoder::plan_jobs` (each body's
//!   cached pieces are copied once, into the connection's send buffer),
//!   `GET /rate/` batches into the shard-grouped
//!   `HyRecServer::record_many`, and `POST /neighbors/` batches into
//!   `HyRecServer::apply_updates`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use hyrec_http::{api, reactor::ReactorServer};
//! use hyrec_server::HyRecServer;
//!
//! let hyrec = Arc::new(HyRecServer::new());
//! // 4 reactor event loops, each with its own SO_REUSEPORT listener; each
//! // loop gathers and runs its own connections' batches.
//! let server = ReactorServer::bind("127.0.0.1:0", 4)?
//!     .with_max_requests_per_conn(10_000);
//! let addr = server.local_addr();
//! let handle = server.serve(api::hyrec_router(hyrec));
//! println!("HyRec API listening on http://{addr}");
//! // … handle.stop() drains every loop and joins its thread.
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)] // allowed only in `sys` (raw epoll and socket bindings)
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod reactor;
pub mod request;
pub mod response;
pub mod router;
#[cfg(test)]
mod sharded;
mod sys;

pub use client::HttpClient;
pub use reactor::ReactorServer;
pub use request::{FrameCursor, FrameError, Request};
pub use response::{Disposition, Response};
pub use router::{BatchPolicy, Handler, Router, Scalar};
