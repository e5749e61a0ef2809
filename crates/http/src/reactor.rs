//! The epoll reactor front-end: N independent event loops ("shards"), each
//! multiplexing its own subset of the connections and gathering its own
//! batches, over one **shared** worker pool and router.
//!
//! A thread-per-connection server holds one OS thread hostage per
//! in-flight connection — fine for hundreds of browsers, fatal for the
//! millions HyRec targets (Section 4's premise is that the front-end stays
//! *cheap* as the population grows). The reactor is built from:
//!
//! * **Persistent, pipelined connections.** Each connection owns a rolling
//!   read buffer that may hold several back-to-back requests at once and a
//!   staged write buffer. Framing resumes where the previous read left off
//!   ([`Request::try_parse_resuming`]), so however the network splits a
//!   request, framing it costs time linear in its bytes. Requests are numbered per connection and responses
//!   flush strictly in request order (a reorder queue holds completions
//!   that finish early), so browsers holding one socket across many
//!   Table 1 calls — and pipelining them — are served correctly and
//!   cheaply: no per-request TCP connect/accept at all.
//! * **Connection lifetime management.** Each response's `Connection`
//!   header is derived per request ([`Request::wants_keep_alive`] ∧
//!   requests-served < [`ReactorServer::with_max_requests_per_conn`] ∧ not
//!   shutting down); an idle sweep reaps connections that have sat quiet
//!   longer than [`ReactorServer::with_idle_timeout`] so dead browsers do
//!   not pin buffers.
//! * **Multi-reactor accept sharding.** One event loop saturates a core
//!   before the workers do, so [`ReactorServer::bind_sharded`] spins one
//!   epoll loop per shard. Each shard owns a private `SO_REUSEPORT`
//!   listener and the kernel hashes incoming connections across them, so
//!   accepts never cross threads. A connection lives on exactly one shard
//!   for its whole lifetime, so the per-connection ordering machinery
//!   needs no cross-shard coordination. A kernel without `SO_REUSEPORT`
//!   (Linux before 3.9) fails the bind.
//! * **A readiness loop** per shard over raw `epoll` (see [`crate::sys`];
//!   no external dependencies), level-triggered, with a wakeup `eventfd`
//!   per shard for response completions coming back from the workers.
//! * **Shard-local request coalescing.** Requests resolving to a route
//!   whose [`crate::BatchPolicy`] allows batching are *gathered* rather
//!   than dispatched, into the gather of the shard that framed them (see
//!   [`crate::router`]'s `Gather`). A batch flushes to the worker pool when
//!   it reaches the route's `max_batch`, when its oldest request has
//!   waited the route's `gather_window`, or as soon as its shard has
//!   nothing in flight. A shard never waits on another shard's work, so a
//!   lone request on an idle shard is served at once however busy the
//!   rest of the process is. Pipelining widens batches: a browser that
//!   writes three `/online/` calls back-to-back delivers a ready-made batch
//!   in a single read, without paying the gather window as latency. A
//!   scalar route's request is a batch of one on the same worker path.
//!
//! Shutdown drains every shard: listeners close immediately (so racing
//! connects are refused instead of sitting accepted-but-unserved in a dead
//! queue), pending batches are flushed, in-flight work completes, staged
//! responses are written out (stamped `Connection: close`), then each loop
//! exits, the threads join deterministically, and the shared pool joins.

use crate::request::{FrameCursor, Request};
use crate::response::{Disposition, Response};
use crate::router::{Gather, GatheredBatch, Resolution, Router};
use crate::sys::{self, Epoll, EpollEvent, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::threadpool::ThreadPool;
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Epoll token of the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the completion-wakeup eventfd.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Read chunk size for the nonblocking read loop.
const READ_CHUNK: usize = 16 * 1024;
/// Hard cap on a connection's accumulated request bytes (headers + body
/// caps plus framing slack; `Request::try_parse_resuming` rejects earlier
/// in practice).
const MAX_CONN_BUF: usize = 17 * 1024 * 1024;
/// Default idle timeout: connections with nothing in flight that stay
/// quiet longer than this are reaped.
const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Cap on responses outstanding per connection: framing pauses (bytes stay
/// buffered) until earlier responses flush, bounding per-connection work a
/// pipelining client can force into the queue.
const MAX_PIPELINE: u64 = 64;
/// Cap on staged-but-unwritten response bytes per connection: framing also
/// pauses while this much output awaits a slow (or vanished) reader, so a
/// pipelining client that never reads cannot grow the write buffer without
/// bound.
const MAX_STAGED_OUT: usize = 1024 * 1024;
/// How long a draining shutdown waits before abandoning in-flight work.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// How long a listener stays deregistered after an accept failure like
/// EMFILE (level-triggered readiness would otherwise busy-spin the loop).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);
/// Accept-queue depth requested from the kernel (clamped by
/// `net.core.somaxconn`); per listener, so every shard gets this much
/// queue.
const ACCEPT_BACKLOG: i32 = 4096;

/// Destination of a response on its shard: (connection token, sequence
/// number).
type Dest = (u64, u64);

/// Per-shard serving counters (one entry per reactor event loop).
#[derive(Debug, Default)]
pub struct ShardStats {
    requests: AtomicU64,
    connections: AtomicU64,
}

impl ShardStats {
    /// Complete requests parsed by this shard.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Connections served by this shard.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
}

/// Serving statistics shared by every reactor shard: per-shard request
/// and connection counts (observing the kernel's accept sharding actually
/// spreading load), whose sums are the aggregates, and process-wide batch
/// counts.
#[derive(Debug)]
pub struct ReactorStats {
    batches: AtomicU64,
    batched_requests: AtomicU64,
    shards: Vec<ShardStats>,
}

impl ReactorStats {
    fn with_shards(shards: usize) -> Self {
        Self {
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            shards: (0..shards).map(|_| ShardStats::default()).collect(),
        }
    }

    /// Number of complete requests parsed, across all shards.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(ShardStats::requests).sum()
    }

    /// Number of connections accepted (so `requests / connections` is the
    /// achieved keep-alive reuse factor), across all shards.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.shards.iter().map(ShardStats::connections).sum()
    }

    /// Number of coalesced batches flushed to batched routes, summed over
    /// the shards (each shard gathers its own connections' requests).
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Number of requests served through batched routes (so
    /// `batched_requests / batches` is the achieved mean batch size).
    #[must_use]
    pub fn batched_requests(&self) -> u64 {
        self.batched_requests.load(Ordering::Relaxed)
    }

    /// Per-shard breakdowns, indexed by shard id.
    #[must_use]
    pub fn shards(&self) -> &[ShardStats] {
        &self.shards
    }

    /// Serializes the counters as a compact JSON object (the reactor half
    /// of the HyRec `/stats/` payload).
    #[must_use]
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"requests\":{},\"connections\":{}}}",
                    s.requests(),
                    s.connections()
                )
            })
            .collect();
        format!(
            "{{\"requests\":{},\"connections\":{},\"batches\":{},\
             \"batched_requests\":{},\"shards\":[{}]}}",
            self.requests(),
            self.connections(),
            self.batches(),
            self.batched_requests(),
            shards.join(",")
        )
    }
}

/// An epoll-based nonblocking HTTP/1.1 server with persistent (keep-alive,
/// pipelined) connections, optionally sharded across several reactor event
/// loops.
pub struct ReactorServer {
    /// One `SO_REUSEPORT` listener per shard, all on one address.
    listeners: Vec<TcpListener>,
    workers: usize,
    local_addr: SocketAddr,
    idle_timeout: Duration,
    max_requests_per_conn: u64,
    /// Created at bind so callers can share it into routes; `serve` moves
    /// it into [`Shared`].
    stats: Arc<ReactorStats>,
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorServer")
            .field("addr", &self.local_addr)
            .field("reactors", &self.listeners.len())
            .field("workers", &self.workers)
            .field("idle_timeout", &self.idle_timeout)
            .field("max_requests_per_conn", &self.max_requests_per_conn)
            .finish()
    }
}

/// Handle for observing and stopping a running reactor.
pub struct ReactorHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// One per shard, to wake every loop for shutdown.
    mailboxes: Vec<Arc<Mailbox>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("addr", &self.addr)
            .field("reactors", &self.threads.len())
            .finish()
    }
}

impl ReactorHandle {
    /// Address the server is bound to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of complete requests parsed so far, across all shards.
    #[must_use]
    pub fn request_count(&self) -> u64 {
        self.shared.stats.requests()
    }

    /// Serving statistics (batch and connection counts expose achieved
    /// coalescing and keep-alive reuse; per-shard breakdowns expose the
    /// accept sharding).
    #[must_use]
    pub fn stats(&self) -> &ReactorStats {
        &self.shared.stats
    }

    /// Signals shutdown and waits for every reactor shard to drain and
    /// exit, then for the shared worker pool to join.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Fan the shutdown out to every loop: each shard owns an eventfd.
        for mailbox in &self.mailboxes {
            mailbox.waker.wake();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Dropping the handle's `Arc<Shared>` (the last one once every
        // shard thread has exited) runs `ThreadPool::drop`, which joins the
        // workers — so by the time `stop` returns, every thread is gone.
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

impl ReactorServer {
    /// Binds a single-reactor server to `addr` (`127.0.0.1:0` for an
    /// ephemeral port) with `workers` request-processing threads behind
    /// the event loop.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind<A: ToSocketAddrs>(addr: A, workers: usize) -> io::Result<Self> {
        Self::bind_sharded(addr, 1, workers)
    }

    /// Binds a server sharded across `reactors` epoll event loops over a
    /// **shared** pool of `reactors × workers_per_reactor` workers. Each
    /// shard gathers batches from its own connections only. Every shard
    /// binds its own `SO_REUSEPORT` listener on the same address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding any of the listeners; on a
    /// kernel without `SO_REUSEPORT` that is the `setsockopt` errno
    /// (`ENOPROTOOPT`).
    pub fn bind_sharded<A: ToSocketAddrs>(
        addr: A,
        reactors: usize,
        workers_per_reactor: usize,
    ) -> io::Result<Self> {
        let reactors = reactors.max(1);
        let requested = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no socket address"))?;
        // The first bind resolves an ephemeral port; the remaining shards
        // bind the concrete address it landed on.
        let first = sys::bind_reuseport(requested, ACCEPT_BACKLOG)?;
        let local_addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(sys::bind_reuseport(local_addr, ACCEPT_BACKLOG)?);
        }
        Ok(Self {
            listeners,
            workers: reactors * workers_per_reactor.max(1),
            local_addr,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            max_requests_per_conn: u64::MAX,
            stats: Arc::new(ReactorStats::with_shards(reactors)),
        })
    }

    /// A shared handle to this server's statistics, available *before*
    /// [`Self::serve`] — so observability routes (e.g. the HyRec `/stats/`
    /// endpoint) can be registered on the router that the server will run.
    #[must_use]
    pub fn stats_handle(&self) -> Arc<ReactorStats> {
        Arc::clone(&self.stats)
    }

    /// Sets how long a connection with nothing in flight may sit quiet
    /// before the sweep reaps it (default 10 s).
    #[must_use]
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout.max(Duration::from_millis(1));
        self
    }

    /// Caps requests served per connection (default unlimited): the
    /// `n`-th response on a connection is stamped `Connection: close` and
    /// the connection ends — the standard guard against a single browser
    /// pinning server-side state forever.
    #[must_use]
    pub fn with_max_requests_per_conn(mut self, max_requests: u64) -> Self {
        self.max_requests_per_conn = max_requests.max(1);
        self
    }

    /// The bound address (shared by every shard's listener).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of reactor event loops this server will run.
    #[must_use]
    pub fn reactors(&self) -> usize {
        self.listeners.len()
    }

    /// Starts one event loop per shard on background threads; returns a
    /// handle for shutdown.
    ///
    /// # Panics
    ///
    /// Panics if an epoll instance, wakeup eventfd, listener registration
    /// or reactor thread cannot be set up (resource exhaustion at startup).
    #[must_use]
    pub fn serve(self, router: Router) -> ReactorHandle {
        let shared = Arc::new(Shared {
            router,
            pool: ThreadPool::new(self.workers),
            stats: Arc::clone(&self.stats),
            shutdown: AtomicBool::new(false),
            idle_timeout: self.idle_timeout,
            max_requests_per_conn: self.max_requests_per_conn,
        });
        // Every shard is set up before any loop starts, so a setup failure
        // leaves no thread running.
        let shards: Vec<Shard> = self
            .listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                Shard::new(id, listener, Arc::clone(&shared)).expect("set up reactor shard")
            })
            .collect();
        let mailboxes = shards
            .iter()
            .map(|shard| Arc::clone(&shard.mailbox))
            .collect();
        let threads = shards
            .into_iter()
            .map(|shard| {
                thread::Builder::new()
                    .name(format!("hyrec-reactor-{}", shard.id))
                    .spawn(move || shard.run())
                    .expect("spawn reactor shard thread")
            })
            .collect();
        ReactorHandle {
            addr: self.local_addr,
            shared,
            mailboxes,
            threads,
        }
    }
}

/// A persistent connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Rolling read buffer; may hold several pipelined requests.
    buf: ReadBuf,
    /// Staged response bytes.
    out: Vec<u8>,
    written: usize,
    /// Last activity (read progress, request framed, write completed) —
    /// the idle sweep's clock.
    since: Instant,
    /// Sequence number assigned to the next request parsed here.
    next_assign: u64,
    /// Sequence number whose response serializes next (responses flush in
    /// request order).
    next_flush: u64,
    /// Completed responses that arrived ahead of `next_flush`.
    reorder: Vec<(u64, Response)>,
    /// No further requests are accepted; the connection closes once every
    /// assigned response has flushed.
    closing: bool,
    /// The peer half-closed its write side: the bytes already buffered are
    /// the last that will ever arrive (complete frames among them are
    /// still served — shutdown-after-send is a legal client pattern).
    peer_eof: bool,
    /// Currently registered epoll interest.
    interest: u32,
    /// Where framing resumes on `buf`.
    framing: FrameCursor,
}

/// A connection's rolling read buffer: the bytes not yet framed are
/// `bytes[start..]`. Framing a request advances `start`; the framed front
/// is dropped in one move once it passes half the buffer. Each move then
/// shifts fewer bytes than were framed since the last, so a pipelined
/// burst costs moves linear in the bytes received, not one move of
/// everything still buffered per request.
#[derive(Debug, Default)]
struct ReadBuf {
    bytes: Vec<u8>,
    start: usize,
}

impl ReadBuf {
    /// The bytes received and not yet framed.
    fn unread(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    fn extend(&mut self, data: &[u8]) {
        self.bytes.extend_from_slice(data);
    }

    /// Drops the first `n` unread bytes (a framed request) and returns how
    /// many bytes that moved.
    fn consume(&mut self, n: usize) -> usize {
        self.start += n;
        debug_assert!(self.start <= self.bytes.len());
        if self.start == self.bytes.len() {
            self.clear();
            0
        } else if self.start > self.bytes.len() / 2 {
            self.bytes.drain(..self.start);
            self.start = 0;
            self.bytes.len()
        } else {
            0
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.start = 0;
    }
}

impl Conn {
    /// Requests parsed whose responses have not yet serialized.
    fn pending_responses(&self) -> u64 {
        self.next_assign - self.next_flush
    }

    /// Nothing left to compute or write for this connection.
    fn drained(&self) -> bool {
        self.pending_responses() == 0 && self.written >= self.out.len()
    }
}

/// Connection storage with generation-tagged slots: a token names a
/// (slot, generation) pair so completions for closed-and-recycled
/// connections are recognized as stale and dropped.
struct Slab {
    slots: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: Conn) -> u64 {
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index] = Some(conn);
                index
            }
            None => {
                self.slots.push(Some(conn));
                self.generations.push(0);
                self.slots.len() - 1
            }
        };
        token_of(index, self.generations[index])
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let (index, generation) = parts_of(token);
        if self.generations.get(index) == Some(&generation) {
            self.slots.get_mut(index).and_then(Option::as_mut)
        } else {
            None
        }
    }

    fn remove(&mut self, token: u64) -> Option<Conn> {
        let (index, generation) = parts_of(token);
        if self.generations.get(index) != Some(&generation) {
            return None;
        }
        let conn = self.slots.get_mut(index).and_then(Option::take);
        if conn.is_some() {
            self.generations[index] = self.generations[index].wrapping_add(1);
            self.free.push(index);
        }
        conn
    }

    fn live_tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(index, _)| token_of(index, self.generations[index]))
            .collect()
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

fn token_of(index: usize, generation: u32) -> u64 {
    (index as u64) | (u64::from(generation) << 32)
}

fn parts_of(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// One step of the per-connection framing loop.
enum FrameStep {
    /// A request was framed and assigned a sequence number.
    Frame(u64, Request),
    /// The buffer can never frame a valid request; answer at this
    /// sequence number and close.
    Bad(u64, Response),
    /// Nothing (more) to frame right now.
    Stop,
}

/// A shard's inbox of completions computed by the workers, with the count
/// of the shard's jobs still running. A non-poisoning mutex — a panicking
/// worker must not wedge every live connection on the shard behind a
/// poisoned queue (the panic itself is already translated into a 500 by
/// the worker path).
struct Mailbox {
    completions: Mutex<Vec<(Dest, Response)>>,
    waker: Waker,
    /// Worker-pool jobs this shard submitted whose completions are not yet
    /// posted. Zero means the shard is idle, so its gather flushes at once.
    in_flight: AtomicUsize,
}

impl Mailbox {
    fn new() -> io::Result<Self> {
        Ok(Self {
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            in_flight: AtomicUsize::new(0),
        })
    }
}

/// State shared by every reactor shard: the router, the worker pool,
/// aggregate stats, the shutdown flag and the connection settings.
struct Shared {
    router: Router,
    pool: ThreadPool,
    stats: Arc<ReactorStats>,
    shutdown: AtomicBool,
    idle_timeout: Duration,
    max_requests_per_conn: u64,
}

/// One reactor event loop: owns a private listener, the connections the
/// kernel hashes onto it, and the gather their batched requests wait in.
struct Shard {
    /// This shard's entry in [`ReactorStats::shards`].
    id: usize,
    /// This shard's listener, taken (closed) the moment draining starts.
    listener: Option<TcpListener>,
    epoll: Epoll,
    slab: Slab,
    gather: Gather<Dest>,
    /// Shared with the workers running this shard's jobs (`Arc` so they
    /// need no `Arc<Shared>`, which would cycle through the pool's own job
    /// queue).
    mailbox: Arc<Mailbox>,
    shared: Arc<Shared>,
}

impl Shard {
    /// Registers the listener and a completion waker with a fresh epoll
    /// instance.
    fn new(id: usize, listener: TcpListener, shared: Arc<Shared>) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        listener.set_nonblocking(true)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        let mailbox = Arc::new(Mailbox::new()?);
        epoll.add(mailbox.waker.raw_fd(), EPOLLIN, WAKER_TOKEN)?;
        Ok(Self {
            id,
            listener: Some(listener),
            epoll,
            slab: Slab::new(),
            gather: Gather::new(&shared.router),
            mailbox,
            shared,
        })
    }

    /// Idle-sweep cadence: frequent enough to honour short test timeouts,
    /// capped at once a second.
    fn sweep_interval(&self) -> Duration {
        (self.shared.idle_timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1))
    }

    #[allow(clippy::too_many_lines)]
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 1024];
        let mut accepting = true;
        // While Some, the listener is deregistered (accept failed with
        // e.g. EMFILE); re-armed once the deadline passes so a full fd
        // table degrades to brief accept pauses instead of a busy spin.
        let mut accept_paused_until: Option<Instant> = None;
        let sweep_every = self.sweep_interval();
        let mut last_sweep = Instant::now();
        let mut drain_started: Option<Instant> = None;

        loop {
            if let Some(deadline) = accept_paused_until {
                if accepting && Instant::now() >= deadline {
                    accept_paused_until = None;
                    if let Some(listener) = &self.listener {
                        let _ = self
                            .epoll
                            .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN);
                    }
                }
            }
            let mut timeout = self.wait_timeout(sweep_every, drain_started.is_some());
            if accept_paused_until.is_some() {
                timeout = timeout.min(i32::try_from(ACCEPT_BACKOFF.as_millis()).unwrap_or(50));
            }
            let ready = self.epoll.wait(&mut events, Some(timeout)).unwrap_or(0);

            for event in &events[..ready] {
                match event.token() {
                    LISTENER_TOKEN => {
                        if accepting && !self.accept_ready() {
                            // Resource exhaustion: back off the listener.
                            if let Some(listener) = &self.listener {
                                let _ = self.epoll.delete(listener.as_raw_fd());
                            }
                            accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                        }
                    }
                    WAKER_TOKEN => self.mailbox.waker.drain(),
                    token => self.conn_ready(token, event.readiness()),
                }
            }

            // Responses computed by the workers since the last pass; after
            // queueing them, resume framing on those connections — their
            // pipelines may have been paused by the MAX_PIPELINE cap.
            let done: Vec<(Dest, Response)> = std::mem::take(&mut *self.mailbox.completions.lock());
            let mut touched: Vec<u64> = Vec::with_capacity(done.len());
            for ((token, seq), response) in done {
                self.queue_response(token, seq, response);
                if !touched.contains(&token) {
                    touched.push(token);
                }
            }
            for token in touched {
                self.frame_and_dispatch(token);
                self.close_if_drained(token);
                self.sync_interest(token);
            }

            // Flush gathered batches whose window expired; once nothing of
            // this shard's is in flight (or it drains), flush them all. Full
            // batches already flushed when they filled.
            let now = Instant::now();
            let flush_all =
                drain_started.is_some() || self.mailbox.in_flight.load(Ordering::Acquire) == 0;
            for batch in self.gather.take_due(&self.shared.router, now, flush_all) {
                self.flush_batch(batch);
            }

            // Periodic sweep: reap connections that have sat quiet longer
            // than the idle timeout with nothing in flight — covers both
            // clients stalled mid-request and idle keep-alive connections.
            if now.duration_since(last_sweep) >= sweep_every {
                last_sweep = now;
                for token in self.slab.live_tokens() {
                    let expired = self.slab.get_mut(token).is_some_and(|conn| {
                        // Quiet connections with nothing in flight, and
                        // vanished readers whose staged bytes stopped
                        // draining, are both reaped; connections merely
                        // waiting on a slow handler are not.
                        let stalled_write = conn.written < conn.out.len();
                        (conn.drained() || stalled_write)
                            && now.duration_since(conn.since) > self.shared.idle_timeout
                    });
                    if expired {
                        self.close_conn(token);
                    }
                }
            }

            // Shutdown: close the listener *immediately* (a connect racing
            // the stop() call is refused, instead of being accepted into a
            // queue nobody will ever serve and hanging until the client
            // times out), mark every connection closing (drained ones drop
            // at once; the rest flush their pending responses, stamped
            // `Connection: close`), then drain in-flight work before
            // exiting.
            if self.shared.shutdown.load(Ordering::SeqCst) && drain_started.is_none() {
                drain_started = Some(now);
                accepting = false;
                // Closing the fd also removes it from the epoll set.
                drop(self.listener.take());
                for token in self.slab.live_tokens() {
                    let done = self.slab.get_mut(token).is_some_and(|conn| {
                        conn.closing = true;
                        conn.buf.clear();
                        conn.drained()
                    });
                    if done {
                        self.close_conn(token);
                    }
                }
            }
            if let Some(started) = drain_started {
                let drained = self.gather.is_empty()
                    && self.mailbox.in_flight.load(Ordering::Acquire) == 0
                    && self.mailbox.completions.lock().is_empty()
                    && self.slab.is_empty();
                if drained || now.duration_since(started) > DRAIN_DEADLINE {
                    break;
                }
            }
        }
    }

    /// Epoll timeout: tight while one of this shard's gather windows is
    /// pending, bounded by the idle-sweep cadence otherwise, short while
    /// draining.
    fn wait_timeout(&self, sweep_every: Duration, draining: bool) -> i32 {
        if draining {
            return 10;
        }
        let base = i32::try_from(sweep_every.as_millis().max(1))
            .unwrap_or(1_000)
            .min(1_000);
        self.gather
            .next_deadline_ms(&self.shared.router, Instant::now())
            .map_or(base, |ms| base.min(ms))
    }

    /// Drains the accept queue into this shard. Returns `false` when
    /// accepting failed in a way that warrants backing the listener off
    /// (fd exhaustion and friends — with level-triggered readiness,
    /// leaving the listener registered would spin the loop at 100% CPU).
    fn accept_ready(&mut self) -> bool {
        loop {
            let Some(listener) = &self.listener else {
                return true;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    // A connect racing the shutdown: drop it for a prompt
                    // reset.
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.register_conn(stream);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return true,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                // Per-connection handshake failures are transient; retry.
                Err(err) if err.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(_) => return false,
            }
        }
    }

    /// Adopts a fresh (already nonblocking) connection into this shard's
    /// slab and epoll set.
    fn register_conn(&mut self, stream: TcpStream) {
        self.shared.stats.shards[self.id]
            .connections
            .fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let token = self.slab.insert(Conn {
            stream,
            buf: ReadBuf::default(),
            out: Vec::new(),
            written: 0,
            since: Instant::now(),
            next_assign: 0,
            next_flush: 0,
            reorder: Vec::new(),
            closing: false,
            peer_eof: false,
            interest: EPOLLIN,
            framing: FrameCursor::default(),
        });
        if self.epoll.add(fd, EPOLLIN, token).is_err() {
            let _ = self.slab.remove(token);
        }
    }

    fn conn_ready(&mut self, token: u64, readiness: u32) {
        if self.slab.get_mut(token).is_none() {
            return; // Stale token: connection already recycled.
        }
        if readiness & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        if readiness & EPOLLIN != 0 {
            self.read_ready(token);
        }
        if readiness & EPOLLOUT != 0 && self.slab.get_mut(token).is_some() {
            self.try_write(token);
            // Write progress may have released the staged-bytes gate on
            // framing (a pipelining client fed by a slow reader).
            self.frame_and_dispatch(token);
            self.close_if_drained(token);
        }
        self.sync_interest(token);
    }

    /// Pulls everything currently readable, frames and dispatches as many
    /// pipelined requests as the buffer holds, and handles peer EOF.
    fn read_ready(&mut self, token: u64) {
        let pulled = {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            if conn.closing {
                return; // Late readiness after we stopped accepting input.
            }
            pull_bytes(conn)
        };
        match pulled {
            Pull::Closed => {
                self.close_conn(token);
            }
            Pull::TooLarge => {
                let seq = {
                    let conn = self.slab.get_mut(token).expect("checked above");
                    let seq = conn.next_assign;
                    conn.next_assign += 1;
                    conn.closing = true;
                    conn.buf.clear();
                    seq
                };
                self.queue_response(token, seq, Response::payload_too_large("request too large"));
            }
            Pull::Data { eof } => {
                if eof {
                    if let Some(conn) = self.slab.get_mut(token) {
                        conn.peer_eof = true;
                    }
                }
                // Complete frames already buffered are still served — even
                // past the pipeline cap, framing resumes as responses
                // flush; `peer_eof` only forbids *new* bytes. The framing
                // loop flips the connection to closing once the buffer can
                // never yield another request.
                self.frame_and_dispatch(token);
                self.close_if_drained(token);
            }
        }
    }

    /// Frames as many complete requests as the connection's buffer holds
    /// (bounded by the pipeline cap) and dispatches each. A pipelined burst
    /// framed here joins the gather before this pass of the loop checks
    /// its flush triggers, so it leaves as one batch.
    fn frame_and_dispatch(&mut self, token: u64) {
        loop {
            let step = {
                let Some(conn) = self.slab.get_mut(token) else {
                    break;
                };
                if conn.closing
                    || conn.pending_responses() >= MAX_PIPELINE
                    || conn.out.len() - conn.written > MAX_STAGED_OUT
                {
                    FrameStep::Stop
                } else {
                    match Request::try_parse_resuming(conn.buf.unread(), &mut conn.framing) {
                        Ok(Some((request, consumed))) => {
                            conn.buf.consume(consumed);
                            conn.since = Instant::now();
                            let seq = conn.next_assign;
                            conn.next_assign += 1;
                            // The keep-alive decision, per request: client
                            // intent ∧ per-connection budget ∧ liveness.
                            if !request.wants_keep_alive()
                                || conn.next_assign >= self.shared.max_requests_per_conn
                                || self.shared.shutdown.load(Ordering::Relaxed)
                            {
                                conn.closing = true;
                                conn.buf.clear();
                            }
                            FrameStep::Frame(seq, request)
                        }
                        Ok(None) => {
                            if conn.peer_eof {
                                // The remaining bytes can never complete a
                                // request; nothing more will arrive.
                                conn.closing = true;
                                conn.buf.clear();
                            }
                            FrameStep::Stop
                        }
                        Err(err) => {
                            let seq = conn.next_assign;
                            conn.next_assign += 1;
                            conn.closing = true;
                            conn.buf.clear();
                            FrameStep::Bad(seq, err.response())
                        }
                    }
                }
            };
            match step {
                FrameStep::Frame(seq, request) => {
                    self.shared.stats.shards[self.id]
                        .requests
                        .fetch_add(1, Ordering::Relaxed);
                    self.dispatch(token, seq, request);
                }
                FrameStep::Bad(seq, response) => {
                    self.queue_response(token, seq, response);
                    break;
                }
                FrameStep::Stop => break,
            }
        }
    }

    /// Routes a parsed request into the shard's gather, flushing the batch
    /// it fills (a scalar route's policy-of-1 fills one at once); routing
    /// misses answer immediately (in order).
    fn dispatch(&mut self, token: u64, seq: u64, request: Request) {
        match self.shared.router.resolve(&request) {
            Resolution::Route(route) => {
                let entry = ((token, seq), request);
                for batch in self.gather.push_many(&self.shared.router, route, [entry]) {
                    self.flush_batch(batch);
                }
            }
            Resolution::MethodNotAllowed => {
                self.queue_response(token, seq, Response::error(405, "method not allowed"));
            }
            Resolution::NotFound => self.queue_response(token, seq, Response::not_found()),
        }
    }

    /// Hands a batch to the worker pool as one handler call; the worker
    /// posts the responses to this shard's mailbox. Only batches of
    /// coalescable routes count in the batch stats.
    fn flush_batch(&self, batch: GatheredBatch<Dest>) {
        let route = Arc::clone(self.shared.router.route_at(batch.route));
        if route.policy().is_batched() {
            let stats = &self.shared.stats;
            stats.batches.fetch_add(1, Ordering::Relaxed);
            stats
                .batched_requests
                .fetch_add(batch.entries.len() as u64, Ordering::Relaxed);
        }
        let (destinations, requests): (Vec<Dest>, Vec<Request>) = batch.entries.into_iter().unzip();
        let mailbox = Arc::clone(&self.mailbox);
        mailbox.in_flight.fetch_add(1, Ordering::AcqRel);
        self.shared.pool.execute(move || {
            let responses =
                catch_unwind(AssertUnwindSafe(|| route.run(&requests))).unwrap_or_else(|_| {
                    (0..destinations.len())
                        .map(|_| Response::error(500, "handler panicked"))
                        .collect()
                });
            mailbox
                .completions
                .lock()
                .extend(destinations.into_iter().zip(responses));
            mailbox.in_flight.fetch_sub(1, Ordering::AcqRel);
            mailbox.waker.wake();
        });
    }

    /// Queues a completed response on its connection: responses serialize
    /// strictly in request order, with early finishers parked in the
    /// reorder queue. The final response of a closing connection is
    /// stamped `Connection: close`; everything else keep-alive.
    fn queue_response(&mut self, token: u64, seq: u64, response: Response) {
        let progressed = {
            let Some(conn) = self.slab.get_mut(token) else {
                return; // Connection died while the response was computed.
            };
            conn.reorder.push((seq, response));
            let mut progressed = false;
            while let Some(position) = conn.reorder.iter().position(|(s, _)| *s == conn.next_flush)
            {
                let (_, mut response) = conn.reorder.swap_remove(position);
                let last = conn.closing && conn.next_flush + 1 == conn.next_assign;
                response.set_disposition(if last {
                    Disposition::Close
                } else {
                    Disposition::KeepAlive
                });
                response.write_into(&mut conn.out);
                conn.next_flush += 1;
                progressed = true;
            }
            progressed
        };
        if progressed {
            self.try_write(token);
        }
    }

    /// Writes as much of the staged response bytes as the socket accepts;
    /// closes when a closing connection fully drains, re-arms `EPOLLOUT`
    /// on short writes.
    fn try_write(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            push_staged(conn)
        };
        match outcome {
            WriteOutcome::Done => {
                let close_now = {
                    let conn = self.slab.get_mut(token).expect("written just now");
                    conn.out.clear();
                    conn.written = 0;
                    conn.since = Instant::now();
                    conn.closing && conn.pending_responses() == 0
                };
                if close_now {
                    self.close_conn(token);
                } else {
                    self.sync_interest(token);
                }
            }
            WriteOutcome::Blocked => self.sync_interest(token),
            WriteOutcome::Failed => self.close_conn(token),
        }
    }

    /// Reconciles the connection's epoll registration with its state:
    /// `EPOLLIN` while it still accepts requests, `EPOLLOUT` while staged
    /// bytes remain unwritten.
    fn sync_interest(&mut self, token: u64) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        let mut desired = 0;
        if !conn.closing {
            desired |= EPOLLIN;
        }
        if conn.written < conn.out.len() {
            desired |= EPOLLOUT;
        }
        if desired != conn.interest {
            conn.interest = desired;
            let fd = conn.stream.as_raw_fd();
            let _ = self.epoll.modify(fd, desired, token);
        }
    }

    /// Closes a connection that has flipped to closing with nothing left
    /// to compute or write (the try_write path handles the staged-bytes
    /// case; this covers closings decided with an already-empty queue).
    fn close_if_drained(&mut self, token: u64) {
        let done = self
            .slab
            .get_mut(token)
            .is_some_and(|conn| conn.closing && conn.drained());
        if done {
            self.close_conn(token);
        }
    }

    /// Tears a connection down.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.slab.remove(token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
        }
    }
}

/// Result of draining a readable socket into its accumulation buffer.
enum Pull {
    /// Bytes (possibly none) were appended; `eof` reports a half-close.
    Data { eof: bool },
    /// The socket failed or the peer vanished; drop the connection.
    Closed,
    /// The accumulation buffer hit its hard cap; answer 413 and close.
    TooLarge,
}

/// Reads everything currently available into the rolling buffer.
fn pull_bytes(conn: &mut Conn) -> Pull {
    let mut chunk = [0u8; READ_CHUNK];
    let mut eof = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // Peer half-closed its write side. Complete requests may
                // already be buffered (shutdown-after-send is a legal
                // client pattern) — the caller frames them before closing.
                eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend(&chunk[..n]);
                // Progress resets the idle clock: the sweep drops stalled
                // connections, not slow-but-active ones.
                conn.since = Instant::now();
                if conn.buf.unread().len() > MAX_CONN_BUF {
                    return Pull::TooLarge;
                }
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Pull::Closed,
        }
    }
    Pull::Data { eof }
}

/// Result of pushing staged response bytes to the socket.
enum WriteOutcome {
    /// Everything currently staged has been written.
    Done,
    /// Socket buffer full; re-arm `EPOLLOUT` on this fd.
    Blocked,
    /// The socket failed; drop the connection.
    Failed,
}

/// Writes staged bytes until done or the socket stops accepting.
fn push_staged(conn: &mut Conn) -> WriteOutcome {
    loop {
        if conn.written >= conn.out.len() {
            return WriteOutcome::Done;
        }
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return WriteOutcome::Failed,
            Ok(n) => {
                conn.written += n;
                // Progress resets the idle clock, mirroring the read side.
                conn.since = Instant::now();
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                return WriteOutcome::Blocked;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return WriteOutcome::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::router::BatchPolicy;

    fn ping_router() -> Router {
        let mut router = Router::new();
        router.get("/ping", |_| Response::ok("text/plain", b"pong".to_vec()));
        router.get("/echo", |req: &Request| {
            let msg = req.query_param("msg").unwrap_or("").to_owned();
            Response::ok("text/plain", msg.into_bytes())
        });
        router
    }

    #[test]
    fn serves_requests_over_tcp() {
        let server = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let client = HttpClient::new(addr);
        let response = client.get("/ping").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"pong");

        let response = client.get("/echo?msg=hello").unwrap();
        assert_eq!(response.body, b"hello");

        let response = client.get("/missing").unwrap();
        assert_eq!(response.status, 404);

        assert!(handle.request_count() >= 3);
        // One persistent connection carried all three requests.
        assert_eq!(handle.stats().connections(), 1);
        handle.stop();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut joins = Vec::new();
        for _ in 0..32 {
            joins.push(thread::spawn(move || {
                let client = HttpClient::new(addr);
                let response = client.get("/ping").unwrap();
                assert_eq!(response.status, 200);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(handle.request_count() >= 32);
        handle.stop();
    }

    #[test]
    fn sharded_reactor_serves_across_shards() {
        // Four event loops behind one address: every request is served,
        // and the per-shard breakdowns sum to the aggregate.
        let server = ReactorServer::bind_sharded("127.0.0.1:0", 4, 1).unwrap();
        assert_eq!(server.reactors(), 4);
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut joins = Vec::new();
        for i in 0..32u32 {
            joins.push(thread::spawn(move || {
                let client = HttpClient::new(addr);
                let response = client.get(&format!("/echo?msg=s{i}")).unwrap();
                assert_eq!(response.status, 200);
                assert_eq!(response.body, format!("s{i}").into_bytes());
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = handle.stats();
        assert_eq!(stats.requests(), 32);
        assert_eq!(stats.connections(), 32);
        assert_eq!(stats.shards().len(), 4);
        let shard_connections: u64 = stats.shards().iter().map(ShardStats::connections).sum();
        let shard_requests: u64 = stats.shards().iter().map(ShardStats::requests).sum();
        assert_eq!(shard_connections, stats.connections());
        assert_eq!(shard_requests, stats.requests());
        // 32 connections over 4 shards: all landing on one shard has
        // probability ~4^-31 under kernel hashing.
        let active = stats
            .shards()
            .iter()
            .filter(|s| s.connections() > 0)
            .count();
        assert!(active >= 2, "all connections landed on one shard");
        handle.stop();
    }

    /// Opens connections to a running sharded server until every shard
    /// has accepted `per_shard` of them, and returns them grouped by the
    /// shard that owns each. Each connect waits for the accept to show in
    /// the per-shard counters, so the grouping is observed, not assumed.
    /// Surplus connections on an already-full shard are closed again.
    fn connections_on_every_shard(handle: &ReactorHandle, per_shard: usize) -> Vec<Vec<TcpStream>> {
        let shards = handle.stats().shards().len();
        let mut groups: Vec<Vec<TcpStream>> = (0..shards).map(|_| Vec::new()).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while groups.iter().any(|group| group.len() < per_shard) {
            assert!(Instant::now() < deadline, "shards never all accepted");
            let before: Vec<u64> = handle
                .stats()
                .shards()
                .iter()
                .map(ShardStats::connections)
                .collect();
            let stream = TcpStream::connect(handle.addr()).unwrap();
            let shard = loop {
                let now = handle.stats().shards();
                if let Some(shard) = (0..shards).find(|&i| now[i].connections() > before[i]) {
                    break shard;
                }
                assert!(Instant::now() < deadline, "connection never accepted");
                thread::sleep(Duration::from_millis(1));
            };
            if groups[shard].len() < per_shard {
                groups[shard].push(stream);
            }
        }
        groups
    }

    /// Reads exactly one response off a raw socket.
    fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((response, consumed)) = Response::try_parse(buf).unwrap() {
                buf.drain(..consumed);
                return response;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed early");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn batched_route_coalesces_concurrent_requests() {
        // Deterministic gathering: two slow scalar requests occupy both
        // workers, so the batched route's requests pile up (the pipeline is
        // never idle and the gather window is far away) and flush together
        // once the workers free up.
        let mut router = Router::new();
        router.get("/slow", |_| {
            thread::sleep(Duration::from_millis(500));
            Response::ok("text/plain", b"slow".to_vec())
        });
        router.route(
            "GET",
            "/batch/",
            BatchPolicy {
                max_batch: 64,
                gather_window: Duration::from_secs(10),
            },
            |requests: &[Request], out: &mut Vec<Response>| {
                out.extend(requests.iter().map(|r| {
                    let uid = r.query_param("uid").unwrap_or("?");
                    Response::ok("text/plain", format!("u{uid}").into_bytes())
                }));
            },
        );
        let server = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(router);

        let mut joins = Vec::new();
        for _ in 0..2 {
            joins.push(thread::spawn(move || {
                let client = HttpClient::new(addr);
                assert_eq!(client.get("/slow").unwrap().status, 200);
            }));
        }
        // Give the slow requests time to reach the workers.
        thread::sleep(Duration::from_millis(100));
        for uid in 0..24u32 {
            joins.push(thread::spawn(move || {
                let client = HttpClient::new(addr);
                let response = client.get(&format!("/batch/?uid={uid}")).unwrap();
                assert_eq!(response.status, 200);
                assert_eq!(response.body, format!("u{uid}").into_bytes());
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = handle.stats();
        assert_eq!(stats.batched_requests(), 24);
        assert!(stats.batches() >= 1);
        // The 24 requests gathered while the workers were busy; even
        // allowing stragglers, they must have coalesced into far fewer
        // flushes than requests.
        assert!(
            stats.batches() <= 4,
            "coalescing regressed: {} batches for 24 requests",
            stats.batches()
        );
        handle.stop();
    }

    /// A router with a `/slow` scalar route that sleeps `slow`, and a
    /// `/batch/` route (10 s window) answering `u{uid}` that records the
    /// uids of every batch it serves.
    fn slow_and_batch_router(slow: Duration, batches: Arc<Mutex<Vec<Vec<usize>>>>) -> Router {
        let mut router = Router::new();
        router.get("/slow", move |_| {
            thread::sleep(slow);
            Response::ok("text/plain", b"slow".to_vec())
        });
        router.route(
            "GET",
            "/batch/",
            BatchPolicy {
                max_batch: 64,
                gather_window: Duration::from_secs(10),
            },
            move |requests: &[Request], out: &mut Vec<Response>| {
                let uids: Vec<usize> = requests
                    .iter()
                    .map(|r| r.query_param("uid").unwrap().parse().unwrap())
                    .collect();
                out.extend(
                    uids.iter()
                        .map(|uid| Response::ok("text/plain", format!("u{uid}").into_bytes())),
                );
                batches.lock().push(uids);
            },
        );
        router
    }

    #[test]
    fn sharded_gather_coalesces_within_each_shard() {
        // Twelve batched requests on each of 2 shards while each shard's
        // own slow request pins one of the 2 workers: every shard gathers
        // its 12 into at most 2 flushes (one, plus a straggler that missed
        // it), and no batch mixes requests from two shards.
        const PER_SHARD: usize = 12;
        let batches: Arc<Mutex<Vec<Vec<usize>>>> = Arc::default();
        let router = slow_and_batch_router(Duration::from_millis(500), Arc::clone(&batches));
        let server = ReactorServer::bind_sharded("127.0.0.1:0", 2, 1).unwrap();
        let handle = server.serve(router);
        let mut groups = connections_on_every_shard(&handle, PER_SHARD + 1);
        let mut slow: Vec<TcpStream> = groups.iter_mut().map(|g| g.pop().unwrap()).collect();
        for stream in &mut slow {
            stream
                .write_all(b"GET /slow HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
        }
        thread::sleep(Duration::from_millis(100));
        // uid / PER_SHARD names the shard that owns the connection.
        let mut streams: Vec<TcpStream> = groups.into_iter().flatten().collect();
        for (uid, stream) in streams.iter_mut().enumerate() {
            stream
                .write_all(format!("GET /batch/?uid={uid} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes())
                .unwrap();
        }
        for (uid, stream) in streams.iter_mut().chain(&mut slow).enumerate() {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let response = read_response(stream, &mut Vec::new());
            assert_eq!(response.status, 200);
            if uid < 2 * PER_SHARD {
                assert_eq!(response.body, format!("u{uid}").into_bytes());
            }
        }
        let stats = handle.stats();
        assert_eq!(stats.batched_requests(), 24);
        assert!(
            stats.batches() <= 4,
            "per-shard coalescing regressed: {} batches for 24 requests",
            stats.batches()
        );
        let batches = batches.lock();
        for shard in 0..2 {
            let flushes = batches
                .iter()
                .filter(|batch| batch.iter().any(|uid| uid / PER_SHARD == shard))
                .count();
            assert!(
                flushes <= 2,
                "shard {shard}'s {PER_SHARD} requests took {flushes} flushes"
            );
        }
        assert!(
            batches.iter().all(|batch| batch
                .iter()
                .all(|uid| uid / PER_SHARD == batch[0] / PER_SHARD)),
            "a batch mixed two shards' requests: {batches:?}"
        );
        let active = stats.shards().iter().filter(|s| s.requests() > 0).count();
        assert_eq!(active, 2, "batch traffic should have loaded both shards");
        drop(batches);
        handle.stop();
    }

    #[test]
    fn an_idle_shard_flushes_without_waiting_for_another_shards_work() {
        // Shard 0 runs a 3 s request on one of the 2 workers; shard 1 has
        // nothing in flight, so its lone batched request flushes at once
        // to the free worker instead of waiting out its 10 s window or
        // shard 0's work.
        let router = slow_and_batch_router(Duration::from_secs(3), Arc::default());
        let server = ReactorServer::bind_sharded("127.0.0.1:0", 2, 1).unwrap();
        let handle = server.serve(router);
        let mut groups = connections_on_every_shard(&handle, 1);
        let mut busy = groups[0].pop().unwrap();
        let mut idle = groups[1].pop().unwrap();
        busy.write_all(b"GET /slow HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        thread::sleep(Duration::from_millis(100));

        let started = Instant::now();
        idle.write_all(b"GET /batch/?uid=7 HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let response = read_response(&mut idle, &mut Vec::new());
        let waited = started.elapsed();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"u7");
        assert!(
            waited < Duration::from_secs(1),
            "the idle shard's request waited {waited:?}"
        );

        busy.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(read_response(&mut busy, &mut Vec::new()).status, 200);
        handle.stop();
    }

    /// Frames every complete request in `buf`, at most `cap` of them,
    /// and returns how many it framed and how many bytes that moved.
    fn frame_pass(buf: &mut ReadBuf, cursor: &mut FrameCursor, cap: u64) -> (u64, usize) {
        let (mut framed, mut moved) = (0, 0);
        while framed < cap {
            match Request::try_parse_resuming(buf.unread(), cursor).unwrap() {
                Some((_, consumed)) => {
                    moved += buf.consume(consumed);
                    framed += 1;
                }
                None => break,
            }
        }
        (framed, moved)
    }

    #[test]
    fn read_buffer_moves_stay_linear_on_pipelined_bursts() {
        const REQUESTS: u64 = 20_000;
        let wire = b"GET / HTTP/1.1\r\n\r\n".repeat(REQUESTS as usize);

        // The whole burst buffered before framing resumes (the pipeline
        // cap pauses it), then framed MAX_PIPELINE requests per pass.
        // Draining each request from the front would move ~3.6 GB here.
        let mut buf = ReadBuf::default();
        let mut cursor = FrameCursor::default();
        for chunk in wire.chunks(READ_CHUNK) {
            buf.extend(chunk);
        }
        let (mut framed, mut moved) = (0, 0);
        loop {
            let (n, m) = frame_pass(&mut buf, &mut cursor, MAX_PIPELINE);
            if n == 0 {
                break;
            }
            framed += n;
            moved += m;
        }
        assert_eq!(framed, REQUESTS);
        assert!(buf.unread().is_empty());
        assert!(moved <= wire.len(), "moved {moved} of {} bytes", wire.len());

        // Framing between reads, with reads that split requests.
        let mut buf = ReadBuf::default();
        let (mut framed, mut moved) = (0, 0);
        for chunk in wire.chunks(READ_CHUNK - 5) {
            buf.extend(chunk);
            let (n, m) = frame_pass(&mut buf, &mut cursor, u64::MAX);
            framed += n;
            moved += m;
        }
        assert_eq!(framed, REQUESTS);
        assert!(buf.unread().is_empty());
        assert!(moved <= wire.len(), "moved {moved} of {} bytes", wire.len());
    }

    #[test]
    fn pipelined_burst_of_20k_requests_is_answered_in_order() {
        const REQUESTS: usize = 20_000;
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut wire = Vec::new();
        for i in 0..REQUESTS {
            wire.extend_from_slice(format!("GET /echo?msg={i} HTTP/1.1\r\n\r\n").as_bytes());
        }
        // One write, from its own thread so reading can start at once.
        let mut writer = stream.try_clone().unwrap();
        let sender = thread::spawn(move || writer.write_all(&wire).unwrap());

        let mut buf = Vec::new();
        let mut start = 0;
        let mut chunk = [0u8; 64 * 1024];
        let mut answered = 0;
        while answered < REQUESTS {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed after {answered} responses");
            buf.drain(..start);
            start = 0;
            buf.extend_from_slice(&chunk[..n]);
            while let Some((response, consumed)) = Response::try_parse(&buf[start..]).unwrap() {
                start += consumed;
                assert_eq!(response.status, 200);
                assert_eq!(response.body, answered.to_string().into_bytes());
                answered += 1;
            }
        }
        sender.join().unwrap();
        assert_eq!(handle.stats().connections(), 1);
        handle.stop();
    }

    #[test]
    fn pipelined_requests_deliver_a_ready_made_batch() {
        // Three requests written back-to-back on one socket arrive in one
        // read and join the same gather — the keep-alive redesign's
        // "ready-made batch" without paying the gather window.
        let mut router = Router::new();
        router.route(
            "GET",
            "/batch/",
            BatchPolicy {
                max_batch: 64,
                gather_window: Duration::from_millis(200),
            },
            |requests: &[Request], out: &mut Vec<Response>| {
                let size = requests.len();
                out.extend(requests.iter().map(|r| {
                    let uid = r.query_param("uid").unwrap_or("?");
                    Response::ok("text/plain", format!("u{uid}:n{size}").into_bytes())
                }));
            },
        );
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(router);

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        for uid in 0..3 {
            wire.extend_from_slice(
                format!("GET /batch/?uid={uid} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes(),
            );
        }
        stream.write_all(&wire).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        // All three answered in request order, each reporting batch size 3.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut responses = Vec::new();
        while responses.len() < 3 {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed early");
            buf.extend_from_slice(&chunk[..n]);
            while let Some((response, consumed)) = Response::try_parse(&buf).unwrap() {
                buf.drain(..consumed);
                responses.push(response);
            }
        }
        for (uid, response) in responses.iter().enumerate() {
            assert_eq!(response.status, 200);
            assert_eq!(response.body, format!("u{uid}:n3").into_bytes());
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
        let stats = handle.stats();
        assert_eq!(stats.batched_requests(), 3);
        assert_eq!(stats.batches(), 1, "pipelined burst split across batches");
        assert_eq!(stats.connections(), 1);
        handle.stop();
    }

    #[test]
    fn sharded_pipelined_burst_stays_one_batch() {
        // The ready-made-batch property must survive sharding: a burst
        // framed in one read on shard 1 joins that shard's gather before
        // its loop checks the idle trigger, so it is one handler call.
        let mut router = Router::new();
        router.route(
            "GET",
            "/batch/",
            BatchPolicy {
                max_batch: 64,
                gather_window: Duration::from_millis(200),
            },
            |requests: &[Request], out: &mut Vec<Response>| {
                let size = requests.len();
                out.extend(requests.iter().map(|r| {
                    let uid = r.query_param("uid").unwrap_or("?");
                    Response::ok("text/plain", format!("u{uid}:n{size}").into_bytes())
                }));
            },
        );
        let server = ReactorServer::bind_sharded("127.0.0.1:0", 2, 1).unwrap();
        let handle = server.serve(router);
        let mut stream = connections_on_every_shard(&handle, 1)
            .swap_remove(1)
            .swap_remove(0);
        let mut wire = Vec::new();
        for uid in 0..3 {
            wire.extend_from_slice(
                format!("GET /batch/?uid={uid} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes(),
            );
        }
        stream.write_all(&wire).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        let mut buf = Vec::new();
        for uid in 0..3 {
            let response = read_response(&mut stream, &mut buf);
            assert_eq!(response.status, 200);
            assert_eq!(response.body, format!("u{uid}:n3").into_bytes());
        }
        let stats = handle.stats();
        assert_eq!(stats.batched_requests(), 3);
        assert_eq!(
            stats.batches(),
            1,
            "sharded pipelined burst split across batches"
        );
        handle.stop();
    }

    #[test]
    fn half_closed_client_still_gets_a_response() {
        // shutdown(SHUT_WR) after sending is a legal client pattern; the
        // buffered request must still be served (with Connection: close,
        // since nothing further can arrive).
        use std::io::{Read as _, Write as _};
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
        assert!(response.contains("connection: close"), "got: {response}");
        assert!(response.ends_with("pong"), "got: {response}");
        handle.stop();
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read as _, Write as _};
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "got: {buf}");
        assert!(buf.contains("connection: close"), "got: {buf}");
        handle.stop();
    }

    #[test]
    fn conflicting_content_lengths_get_400() {
        // The request-smuggling-shaped framing bug: duplicate
        // Content-Length headers that disagree must be rejected, not
        // silently resolved to one of them (a pipelined attacker could
        // otherwise desync our framing from an upstream proxy's).
        use std::io::{Read as _, Write as _};
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"POST /ping HTTP/1.1\r\nhost: x\r\ncontent-length: 4\r\n\
                  content-length: 11\r\n\r\nGET /smuggled",
            )
            .unwrap();
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "got: {buf}");
        assert!(buf.contains("connection: close"), "got: {buf}");
        handle.stop();
    }

    #[test]
    fn panicking_handler_answers_500_and_the_reactor_survives() {
        // One bad handler must cost its request a 500 — never the
        // connection, the completion queue, or a pool worker.
        let mut router = ping_router();
        router.get("/boom", |_| -> Response { panic!("handler bug") });
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(router);

        let client = HttpClient::new(addr);
        assert_eq!(client.get("/boom").unwrap().status, 500);
        // Same connection keeps working (the panic was translated, not
        // propagated), and with a 1-worker pool a dead worker would hang
        // this request forever.
        assert_eq!(client.get("/ping").unwrap().status, 200);
        assert_eq!(client.get("/boom").unwrap().status, 500);
        assert_eq!(client.get("/ping").unwrap().status, 200);
        assert_eq!(handle.stats().connections(), 1);
        handle.stop();
    }

    #[test]
    fn wrong_method_and_missing_route_status_codes() {
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());
        let client = HttpClient::new(addr);
        assert_eq!(client.post("/ping", b"x").unwrap().status, 405);
        assert_eq!(client.get("/nope").unwrap().status, 404);
        // Errors do not end the connection; both rode one socket.
        assert_eq!(handle.stats().connections(), 1);
        handle.stop();
    }

    #[test]
    fn stop_terminates_event_loop() {
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());
        handle.stop();
        let client = HttpClient::new(addr);
        assert!(client.get("/ping").is_err());
    }

    #[test]
    fn sharded_stop_terminates_every_event_loop() {
        let server = ReactorServer::bind_sharded("127.0.0.1:0", 4, 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());
        // Serve at least one request so the loops are demonstrably up.
        let client = HttpClient::new(addr);
        assert_eq!(client.get("/ping").unwrap().status, 200);
        drop(client);
        let started = Instant::now();
        handle.stop();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "sharded shutdown hung"
        );
        let client = HttpClient::new(addr);
        assert!(client.get("/ping").is_err(), "a shard kept serving");
    }

    #[test]
    fn idle_connections_do_not_block_shutdown() {
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());
        // Open a connection and send nothing.
        let _idle = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        handle.stop();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown hung on an idle connection"
        );
    }

    #[test]
    fn large_response_survives_partial_writes() {
        // A body far beyond any socket buffer exercises the EPOLLOUT path.
        let big = vec![b'x'; 8 * 1024 * 1024];
        let expected = big.clone();
        let mut router = Router::new();
        router.get("/big", move |_| Response::ok("text/plain", big.clone()));
        let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(router);
        let client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));
        let response = client.get("/big").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, expected);
        // And the connection survives for a second round trip.
        let response = client.get("/big").unwrap();
        assert_eq!(response.body.len(), 8 * 1024 * 1024);
        assert_eq!(handle.stats().connections(), 1);
        handle.stop();
    }
}
