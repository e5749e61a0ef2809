//! The closed-loop load generator: one thread, keep-alive connections,
//! fixed-depth pipelined bursts.
//!
//! Each burst is written with one `write` and the next burst on a
//! connection is sent only once every response of the previous one has
//! been parsed. The reactor frames a pipelined burst as one atomic gather
//! push, so the plan, not timing, decides how requests are batched.

use crate::adapter::{Browser, OpenedJob};
use crate::plan::{self, Burst, Config, Kind, Workload};
use crate::trace::{GenTrace, StageSpan};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Expected body of every `/rate/` response: each vote names a new item.
const RATE_CHANGED: &[u8] = b"{\"ok\":true,\"changed\":true}";

/// One parsed HTTP response.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive client connection with a rolling read buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes written so far.
    pub bytes_out: u64,
    /// Bytes read so far.
    pub bytes_in: u64,
}

impl Conn {
    /// Connects to `addr` with Nagle off.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: vec![0; 1 << 18],
            start: 0,
            end: 0,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Writes a whole burst.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.bytes_out += bytes.len() as u64;
        Ok(())
    }

    /// Reads the next response.
    ///
    /// # Errors
    ///
    /// Fails on a read error, an early EOF or a malformed response.
    pub fn recv(&mut self) -> io::Result<Reply> {
        loop {
            if let Some((status, head, body_len)) = parse_head(&self.buf[self.start..self.end])? {
                if self.end - self.start >= head + body_len {
                    let body_start = self.start + head;
                    let body = self.buf[body_start..body_start + body_len].to_vec();
                    self.start = body_start + body_len;
                    return Ok(Reply { status, body });
                }
                self.reserve(head + body_len);
            } else {
                self.reserve(self.end - self.start + 4096);
            }
            let read = self.stream.read(&mut self.buf[self.end..])?;
            if read == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.end += read;
            self.bytes_in += read as u64;
        }
    }

    /// Makes room for `need` bytes from `start`, compacting first.
    fn reserve(&mut self, need: usize) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < need.max(self.end + 4096) {
            self.buf
                .resize(need.max(self.end + 4096).next_power_of_two(), 0);
        }
    }
}

/// Parses a response head: `(status, head length, content length)`, or
/// `None` when the head is not complete yet.
fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-utf-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .ok_or_else(|| bad("response without content-length"))?;
    Ok(Some((status, head_end + 4, length)))
}

/// Browser-stage time summed over the bodies the generator opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Bodies opened.
    pub jobs: u64,
    /// `gzip::decompress`.
    pub gunzip: Duration,
    /// JSON parse and `PersonalizationJob::from_json`.
    pub decode: Duration,
    /// `Widget::run_job`.
    pub widget: Duration,
    /// `KnnUpdate::encode`.
    pub encode: Duration,
}

/// What a run did and whether it went right.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Responses by status.
    pub statuses: BTreeMap<u16, u64>,
    /// Bytes written to the server.
    pub bytes_out: u64,
    /// Bytes read from the server.
    pub bytes_in: u64,
    /// Candidates over every decoded job.
    pub candidates: u64,
    /// `POST /neighbors/` completions rejected with a 409.
    pub conflicts: u64,
    /// Browser-stage time on decoded bodies.
    pub stages: Stages,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// Whether a connection broke, failing every later operation.
    pub broken: bool,
}

impl Tally {
    /// Adds the counts of a later segment of the same run.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (status, count) in other.statuses {
            *self.statuses.entry(status).or_default() += count;
        }
        self.candidates += other.candidates;
        self.conflicts += other.conflicts;
        self.stages.jobs += other.stages.jobs;
        self.stages.gunzip += other.stages.gunzip;
        self.stages.decode += other.stages.decode;
        self.stages.widget += other.stages.widget;
        self.stages.encode += other.stages.encode;
        for error in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(error);
            }
        }
        self.broken |= other.broken;
    }

    /// Counts `ops` operations that were never attempted as failed.
    pub fn fail_unsent(&mut self, ops: u64) {
        self.attempted += ops;
        self.failed += ops;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// The determinism fingerprint: responses by status, total bytes and
    /// the candidate sum over decoded jobs, plus their FNV-1a hash.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let statuses: Vec<String> = self
            .statuses
            .iter()
            .map(|(status, count)| format!("{status}:{count}"))
            .collect();
        let text = format!(
            "statuses={} bytes={} candidates={}",
            statuses.join(","),
            self.bytes_out + self.bytes_in,
            self.candidates
        );
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        format!("{hash:016x} {text}")
    }
}

/// Drives `plan` over already-open connections, checking every response.
/// Records generator-side spans into `trace` if given. Byte counts stay
/// on the connections.
pub fn drive(
    config: &Config,
    plan: &[Burst],
    conns: &mut [Conn],
    trace: Option<&mut GenTrace>,
) -> Tally {
    run(config, plan, conns, trace, None)
}

/// [`drive`] that also returns every response's status and body, in the
/// order they arrived.
pub fn drive_keeping_replies(
    config: &Config,
    plan: &[Burst],
    conns: &mut [Conn],
) -> (Tally, Vec<(u16, Vec<u8>)>) {
    let mut kept = Vec::new();
    let tally = run(config, plan, conns, None, Some(&mut kept));
    (tally, kept)
}

fn run(
    config: &Config,
    plan: &[Burst],
    conns: &mut [Conn],
    trace: Option<&mut GenTrace>,
    kept: Option<&mut Vec<(u16, Vec<u8>)>>,
) -> Tally {
    let mut gen = Generator {
        config,
        browser: Browser::default(),
        tally: Tally::default(),
        trace,
        kept,
    };
    let outcome = if config.workload == Workload::BrowserLoop {
        gen.browser_loop(plan, &mut conns[0])
    } else {
        gen.pipelined(plan, conns)
    };
    let mut tally = gen.tally;
    tally.attempted = plan.iter().map(|b| b.uids.len() as u64).sum();
    if let Err((done, err)) = outcome {
        // The connection is gone: every operation not yet answered fails.
        tally.broken = true;
        for _ in done..tally.attempted {
            tally.fail(format!("transport: {err}"));
        }
    }
    tally
}

struct Generator<'a> {
    config: &'a Config,
    browser: Browser,
    tally: Tally,
    trace: Option<&'a mut GenTrace>,
    kept: Option<&'a mut Vec<(u16, Vec<u8>)>>,
}

/// `(operations answered so far, the transport error)`.
type Abort = (u64, io::Error);

impl Generator<'_> {
    /// `online_read` and `rate_mix`: up to one burst in flight per
    /// connection; burst `b` goes to connection `b % connections`.
    fn pipelined(&mut self, plan: &[Burst], conns: &mut [Conn]) -> Result<(), Abort> {
        let mut done = 0u64;
        let mut written = vec![Instant::now(); plan.len()];
        for (b, burst) in plan.iter().enumerate().take(conns.len()) {
            written[b] = Instant::now();
            conns[burst.conn]
                .send(&burst.bytes)
                .map_err(|e| (done, e))?;
        }
        for (b, burst) in plan.iter().enumerate() {
            for (index, &uid) in burst.uids.iter().enumerate() {
                let reply = self
                    .receive(&mut conns[burst.conn], burst.id, index)
                    .map_err(|e| (done, e))?;
                done += 1;
                match burst.kind {
                    Kind::Rate if reply.status != 200 || reply.body != RATE_CHANGED => {
                        self.tally.fail(format!(
                            "/rate/ uid {uid}: {} {}",
                            reply.status,
                            String::from_utf8_lossy(&reply.body)
                        ));
                    }
                    Kind::Rate => {}
                    Kind::Online if reply.status != 200 => {
                        self.tally
                            .fail(format!("/online/ uid {uid}: status {}", reply.status));
                    }
                    Kind::Online if burst.sampled[index] => {
                        if let Err(why) = self.open(burst.id, uid, &reply.body) {
                            self.tally.fail(why);
                        }
                    }
                    Kind::Online => {}
                }
            }
            self.burst_done(burst.id, written[b]);
            if let Some(next) = plan.get(b + conns.len()) {
                written[b + conns.len()] = Instant::now();
                conns[next.conn].send(&next.bytes).map_err(|e| (done, e))?;
            }
        }
        Ok(())
    }

    /// `browser_loop`: fetch burst, browser work on every body, post burst.
    fn browser_loop(&mut self, plan: &[Burst], conn: &mut Conn) -> Result<(), Abort> {
        let mut done = 0u64;
        for burst in plan {
            let written = Instant::now();
            conn.send(&burst.bytes).map_err(|e| (done, e))?;
            let mut updates = Vec::with_capacity(burst.uids.len());
            for (index, &uid) in burst.uids.iter().enumerate() {
                let reply = self.receive(conn, burst.id, index).map_err(|e| (done, e))?;
                if reply.status != 200 {
                    self.tally
                        .fail(format!("/online/ uid {uid}: status {}", reply.status));
                    done += 1;
                    continue;
                }
                match self.open(burst.id, uid, &reply.body) {
                    Ok(job) => updates.push(job.update),
                    Err(why) => {
                        self.tally.fail(why);
                        done += 1;
                    }
                }
            }
            self.burst_done(burst.id, written);

            let post_id = burst.id + 1;
            let mut bytes = Vec::new();
            for (index, update) in updates.iter().enumerate() {
                plan::push_request(&mut bytes, "POST", "/neighbors/", post_id, index, update);
            }
            let written = Instant::now();
            conn.send(&bytes).map_err(|e| (done, e))?;
            for index in 0..updates.len() {
                let reply = self.receive(conn, post_id, index).map_err(|e| (done, e))?;
                done += 1;
                match reply.status {
                    200 => {}
                    409 => self.tally.conflicts += 1,
                    status => self.tally.fail(format!(
                        "POST /neighbors/: {status} {}",
                        String::from_utf8_lossy(&reply.body)
                    )),
                }
            }
            self.burst_done(post_id, written);
        }
        Ok(())
    }

    /// Reads one response, counts its status and records when it was
    /// parsed.
    fn receive(&mut self, conn: &mut Conn, burst: u64, index: usize) -> io::Result<Reply> {
        let reply = conn.recv()?;
        if let Some(trace) = self.trace.as_deref_mut() {
            trace
                .parsed
                .push((plan::request_key(burst, index), Instant::now()));
        }
        *self.tally.statuses.entry(reply.status).or_default() += 1;
        if let Some(kept) = self.kept.as_mut() {
            kept.push((reply.status, reply.body.clone()));
        }
        Ok(reply)
    }

    /// Decodes a job body, runs the widget on it and checks that it is a
    /// job for the requested uid: unleased on the plain router, carrying a
    /// live lease on the scheduled one.
    fn open(&mut self, burst: u64, uid: u32, body: &[u8]) -> Result<OpenedJob, String> {
        let (job, [t0, t1, t2, t3, t4]) = self
            .browser
            .open_job(body)
            .map_err(|why| format!("uid {uid}: {why}"))?;
        let stages = &mut self.tally.stages;
        stages.jobs += 1;
        stages.gunzip += t1 - t0;
        stages.decode += t2 - t1;
        stages.widget += t3 - t2;
        stages.encode += t4 - t3;
        self.tally.candidates += job.candidates as u64;
        if let Some(trace) = self.trace.as_deref_mut() {
            for (name, start, end) in [
                ("wire.gunzip", t0, t1),
                ("wire.job_decode", t1, t2),
                ("client.widget", t2, t3),
                ("wire.update_encode", t3, t4),
            ] {
                trace.stages.push(StageSpan {
                    name,
                    burst,
                    start,
                    end,
                });
            }
        }
        let leased = job.lease > 0 && job.epoch > 0;
        let valid = if self.config.workload.scheduled() {
            leased && job.uid < self.config.users
        } else {
            !leased && job.uid == uid
        };
        if valid {
            Ok(job)
        } else {
            Err(format!(
                "uid {uid}: got a job for uid {} lease {} epoch {}",
                job.uid, job.lease, job.epoch
            ))
        }
    }

    fn burst_done(&mut self, burst: u64, written: Instant) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.bursts.push((burst, written, Instant::now()));
        }
    }
}
