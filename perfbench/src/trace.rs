//! Spans of the traced run, kept in memory and written out when it ends.
//!
//! Two sides record spans. Server-side, the traced router's handlers record
//! one [`HandlerSpan`] per handler call with a child span around each call
//! into a layer (`sampler.build_jobs`, `encoder.encode_jobs`, …).
//! Generator-side, [`GenTrace`] records when each burst was written, when
//! each response was parsed, and a span around each browser stage. All
//! timestamps are `Instant`s of one process, so the two sides compare
//! directly.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A call into one layer, inside a handler span.
#[derive(Debug, Clone)]
pub struct ChildSpan {
    /// Layer and function, e.g. `encoder.encode_jobs`.
    pub name: &'static str,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
    /// Work items the call handled (jobs, votes or updates).
    pub items: u64,
}

/// One handler call on a worker thread.
#[derive(Debug, Clone)]
pub struct HandlerSpan {
    /// Handler start.
    pub start: Instant,
    /// Handler end.
    pub end: Instant,
    /// Request keys ([`crate::plan::request_key`]) of the batch, in order.
    pub requests: Vec<u64>,
    /// Layer calls made by the handler, in order.
    pub children: Vec<ChildSpan>,
    /// Candidates over every job the handler built.
    pub candidates: u64,
    /// Body bytes over every job the handler encoded.
    pub body_bytes: u64,
}

/// Server-side span sink shared by the traced router's handlers.
#[derive(Debug, Default)]
pub struct Recorder {
    handlers: Mutex<Vec<HandlerSpan>>,
}

impl Recorder {
    /// Stores one handler span.
    pub fn push(&self, span: HandlerSpan) {
        self.handlers
            .lock()
            .expect("a handler panicked while recording")
            .push(span);
    }

    /// Takes every span recorded so far.
    #[must_use]
    pub fn take(&self) -> Vec<HandlerSpan> {
        std::mem::take(
            &mut *self
                .handlers
                .lock()
                .expect("a handler panicked while recording"),
        )
    }
}

/// One browser stage run by the generator on a response body.
#[derive(Debug, Clone)]
pub struct StageSpan {
    /// Stage name, e.g. `client.widget`.
    pub name: &'static str,
    /// The burst whose response the stage worked on.
    pub burst: u64,
    /// Stage start.
    pub start: Instant,
    /// Stage end.
    pub end: Instant,
}

/// Generator-side spans.
#[derive(Debug, Default)]
pub struct GenTrace {
    /// `(burst id, written, last response parsed)`.
    pub bursts: Vec<(u64, Instant, Instant)>,
    /// `(request key, response parsed)`.
    pub parsed: Vec<(u64, Instant)>,
    /// Browser stages.
    pub stages: Vec<StageSpan>,
}

/// Writes every span as one JSON object per line: id, parent id, name,
/// burst id, and start/end in µs since `origin`.
///
/// A handler's parent is the burst of its first request; a layer call's
/// parent is its handler; a browser stage's parent is its burst.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(
    path: &Path,
    origin: Instant,
    gen: &GenTrace,
    handlers: &[HandlerSpan],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    let mut burst_span = std::collections::HashMap::new();
    let mut next_id = 0u64;
    let mut line = |out: &mut io::BufWriter<std::fs::File>,
                    parent: Option<u64>,
                    name: &str,
                    burst: u64,
                    start: Instant,
                    end: Instant|
     -> io::Result<u64> {
        let id = next_id;
        next_id += 1;
        let parent = parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"burst\":{burst},\
             \"start_us\":{:.3},\"end_us\":{:.3}}}",
            us(start),
            us(end)
        )?;
        Ok(id)
    };
    for &(burst, written, done) in &gen.bursts {
        let id = line(&mut out, None, "http.burst", burst, written, done)?;
        burst_span.insert(burst, id);
    }
    for handler in handlers {
        let burst = handler.requests.first().map_or(u64::MAX, |key| key >> 8);
        let parent = burst_span.get(&burst).copied();
        let id = line(
            &mut out,
            parent,
            "http.handler",
            burst,
            handler.start,
            handler.end,
        )?;
        for child in &handler.children {
            line(
                &mut out,
                Some(id),
                child.name,
                burst,
                child.start,
                child.end,
            )?;
        }
    }
    for stage in &gen.stages {
        let parent = burst_span.get(&stage.burst).copied();
        line(
            &mut out,
            parent,
            stage.name,
            stage.burst,
            stage.start,
            stage.end,
        )?;
    }
    out.flush()
}
