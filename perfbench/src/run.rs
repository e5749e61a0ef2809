//! One benchmark run: set-up, timed pass, checks, metrics.

use crate::adapter::{self, SchedStatsSnapshot, Server};
use crate::cpu::{self, Attribution, CpuSplit};
use crate::load::{self, Conn, Tally};
use crate::plan::{self, Burst, Config};
use crate::report::{self, percentile, ratio, us_per, Metric};
use crate::speed::Probe;
use crate::trace::{self, GenTrace, HandlerSpan, Recorder};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The determinism fingerprint of the (last) timed pass.
    pub fingerprint: String,
    /// Human-readable lines: fingerprint, saturation, failures.
    pub notes: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
}

/// One timed pass over a plan and what the server said about it.
///
/// `wall` and `cpu` are at reference host speed: the raw figures divided
/// by the pass's host-speed correction.
struct Pass {
    tally: Tally,
    wall: Duration,
    cpu: CpuSplit,
    raw_wall: Duration,
    raw_cpu: CpuSplit,
    slowness: f64,
    correction: f64,
    reactor: (u64, u64),
    sched: Option<SchedStatsSnapshot>,
    outstanding_leases: usize,
    cached_profiles: usize,
    origin: Instant,
    gen: GenTrace,
    handlers: Vec<HandlerSpan>,
}

impl Pass {
    fn ops(&self) -> f64 {
        self.tally.attempted as f64
    }
    fn ops_per_s(&self) -> f64 {
        ratio(self.ops(), self.wall.as_secs_f64())
    }
    fn server_cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu.server_s * 1e6, self.ops())
    }
    fn client_cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu.generator_s * 1e6, self.ops())
    }
    fn gen_busy_frac(&self) -> f64 {
        ratio(self.raw_cpu.generator_s, self.raw_wall.as_secs_f64())
    }
    fn server_busy_cores(&self) -> f64 {
        ratio(self.raw_cpu.server_s, self.raw_wall.as_secs_f64())
    }
}

/// Builds the population, warms the cache, starts the server and opens the
/// generator's connections.
fn set_up(config: &Config, recorder: Option<Arc<Recorder>>) -> io::Result<(Server, Vec<Conn>)> {
    let server = adapter::set_up(config, recorder)?;
    let conns = (0..config.connections)
        .map(|_| Conn::connect(server.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((server, conns))
}

/// Runs `plan` on a set-up server from the calling thread (the
/// generator), one segment at a time with a host-speed reading after each
/// segment, then stops the server. Times are divided by the median of
/// every reading `probe` holds by then (set-up readings included).
fn timed_pass(
    config: &Config,
    plan: &[Burst],
    server: Server,
    mut conns: Vec<Conn>,
    recorder: Option<&Recorder>,
    probe: &mut Probe,
) -> io::Result<Pass> {
    let attribution = Attribution::new(vec![cpu::current_tid()?]);
    let mut gen = GenTrace::default();
    let mut tally = Tally::default();
    let mut raw_wall = Duration::ZERO;
    let mut raw_cpu = CpuSplit::default();
    let origin = Instant::now();
    for (index, segment) in plan.chunks(config.segment_bursts.max(1)).enumerate() {
        if tally.broken {
            let unsent = plan.chunks(config.segment_bursts.max(1)).skip(index);
            tally.fail_unsent(unsent.flatten().map(|b| b.uids.len() as u64).sum());
            break;
        }
        let before = attribution.sample()?;
        let start = Instant::now();
        let part = load::drive(config, segment, &mut conns, recorder.map(|_| &mut gen));
        raw_wall += start.elapsed();
        raw_cpu = raw_cpu + (attribution.sample()? - before);
        tally.merge(part);
        probe.read();
    }
    tally.bytes_out = conns.iter().map(|c| c.bytes_out).sum();
    tally.bytes_in = conns.iter().map(|c| c.bytes_in).sum();
    let (slowness, correction) = (probe.median(), probe.correction());
    let pass = Pass {
        tally,
        wall: raw_wall.div_f64(correction),
        cpu: raw_cpu.scaled(1.0 / correction),
        raw_wall,
        raw_cpu,
        slowness,
        correction,
        reactor: server.reactor_counts(),
        sched: server.sched_stats(),
        outstanding_leases: server.outstanding_leases(),
        cached_profiles: server.cached_profiles(),
        origin,
        gen,
        handlers: recorder.map(Recorder::take).unwrap_or_default(),
    };
    drop(conns);
    server.stop();
    Ok(pass)
}

fn check_notes(config: &Config, pass: &Pass, notes: &mut Vec<String>) {
    notes.push(format!(
        "fingerprint: {} {}",
        config.workload.name(),
        pass.tally.fingerprint()
    ));
    let (line, flag) = report::saturation(
        config.workload,
        pass.gen_busy_frac(),
        pass.server_busy_cores(),
        plan::nproc(),
    );
    notes.push(line);
    if flag {
        notes.push(format!(
            "FLAG: the generator saturated on {}; server figures are a lower bound",
            config.workload.name()
        ));
    }
    if pass.tally.conflicts > 0 {
        notes.push(format!("409 completions: {}", pass.tally.conflicts));
    }
    notes.extend(pass.tally.errors.iter().map(|e| format!("failure: {e}")));
}

/// The untraced run: `config.setups` set-ups (the last one is used), one
/// timed pass, and the end-to-end metrics.
///
/// # Errors
///
/// Propagates set-up and procfs errors.
pub fn untraced(config: &Config) -> io::Result<Outcome> {
    let plan = plan::plan(config);
    let mut probe = Probe::new();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..config.setups.max(1) {
        drop(ready.take());
        probe.read();
        let start = Instant::now();
        ready = Some(set_up(config, None)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let (server, conns) = ready.expect("at least one set-up");
    let pass = timed_pass(config, &plan, server, conns, None, &mut probe)?;
    let tally = &pass.tally;
    let metrics = vec![
        Metric::new("setup_s", "s", report::median(&setups) / pass.correction),
        Metric::new("ops_per_s", "1/s", pass.ops_per_s()),
        Metric::new("server_cpu_us_per_op", "us", pass.server_cpu_us_per_op()),
        Metric::new("client_cpu_us_per_op", "us", pass.client_cpu_us_per_op()),
        Metric::new(
            "kb_per_op",
            "kB",
            ratio(
                (tally.bytes_out + tally.bytes_in) as f64 / 1000.0,
                pass.ops(),
            ),
        ),
        Metric::new("rss_peak_mb", "MB", cpu::peak_rss_mb()?),
        Metric::new(
            "ok_frac",
            "1",
            1.0 - ratio(tally.failed as f64, tally.attempted as f64),
        ),
    ];
    let raw_secs = pass.raw_wall.as_secs_f64();
    let mut notes = vec![
        format!(
            "fail_frac: {} ({} of {} operations)",
            ratio(tally.failed as f64, tally.attempted as f64),
            tally.failed,
            tally.attempted
        ),
        format!(
            "host slowness {:.3} (1 = reference speed; median of {} readings from {:.3} \
             to {:.3}; times divided by {:.3}); unnormalized set-ups {:.3?} s, ops_per_s {:.1} \
             server_cpu_us_per_op {:.1} client_cpu_us_per_op {:.1}",
            pass.slowness,
            probe.readings().len(),
            probe
                .readings()
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
            probe.readings().iter().copied().fold(0.0, f64::max),
            pass.correction,
            setups,
            ratio(pass.ops(), raw_secs),
            ratio(pass.raw_cpu.server_s * 1e6, pass.ops()),
            ratio(pass.raw_cpu.generator_s * 1e6, pass.ops()),
        ),
    ];
    check_notes(config, &pass, &mut notes);
    Ok(Outcome {
        fingerprint: tally.fingerprint(),
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
        metrics,
    })
}

/// The traced run: an untraced and a traced pass of half the operations
/// each, on fresh servers with identical plans; the traced router's bodies
/// checked against the program's; spans written to `spans_path`.
///
/// # Errors
///
/// Propagates set-up, procfs and file-system errors.
pub fn traced(config: &Config, spans_path: &Path) -> io::Result<Outcome> {
    let half = config.with_ops(config.ops / 2);
    let plan = plan::plan(&half);
    let mut probe = Probe::new();
    let (server, conns) = set_up(&half, None)?;
    let plain = timed_pass(&half, &plan, server, conns, None, &mut probe)?;
    let recorder = Arc::new(Recorder::default());
    let (server, conns) = set_up(&half, Some(Arc::clone(&recorder)))?;
    let mut traced_probe = Probe::new();
    let pass = timed_pass(
        &half,
        &plan,
        server,
        conns,
        Some(&recorder),
        &mut traced_probe,
    )?;

    let mut notes = Vec::new();
    check_notes(&half, &plain, &mut notes);
    check_notes(&half, &pass, &mut notes);
    let identity = identity_check(config);
    match &identity {
        Ok(bodies) => notes.push(format!(
            "traced router: {bodies} bodies byte-identical to the program's router"
        )),
        Err(why) => notes.push(format!("failure: traced router diverged: {why}")),
    }
    trace::write_spans(spans_path, pass.origin, &pass.gen, &pass.handlers)?;
    notes.push(format!("spans written to {}", spans_path.display()));

    let failed = plain.tally.failed + pass.tally.failed;
    Ok(Outcome {
        fingerprint: pass.tally.fingerprint(),
        correct: failed == 0 && identity.is_ok(),
        attempted: plain.tally.attempted + pass.tally.attempted,
        failed,
        notes,
        metrics: layer_metrics(&plain, &pass),
    })
}

/// Replays a small plan of the workload over one connection against the
/// program's router and against the traced router, each on a fresh
/// population from the same seed, and compares every response.
///
/// Returns the number of bodies compared.
///
/// # Errors
///
/// Describes the first difference or set-up failure.
pub fn identity_check(config: &Config) -> Result<usize, String> {
    let small = Config {
        connections: 1,
        ..Config::small(config.workload, config.seed)
    };
    let plan = plan::plan(&small);
    let replay = |recorder: Option<Arc<Recorder>>| -> Result<Vec<(u16, Vec<u8>)>, String> {
        let (server, mut conns) = set_up(&small, recorder).map_err(|e| e.to_string())?;
        let (tally, replies) = load::drive_keeping_replies(&small, &plan, &mut conns);
        drop(conns);
        server.stop();
        if tally.failed > 0 {
            return Err(format!("replay failed: {:?}", tally.errors));
        }
        Ok(replies)
    };
    let program = replay(None)?;
    let traced = replay(Some(Arc::new(Recorder::default())))?;
    if program.len() != traced.len() {
        return Err(format!("{} vs {} responses", program.len(), traced.len()));
    }
    match program.iter().zip(&traced).position(|(a, b)| a != b) {
        Some(at) => Err(format!("response {at} differs")),
        None => Ok(program.len()),
    }
}

/// The per-layer metrics of a traced run; `plain` is the untraced pass of
/// the same plan.
///
/// Span times are divided by the traced pass's host-speed correction, so
/// every time the benchmark prints is at reference host speed.
fn layer_metrics(plain: &Pass, pass: &Pass) -> Vec<Metric> {
    let mut metrics = span_metrics(pass);
    for metric in &mut metrics {
        if metric.unit == "us" {
            metric.value /= pass.correction;
        }
    }
    metrics.extend(overhead_metrics(plain, pass));
    metrics
}

/// Per-layer metrics from the traced pass's spans and counters, at the
/// host's speed during the pass.
fn span_metrics(pass: &Pass) -> Vec<Metric> {
    let ops = pass.ops();
    let per_op = |total: Duration| us_per(total, pass.tally.attempted);
    let mut metrics = Vec::new();

    // http: per-request queue, return and round-trip times.
    let written: HashMap<u64, Instant> = pass.gen.bursts.iter().map(|&(b, w, _)| (b, w)).collect();
    let mut served: HashMap<u64, (Instant, Instant)> = HashMap::new();
    for handler in &pass.handlers {
        for &key in &handler.requests {
            served.insert(key, (handler.start, handler.end));
        }
    }
    let (mut queue, mut back, mut rtt) = (Vec::new(), Vec::new(), Vec::new());
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for &(key, parsed) in &pass.gen.parsed {
        let Some(&sent) = written.get(&(key >> 8)) else {
            continue;
        };
        rtt.push(us(parsed.saturating_duration_since(sent)));
        if let Some(&(start, end)) = served.get(&key) {
            queue.push(us(start.saturating_duration_since(sent)));
            back.push(us(parsed.saturating_duration_since(end)));
        }
    }
    for (name, samples) in [
        ("queue", &mut queue),
        ("return", &mut back),
        ("rtt", &mut rtt),
    ] {
        samples.sort_by(f64::total_cmp);
        metrics.push(Metric::new(
            format!("http.{name}_us_p50"),
            "us",
            percentile(samples, 50.0),
        ));
        metrics.push(Metric::new(
            format!("http.{name}_us_p99"),
            "us",
            percentile(samples, 99.0),
        ));
    }
    let handler_calls = pass.handlers.len() as f64;
    let batched: usize = pass.handlers.iter().map(|h| h.requests.len()).sum();
    metrics.push(Metric::new(
        "http.batch_size_mean",
        "count",
        ratio(batched as f64, handler_calls),
    ));
    metrics.push(Metric::new(
        "http.handler_calls_per_op",
        "count",
        ratio(handler_calls, ops),
    ));
    metrics.push(Metric::new("http.requests", "count", pass.reactor.0 as f64));
    metrics.push(Metric::new(
        "http.connections",
        "count",
        pass.reactor.1 as f64,
    ));

    // Server layers: time and items per traced call.
    let mut calls: HashMap<&str, (Duration, u64)> = HashMap::new();
    for child in pass.handlers.iter().flat_map(|h| &h.children) {
        let entry = calls.entry(child.name).or_default();
        entry.0 += child.end - child.start;
        entry.1 += child.items;
    }
    let call = |name: &str| calls.get(name).copied().unwrap_or_default();
    let per_item = |name: &str| {
        let (total, items) = call(name);
        us_per(total, items)
    };
    let jobs = call("sampler.build_jobs").1 + call("sched.issue_jobs").1;
    let candidates: u64 = pass.handlers.iter().map(|h| h.candidates).sum();
    let body_bytes: u64 = pass.handlers.iter().map(|h| h.body_bytes).sum();
    metrics.push(Metric::new(
        "sampler.build_jobs_us_per_job",
        "us",
        per_item("sampler.build_jobs"),
    ));
    metrics.push(Metric::new(
        "sampler.candidates_per_job",
        "count",
        ratio(candidates as f64, jobs as f64),
    ));
    metrics.push(Metric::new(
        "encoder.encode_us_per_job",
        "us",
        per_item("encoder.encode_jobs"),
    ));
    metrics.push(Metric::new(
        "encoder.body_kb_per_job",
        "kB",
        ratio(
            body_bytes as f64 / 1000.0,
            call("encoder.encode_jobs").1 as f64,
        ),
    ));
    metrics.push(Metric::new(
        "encoder.cached_profiles",
        "count",
        pass.cached_profiles as f64,
    ));
    metrics.push(Metric::new(
        "tables.record_many_us_per_vote",
        "us",
        per_item("tables.record_many"),
    ));
    metrics.push(Metric::new(
        "sched.issue_us_per_job",
        "us",
        per_item("sched.issue_jobs"),
    ));
    metrics.push(Metric::new(
        "sched.complete_us_per_update",
        "us",
        per_item("sched.complete_updates"),
    ));
    let sched = pass.sched.unwrap_or_default();
    metrics.push(Metric::new(
        "sched.applied_ratio",
        "1",
        ratio(sched.completed as f64, sched.issued as f64),
    ));
    for (reason, count) in [
        ("not_leased", sched.rejected_not_leased),
        ("stale_epoch", sched.rejected_stale_epoch),
        ("duplicate", sched.rejected_duplicate),
        ("wrong_user", sched.rejected_wrong_user),
        ("nan_similarity", sched.rejected_nan_similarity),
        (
            "out_of_range_similarity",
            sched.rejected_out_of_range_similarity,
        ),
        ("unknown_neighbor", sched.rejected_unknown_neighbor),
    ] {
        metrics.push(Metric::new(
            format!("sched.rejected_per_kop.{reason}"),
            "count/kop",
            ratio(count as f64 * 1000.0, ops),
        ));
    }
    metrics.push(Metric::new(
        "sched.outstanding_leases",
        "count",
        pass.outstanding_leases as f64,
    ));

    // Browser side, run by the generator.
    let stages = pass.tally.stages;
    metrics.push(Metric::new(
        "wire.gunzip_us_per_job",
        "us",
        us_per(stages.gunzip, stages.jobs),
    ));
    metrics.push(Metric::new(
        "wire.job_decode_us_per_job",
        "us",
        us_per(stages.decode, stages.jobs),
    ));
    metrics.push(Metric::new(
        "wire.update_encode_us_per_op",
        "us",
        per_op(stages.encode),
    ));
    metrics.push(Metric::new(
        "client.widget_us_per_job",
        "us",
        us_per(stages.widget, stages.jobs),
    ));

    // Self time per operation: a span's duration minus what its children
    // cover. A burst's children are the handler calls that served it and
    // the browser stages the generator ran on its responses.
    let mut burst_children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
    for handler in &pass.handlers {
        let mut bursts: Vec<u64> = handler.requests.iter().map(|k| k >> 8).collect();
        bursts.dedup();
        for burst in bursts {
            burst_children
                .entry(burst)
                .or_default()
                .push((handler.start, handler.end));
        }
    }
    for stage in &pass.gen.stages {
        burst_children
            .entry(stage.burst)
            .or_default()
            .push((stage.start, stage.end));
    }
    let mut http_self = Duration::ZERO;
    for &(burst, sent, done) in &pass.gen.bursts {
        let covered = burst_children
            .get_mut(&burst)
            .map_or(Duration::ZERO, |spans| covered_within(spans, sent, done));
        http_self += done.saturating_duration_since(sent).saturating_sub(covered);
    }
    let mut api_self = Duration::ZERO;
    let mut layer_self: HashMap<&str, Duration> = HashMap::new();
    for handler in &pass.handlers {
        let mut children = Duration::ZERO;
        for child in &handler.children {
            let layer = child.name.split('.').next().unwrap_or(child.name);
            *layer_self.entry(layer).or_default() += child.end - child.start;
            children += child.end - child.start;
        }
        api_self += (handler.end - handler.start).saturating_sub(children);
    }
    let server_layers: Duration = layer_self.values().sum();
    *layer_self.entry("wire").or_default() += stages.gunzip + stages.decode + stages.encode;
    *layer_self.entry("client").or_default() += stages.widget;
    metrics.push(Metric::new("self.http_us_per_op", "us", per_op(http_self)));
    metrics.push(Metric::new("self.api_us_per_op", "us", per_op(api_self)));
    for layer in ["sampler", "encoder", "tables", "sched", "wire", "client"] {
        let total = layer_self.get(layer).copied().unwrap_or_default();
        metrics.push(Metric::new(
            format!("self.{layer}_us_per_op"),
            "us",
            per_op(total),
        ));
    }

    // How much of the server's CPU the spans explain.
    let handler_total: Duration = pass.handlers.iter().map(|h| h.end - h.start).sum();
    metrics.push(Metric::new(
        "trace.server_span_share",
        "1",
        ratio(server_layers.as_secs_f64(), pass.raw_cpu.server_s),
    ));
    metrics.push(Metric::new(
        "trace.handler_span_share",
        "1",
        ratio(handler_total.as_secs_f64(), pass.raw_cpu.server_s),
    ));
    metrics
}

/// Which side was busy (untraced pass), the host's slowness, and what
/// tracing cost: untraced against traced pass at reference host speed.
fn overhead_metrics(plain: &Pass, pass: &Pass) -> Vec<Metric> {
    vec![
        Metric::new("bench.gen_busy_frac", "1", plain.gen_busy_frac()),
        Metric::new(
            "bench.server_busy_cores",
            "cores",
            plain.server_busy_cores(),
        ),
        Metric::new("bench.host_slowness", "1", pass.slowness),
        Metric::new("trace.untraced_ops_per_s", "1/s", plain.ops_per_s()),
        Metric::new("trace.traced_ops_per_s", "1/s", pass.ops_per_s()),
        Metric::new(
            "trace.untraced_server_cpu_us_per_op",
            "us",
            plain.server_cpu_us_per_op(),
        ),
        Metric::new(
            "trace.traced_server_cpu_us_per_op",
            "us",
            pass.server_cpu_us_per_op(),
        ),
        Metric::new(
            "trace.overhead_ops_per_s_frac",
            "1",
            1.0 - ratio(pass.ops_per_s(), plain.ops_per_s()),
        ),
        Metric::new(
            "trace.overhead_server_cpu_frac",
            "1",
            ratio(pass.server_cpu_us_per_op(), plain.server_cpu_us_per_op()) - 1.0,
        ),
    ]
}

/// Length of the union of `spans`, clipped to `[from, to]`.
fn covered_within(spans: &mut [(Instant, Instant)], from: Instant, to: Instant) -> Duration {
    spans.sort_unstable();
    let mut covered = Duration::ZERO;
    let mut reach = from;
    for &(start, end) in spans.iter() {
        let start = start.max(reach);
        let end = end.min(to);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}
