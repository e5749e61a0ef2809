//! Metric values, summary statistics and the result line.

use crate::plan::Workload;
use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, e.g. `1/s`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) become 0.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Microseconds of `total` per item, or 0 for no items.
#[must_use]
pub fn us_per(total: Duration, items: u64) -> f64 {
    ratio(total.as_secs_f64() * 1e6, items as f64)
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of already sorted values (0 when
/// empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Which side of the box a run saturated.
///
/// The generator is saturated when its thread is busy ≥ 90% of the wall
/// time; the server is, when generator and server together keep ≥ 90% of
/// the cores busy. Otherwise the closed loop was bound by round trips.
/// Returns the line to print and whether it must be flagged: a
/// generator-bound `online_read` or `rate_mix` measures the generator, not
/// the server.
#[must_use]
pub fn saturation(
    workload: Workload,
    gen_busy_frac: f64,
    server_busy_cores: f64,
    cores: usize,
) -> (String, bool) {
    let facts = format!(
        "generator busy {:.0}% of one core, server busy {server_busy_cores:.2} of {cores} cores",
        gen_busy_frac * 100.0
    );
    if gen_busy_frac >= 0.9 {
        let flag = workload != Workload::BrowserLoop;
        (format!("saturated: generator core ({facts})"), flag)
    } else if gen_busy_frac + server_busy_cores >= 0.9 * cores as f64 {
        (
            format!("saturated: server, all cores busy ({facts})"),
            false,
        )
    } else {
        (
            format!("saturated: neither, round-trip bound ({facts})"),
            false,
        )
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric with its unit.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    line.push_str("}}");
    line
}

/// Formats a finite f64 as a JSON number with every digit Rust keeps.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}
