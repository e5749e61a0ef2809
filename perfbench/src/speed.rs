//! Host-speed probe: a fixed reference workload timed between segments of
//! a run, so time metrics can be expressed at a fixed reference speed.
//!
//! The 2-vCPU VM this benchmark was built on has no hardware counters and
//! its CPU speed drifts with other tenants' load: the program's own
//! kernels (gunzip, JSON decode, widget, encoder) spanned 1.4–2.1× ranges
//! over a few minutes, in phases lasting tens of seconds, so longer runs
//! do not average the drift out. The probe times two small kernels owned
//! by this benchmark, never by the program under test, so a change to the
//! program cannot move the probe:
//!
//! * `sets` — hash-set builds and probes over 100-item id lists (the
//!   widget's similarity work),
//! * `parse` — decimal-number scanning over text (JSON decoding).
//!
//! A reading is the geometric mean of each kernel's time over its nominal
//! time. Of the kernels tried (also a dependent multiply chain over an L2
//! table, and 2 KB block copies out of an 8 MB buffer), these two tracked
//! the program best: over a 150-second trace in which the program kernels'
//! third-to-first quartile ratio was 1.21–1.29, their ratio to this
//! reading had one of 1.03–1.04. Single readings are noisy (one run saw
//! readings from 0.62 to 1.24), so a run uses the median of all of them,
//! and whole-run program times follow it only partly (see
//! [`SENSITIVITY`]).

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nominal time of each kernel, in µs: its time in a quiet period on the
/// reference host (2-vCPU Xeon VM at 2.0 GHz).
const NOMINAL_US: [f64; 2] = [500.0, 470.0];
/// How strongly the program's times follow the probe's: across 90 runs of
/// the three workloads (ten seeds each, three sets), the regression slope
/// of log program time on log probe slowness was 0.4–1.1 per metric, with
/// most near 0.7. Dividing by the full slowness over-corrected the metrics
/// with low slopes (a 25% quartile spread for `browser_loop` server CPU);
/// dividing by its square root kept every gated spread of those runs at
/// or below 14%, against 26% unnormalized.
pub const SENSITIVITY: f64 = 0.5;
/// Times each kernel runs per probe, after one untimed round that wakes
/// the CPU up.
const ROUNDS: u32 = 6;

/// The probe's fixed inputs, built once per run, and its readings.
#[derive(Debug)]
pub struct Probe {
    lists: Vec<Vec<u32>>,
    text: Vec<u8>,
    readings: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Builds the probe's fixed inputs.
    #[must_use]
    pub fn new() -> Self {
        let mut x = 7u64;
        let lists = (0..110)
            .map(|_| {
                (0..100)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        ((x >> 33) % 3_000) as u32
                    })
                    .collect()
            })
            .collect();
        let text = (0..60_000u32)
            .flat_map(|i| format!("{},", i.wrapping_mul(7_919) % 60_000).into_bytes())
            .collect();
        Self {
            lists,
            text,
            readings: Vec::new(),
        }
    }

    /// Takes one reading of the host's slowness.
    pub fn read(&mut self) {
        let reading = self.slowness();
        self.readings.push(reading);
    }

    /// The median reading so far (1.0 before any): robust to a reading
    /// that a passing burst of other load inflated.
    #[must_use]
    pub fn median(&self) -> f64 {
        if self.readings.is_empty() {
            1.0
        } else {
            crate::report::median(&self.readings)
        }
    }

    /// The factor times are divided by: the median reading raised to
    /// [`SENSITIVITY`].
    #[must_use]
    pub fn correction(&self) -> f64 {
        self.median().powf(SENSITIVITY)
    }

    /// Every reading so far.
    #[must_use]
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// The host's slowness: the geometric mean over the kernels of their
    /// time over nominal time (1.0 = the reference host in a quiet period;
    /// 1.5 = everything takes 1.5× as long).
    fn slowness(&self) -> f64 {
        let time = |f: &dyn Fn() -> u64| {
            black_box(f());
            let start = Instant::now();
            for _ in 0..ROUNDS {
                black_box(f());
            }
            start.elapsed() / ROUNDS
        };
        let times: [Duration; 2] = [
            time(&|| sets(black_box(&self.lists))),
            time(&|| parse(black_box(&self.text))),
        ];
        let log_sum: f64 = times
            .iter()
            .zip(NOMINAL_US)
            .map(|(t, nominal)| (t.as_secs_f64() * 1e6 / nominal).ln())
            .sum();
        (log_sum / times.len() as f64).exp()
    }
}

fn sets(lists: &[Vec<u32>]) -> u64 {
    let base: HashSet<u32> = lists[0].iter().copied().collect();
    let mut acc = 0u64;
    for list in &lists[1..] {
        acc += list.iter().filter(|item| base.contains(item)).count() as u64;
        let own: HashSet<u32> = list.iter().copied().collect();
        acc += own.len() as u64;
    }
    acc
}

fn parse(text: &[u8]) -> u64 {
    let (mut acc, mut current, mut in_number) = (0u64, 0u64, false);
    for &byte in text {
        if byte.is_ascii_digit() {
            current = current * 10 + u64::from(byte - b'0');
            in_number = true;
        } else if in_number {
            acc = acc.wrapping_add(current);
            current = 0;
            in_number = false;
        }
    }
    acc
}
