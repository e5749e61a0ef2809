//! Device and CPU-contention models (Figures 11, 12, 13).
//!
//! The paper measures the widget on a Dell laptop and a Wiko smartphone
//! while `stress`/AnTuTu generate background CPU load. We cannot ship that
//! hardware, so the substitution is:
//!
//! * The **kernel time** — how long one widget run takes at a given profile
//!   size and `k` — is *really measured* on this machine via
//!   [`measure_widget_kernel`].
//! * A [`Device`] multiplies kernel time by a relative speed factor
//!   (calibrated to the paper's laptop ≈ 5 ms vs smartphone ≈ 30 ms at
//!   `ps = 100`).
//! * Background load divides the widget's CPU share through a fair-share
//!   scheduler model ([`contended_time`], [`FairShareCpu`]): with the CPU
//!   at load `L`, a compute-bound task effectively time-shares with `L`
//!   competing demand, so its wall time scales by `1 + L` — exactly the
//!   ≤2× degradation the paper observes from 0% to 100% load.

use hyrec_client::Widget;
use hyrec_core::{CandidateSet, Profile, UserId};
use hyrec_wire::PersonalizationJob;
use std::time::{Duration, Instant};

/// A client device class with a speed factor relative to this machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Human-readable name ("laptop", "smartphone").
    pub name: &'static str,
    /// Wall-time multiplier relative to the benchmark machine.
    pub speed_factor: f64,
    /// Relative propensity to abandon an in-flight personalization job
    /// (navigate away mid-computation). Laptops sit below the population
    /// mean, phones above it — mobile sessions are shorter and a 6.5×
    /// slower kernel spends far longer inside the abandonment window.
    pub churn_factor: f64,
}

impl Device {
    /// The paper's Dell Latitude laptop — the reference machine (we report
    /// measured times directly for it).
    pub const LAPTOP: Device = Device {
        name: "laptop",
        speed_factor: 1.0,
        churn_factor: 0.6,
    };

    /// The paper's Wiko Cink King smartphone: roughly 6–7× slower than the
    /// laptop on the widget workload (calibrated from Figures 12–13, e.g.
    /// ≈30 ms vs ≈5 ms at profile size 100).
    pub const SMARTPHONE: Device = Device {
        name: "smartphone",
        speed_factor: 6.5,
        churn_factor: 1.4,
    };

    /// This device's probability of abandoning a job, given the
    /// population-wide base rate (an even laptop/smartphone split averages
    /// back to `base`). Drives the churn replay in [`crate::churn`].
    #[must_use]
    pub fn abandon_probability(&self, base: f64) -> f64 {
        (base * self.churn_factor).clamp(0.0, 1.0)
    }
}

/// Fair-share CPU model: `n` compute-bound tasks on one core each progress
/// at rate `1/n`; a background load `L ∈ [0, 1]` acts as `L` of a task.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FairShareCpu {
    /// Background utilization in `[0, 1]` (the stress tool's dial).
    pub background_load: f64,
}

impl FairShareCpu {
    /// Creates a model with the given background load.
    ///
    /// # Panics
    ///
    /// Panics if `load` is outside `[0, 1]`.
    #[must_use]
    pub fn new(load: f64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
        Self {
            background_load: load,
        }
    }

    /// CPU share a single compute-bound foreground task receives.
    #[must_use]
    pub fn foreground_share(&self) -> f64 {
        1.0 / (1.0 + self.background_load)
    }

    /// Progress (in task-seconds) a foreground task with CPU `demand ∈
    /// [0,1]` makes over `window` wall seconds, competing with the
    /// background load and `other_demand` from other foreground tasks.
    ///
    /// This drives Figure 11: the monitor loop's progress under stress with
    /// various co-running applications.
    #[must_use]
    pub fn progress(&self, demand: f64, other_demand: f64, window: f64) -> f64 {
        let total = self.background_load + demand + other_demand;
        if total <= 1.0 {
            // CPU not saturated: everyone runs at full demand.
            demand * window
        } else {
            // Saturated: proportional share.
            demand / total * window
        }
    }
}

/// Wall-clock time of one widget run on `device` under `load`.
#[must_use]
pub fn contended_time(kernel: Duration, device: Device, load: FairShareCpu) -> Duration {
    let secs = kernel.as_secs_f64() * device.speed_factor / load.foreground_share();
    Duration::from_secs_f64(secs)
}

/// Builds a synthetic personalization job with `candidates` candidate
/// profiles of `profile_size` liked items each (the workload shape of
/// Figures 12–13).
#[must_use]
pub fn synthetic_job(profile_size: usize, k: usize, candidates: usize) -> PersonalizationJob {
    let profile_of = |seed: u32| {
        Profile::from_liked((0..profile_size as u32).map(|i| (seed * 131 + i * 7) % 60_000))
    };
    let mut set = CandidateSet::with_capacity(candidates);
    for c in 0..candidates as u32 {
        set.insert(UserId(c + 1), profile_of(c + 1));
    }
    PersonalizationJob {
        uid: UserId(0),
        k,
        r: 10,
        lease: 0,
        epoch: 0,
        profile: profile_of(0).into(),
        candidates: set,
    }
}

/// Really measures the widget kernel (Algorithm 1 + Algorithm 2) on this
/// machine: median over `iterations` runs.
#[must_use]
pub fn measure_widget_kernel(job: &PersonalizationJob, iterations: usize) -> Duration {
    let widget = Widget::new();
    let iterations = iterations.max(1);
    let mut samples: Vec<Duration> = (0..iterations)
        .map(|_| {
            let start = Instant::now();
            let out = widget.run_job(job);
            let elapsed = start.elapsed();
            std::hint::black_box(out);
            elapsed
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_unsaturated_is_full_speed() {
        let cpu = FairShareCpu::new(0.3);
        // demand 0.5 + load 0.3 < 1: no slowdown.
        assert!((cpu.progress(0.5, 0.0, 10.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fair_share_saturated_is_proportional() {
        let cpu = FairShareCpu::new(1.0);
        // demand 1 vs load 1: half speed.
        assert!((cpu.progress(1.0, 0.0, 10.0) - 5.0).abs() < 1e-9);
        // Adding another full-demand app cuts it to a third.
        assert!((cpu.progress(1.0, 1.0, 10.0) - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn foreground_share_halves_at_full_load() {
        assert!((FairShareCpu::new(0.0).foreground_share() - 1.0).abs() < 1e-9);
        assert!((FairShareCpu::new(1.0).foreground_share() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn rejects_out_of_range_load() {
        let _ = FairShareCpu::new(1.5);
    }

    #[test]
    fn contended_time_composes_device_and_load() {
        let kernel = Duration::from_millis(4);
        let quiet = contended_time(kernel, Device::LAPTOP, FairShareCpu::new(0.0));
        assert_eq!(quiet, kernel);
        let busy = contended_time(kernel, Device::LAPTOP, FairShareCpu::new(1.0));
        assert_eq!(busy, kernel * 2);
        let phone = contended_time(kernel, Device::SMARTPHONE, FairShareCpu::new(0.0));
        assert!(phone > kernel * 6 && phone < kernel * 7);
    }

    #[test]
    fn kernel_time_grows_with_profile_size() {
        let small = measure_widget_kernel(&synthetic_job(10, 10, 50), 15);
        let large = measure_widget_kernel(&synthetic_job(500, 10, 50), 15);
        assert!(
            large > small,
            "larger profiles must cost more: {small:?} vs {large:?}"
        );
    }

    #[test]
    fn abandon_probability_scales_by_device_and_clamps() {
        assert!((Device::LAPTOP.abandon_probability(0.3) - 0.18).abs() < 1e-12);
        assert!((Device::SMARTPHONE.abandon_probability(0.3) - 0.42).abs() < 1e-12);
        // An even split averages to the base rate.
        let mean = (Device::LAPTOP.abandon_probability(0.3)
            + Device::SMARTPHONE.abandon_probability(0.3))
            / 2.0;
        assert!((mean - 0.3).abs() < 1e-12);
        assert_eq!(Device::SMARTPHONE.abandon_probability(0.9), 1.0);
        assert_eq!(Device::LAPTOP.abandon_probability(0.0), 0.0);
    }

    #[test]
    fn synthetic_job_shape() {
        let job = synthetic_job(100, 10, 120);
        assert_eq!(job.candidates.len(), 120);
        assert_eq!(job.profile.liked_len(), 100);
        assert_eq!(job.k, 10);
    }
}
