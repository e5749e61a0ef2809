//! CPU attribution from procfs: generator threads against everything else.
//!
//! The benchmark's load generator runs inside the benchmark process, next
//! to the server it drives. `/proc/self/stat` gives the CPU of the whole
//! process, exited threads included; `/proc/self/task/<tid>/stat` gives
//! one thread's. The generator side is the sum over the registered
//! generator threads, and the server side (reactor, workers, sweeper) is
//! the process total minus that.

use std::fs;
use std::io;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// The calling thread's kernel thread id, read from `/proc/thread-self`
/// (a link to `<pid>/task/<tid>`).
///
/// # Errors
///
/// Fails when procfs is not mounted or the link has an unexpected shape.
pub fn current_tid() -> io::Result<u32> {
    let link = fs::read_link("/proc/thread-self")?;
    link.file_name()
        .and_then(|name| name.to_str())
        .and_then(|name| name.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unexpected /proc/thread-self"))
}

/// `utime + stime` in seconds from one `stat` file.
fn stat_cpu_seconds(path: &str) -> io::Result<f64> {
    let text = fs::read_to_string(path)?;
    // The command name (field 2) may hold spaces and parentheses: fields
    // are counted from the last ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name, field 3 (state) is index 0; utime and stime are
    // fields 14 and 15.
    let ticks = |index: usize| -> io::Result<u64> {
        fields
            .get(index)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat field"))
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / TICKS_PER_SECOND)
}

/// CPU seconds split between the generator threads and all other threads
/// at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuSplit {
    /// CPU of the registered generator threads.
    pub generator_s: f64,
    /// CPU of every other thread of the process, exited ones included.
    pub server_s: f64,
}

impl CpuSplit {
    /// Both sides multiplied by `factor`.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            generator_s: self.generator_s * factor,
            server_s: self.server_s * factor,
        }
    }
}

impl std::ops::Add for CpuSplit {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            generator_s: self.generator_s + other.generator_s,
            server_s: self.server_s + other.server_s,
        }
    }
}

impl std::ops::Sub for CpuSplit {
    type Output = Self;

    fn sub(self, earlier: Self) -> Self {
        Self {
            generator_s: self.generator_s - earlier.generator_s,
            server_s: self.server_s - earlier.server_s,
        }
    }
}

/// Attributes process CPU to the generator threads it was given.
#[derive(Debug, Clone)]
pub struct Attribution {
    generator_tids: Vec<u32>,
}

impl Attribution {
    /// Attribution with `generator_tids` on the generator side.
    #[must_use]
    pub fn new(generator_tids: Vec<u32>) -> Self {
        Self { generator_tids }
    }

    /// Reads the current split.
    ///
    /// # Errors
    ///
    /// Fails when a `stat` file cannot be read or parsed.
    pub fn sample(&self) -> io::Result<CpuSplit> {
        let total = stat_cpu_seconds("/proc/self/stat")?;
        let mut generator_s = 0.0;
        for tid in &self.generator_tids {
            generator_s += stat_cpu_seconds(&format!("/proc/self/task/{tid}/stat"))?;
        }
        Ok(CpuSplit {
            generator_s,
            server_s: total - generator_s,
        })
    }
}

/// Peak resident set size of the process (`VmHWM`), in MB.
///
/// # Errors
///
/// Fails when `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
}
