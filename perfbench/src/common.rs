//! Pieces every workload shares: the run context, the result report,
//! the seeded generator, `/metrics` scrapes and process memory.

use crate::expect::Expected;
use crate::spans::Recorder;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// Everything a workload needs to run.
pub struct Ctx {
    /// Seed for request keys and grid subsets.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Worker count handed to every runner, server and fleet.
    pub nproc: usize,
    /// Reference outputs.
    pub expected: Expected,
    /// Span recorder (disabled for untraced runs).
    pub rec: Recorder,
    /// Scratch directory for stores, inside the checkout.
    pub work: PathBuf,
}

impl Ctx {
    /// The measurement length as a `Duration`.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong bytes.
    pub failed: u64,
    /// `name -> (value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets every metric in `names` that is not yet set to 0: the layer
    /// is not exercised by this workload.
    pub fn zero_missing(&mut self, names: &[(&str, &'static str)]) {
        for &(name, unit) in names {
            self.metrics.entry(name.to_string()).or_insert((0.0, unit));
        }
    }
}

/// SplitMix64: small, seedable, and independent of the code measured.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident memory of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Unlabelled samples of a Prometheus text exposition.
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = crate::load::request(addr, &crate::load::get("/metrics"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// `after[name] - before[name]` (0 when absent).
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Mean of a histogram over a window: Δsum / Δcount.
pub fn hist_mean(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    let n = delta(before, after, &format!("{name}_count"));
    if n == 0.0 {
        return 0.0;
    }
    delta(before, after, &format!("{name}_sum")) / n
}
