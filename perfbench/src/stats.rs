//! Order statistics, the tail-percentile rule, and FNV-1a digests.

/// Median of `values` (the mean of the middle pair for even lengths);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency summary: median plus the highest percentile that has at
/// least ten samples beyond it (the maximum when there are too few
/// samples for one).
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen (100 means "the maximum").
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Latency {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (tail_pct, tail) = if n > 10 {
            // Exactly ten samples lie above sorted[n - 11].
            (100.0 * (1.0 - 10.0 / n as f64), v[n - 11])
        } else {
            (100.0, v.last().copied().unwrap_or(0.0))
        };
        Latency {
            n,
            p50: median(&v),
            tail_pct,
            tail,
        }
    }

    /// `p50 / tail` as a short human-readable string in `unit`.
    pub fn describe(&self, unit: &str) -> String {
        let label = if self.tail_pct >= 100.0 {
            "max".to_string()
        } else {
            format!("p{:.2}", self.tail_pct)
        };
        format!(
            "p50 {:.3}{unit}, {label} {:.3}{unit} (n={})",
            self.p50, self.tail, self.n
        )
    }
}

/// Streaming FNV-1a 64.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&v);
        assert_eq!(l.tail_pct, 99.0);
        assert_eq!(l.tail, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > l.tail).count(), 10);
        assert_eq!(l.p50, 500.5);
        assert_eq!(Latency::of(&[3.0, 1.0, 2.0]).tail, 3.0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
