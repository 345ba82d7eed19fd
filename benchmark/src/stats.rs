//! The benchmark's one percentile routine, plus the small measurement
//! helpers every workload shares.

use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Fewer samples than this report the median alone: no percentile of them
/// has ten samples beyond it that would make it a tail rather than the max.
const MIN_TAIL_SAMPLES: usize = 40;

/// Samples a tail percentile must have beyond it.
const TAIL_BEYOND: usize = 10;

/// Median, tail and sample count of one set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples when `n` is even).
    pub p50: f64,
    /// `(percentile, value)`: the highest percentile of [`TAIL_LADDER`]
    /// with at least ten samples beyond it, when `n >= 40`.
    pub tail: Option<(f64, f64)>,
}

/// The 1-based nearest rank of the percentile `permille / 10` among `n`
/// samples.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = sorted.len();
    let p50 = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let tail = if n < MIN_TAIL_SAMPLES {
        None
    } else {
        TAIL_LADDER
            .iter()
            .find(|&&pm| n - nearest_rank(n, pm) >= TAIL_BEYOND)
            .map(|&pm| (pm as f64 / 10.0, sorted[nearest_rank(n, pm) - 1]))
    };
    Some(Summary { n, p50, tail })
}

/// The median of `samples` (which must not be empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).expect("median of no samples").p50
}

/// Nanoseconds of a duration as `f64`.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Median per-call nanoseconds of `f` over nine batches, each batch sized
/// to last about `batch` after a warm-up call.
pub fn ns_per_call(batch: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < batch {
        f();
        calls += 1;
    }
    let per_batch = calls.max(1);
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            ns(t.elapsed()) / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// The process's peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// SplitMix64 finalizer: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sets_report_the_median_alone() {
        let s = summarize(&[3.0, 1.0, 2.0]).expect("samples");
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, None));
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]).expect("samples");
        assert_eq!(even.p50, 2.5);
        let samples: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(summarize(&samples).expect("samples").tail, None);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        // 48 samples: p75 has 12 beyond it, p90 only 4, so p75 it is.
        let samples: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(
            summarize(&samples).expect("samples").tail,
            Some((75.0, 36.0))
        );
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            summarize(&samples).expect("samples").tail,
            Some((99.0, 990.0))
        );
        let samples: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(
            summarize(&samples).expect("samples").tail,
            Some((99.9, 9990.0))
        );
    }
}
