//! Exact percentiles over per-op samples, and the median/quartile spread
//! used to judge repeat runs.

/// Sample value standing for a failed or refused op: it counts as +∞, so
/// it misses every latency limit (a p99 can never hide a failure).
pub const FAILED: u32 = u32::MAX;

/// A duration as a latency sample, saturating just below [`FAILED`] so a
/// slow success never reads as a failure.
pub fn sample_ns(ns: u64) -> u32 {
    ns.min(FAILED as u64 - 1) as u32
}

/// Nearest-rank percentile of ascending `sorted`, with `per10k` in
/// hundredths of a percent (p99 = 9900): the smallest sample with at least
/// that share of samples at or below it. Integer arithmetic, so p99 of 100
/// samples is the 99th, not a float-rounded 100th.
pub fn percentile(sorted: &[u32], per10k: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as u64;
    let rank = (n * per10k).div_ceil(10_000).max(1);
    let v = sorted[(rank - 1) as usize];
    if v == FAILED {
        f64::INFINITY
    } else {
        v as f64
    }
}

/// Latency summary of one op class, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub failed: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

impl Summary {
    /// Summarize ns samples (sorted in place).
    pub fn of(samples: &mut [u32]) -> Summary {
        samples.sort_unstable();
        let us = |per10k| percentile(samples, per10k) / 1e3;
        Summary {
            n: samples.len(),
            failed: samples.iter().rev().take_while(|&&v| v == FAILED).count(),
            p50_us: us(5_000),
            p99_us: us(9_900),
            p999_us: us(9_990),
            max_us: us(10_000),
        }
    }
}

/// Median (mean of the middle two for even counts), as Python's
/// `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads read the same here
/// as in any script that checks them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Quartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: sort, then take the ceil(p·n)-th smallest (1-based).
    fn reference(samples: &[u32], p: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let rank = ((p * s.len() as f64) - 1e-9).ceil().max(1.0) as usize;
        match s[rank - 1] {
            FAILED => f64::INFINITY,
            v => v as f64,
        }
    }

    #[test]
    fn percentile_matches_sorted_reference() {
        let mut x: u64 = 7;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let samples: Vec<u32> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 40) as u32 % 10_000
                })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for (per10k, p) in [(5_000, 0.5), (9_900, 0.99), (9_990, 0.999), (10_000, 1.0)] {
                assert_eq!(
                    percentile(&sorted, per10k),
                    reference(&samples, p),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn p99_of_100_is_the_99th_sample() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 9_900), 99.0);
        assert_eq!(percentile(&sorted, 5_000), 50.0);
        assert_eq!(percentile(&sorted, 10_000), 100.0);
    }

    #[test]
    fn failures_count_as_infinite() {
        // 2 failures in 100: p99 lands on a failure, p50 does not.
        let mut samples: Vec<u32> = (1..=98).collect();
        samples.extend([FAILED, FAILED]);
        let s = Summary::of(&mut samples);
        assert_eq!(s.failed, 2);
        assert!(s.p99_us.is_infinite() && s.max_us.is_infinite());
        assert_eq!(s.p50_us, 0.05);
        assert_eq!(reference(&samples, 0.99), f64::INFINITY);
        // One failure in 1000 hides below p99 but not below max.
        let mut samples: Vec<u32> = (1..=999).collect();
        samples.push(FAILED);
        let s = Summary::of(&mut samples);
        assert!(s.p99_us.is_finite() && s.max_us.is_infinite());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 4.5));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
