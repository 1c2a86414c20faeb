//! Order statistics over latency samples, and the timing loop the probes
//! share.

use std::time::Instant;

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[percentile_rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn percentile_rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - percentile_rank(n, p)
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — the one a tail claim may rest on. `None` below 20
/// samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Interquartile mean: the mean of the middle half of the samples (at
/// least one). Like the median it ignores a tail of stalled operations,
/// and unlike the median it does not jump when latencies cluster on a few
/// values — as they do behind the servers' fixed poll and ack timers.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Quartile spread as a share of the median — the steadiness measure the
/// acceptance rule uses (`statistics.quantiles(values, n=4)` in Python:
/// the exclusive method, quartile `k` at position `k(n+1)/4`).
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    let med = median(&sorted)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// Seconds per call of `f`: the median over batches of calls, each batch
/// long enough (≥ 2 ms) for the clock not to matter, until `budget_ms`
/// is spent.
pub fn time_per_call(budget_ms: f64, mut f: impl FnMut()) -> f64 {
    let first = Instant::now();
    f();
    let once = first.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((2e-3 / once).ceil() as usize).clamp(1, 1_000_000);
    let mut batches = Vec::new();
    let start = Instant::now();
    while batches.len() < 3 || start.elapsed().as_secs_f64() * 1e3 < budget_ms {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(t.elapsed().as_secs_f64() / per_batch as f64);
        if batches.len() >= 10_000 {
            break;
        }
    }
    median(&batches).expect("at least three batches ran")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), Some(5.0));
        assert_eq!(percentile(&s, 90), Some(9.0));
        assert_eq!(percentile(&s, 100), Some(10.0));
        assert_eq!(percentile(&s, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), Some(2.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        // Eight samples: the two lowest and the two highest are cut.
        let s = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0];
        assert_eq!(interquartile_mean(&s), Some(3.5));
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        assert_eq!(interquartile_mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(interquartile_mean(&[]), None);
        // Clustered values: the median would flip between 44 and 88.
        let clustered = [44.0, 44.0, 44.0, 44.0, 88.0, 88.0, 88.0, 88.0];
        assert_eq!(interquartile_mean(&clustered), Some(66.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples has exactly ten beyond it; of 99, only nine.
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(99), Some(75));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(samples_beyond(0, 90), 0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&s).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn time_per_call_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                std::hint::black_box(x);
            }
        };
        let small = time_per_call(5.0, spin(1_000));
        let large = time_per_call(5.0, spin(100_000));
        assert!(large > 10.0 * small, "{large} vs {small}");
    }
}
