//! Summary statistics over latency samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    Some(s[nearest_rank(p, s.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// epsilon keeps `99.9 / 100 * 10000` from rounding up past 9990.
fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// The percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, with its value. `None` when even the median has fewer than
/// ten samples beyond it (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    TAIL_LADDER.iter().find_map(|&p| {
        if n >= 1 && n - nearest_rank(p, n) >= 10 {
            percentile(xs, p).map(|v| (p, v))
        } else {
            None
        }
    })
}

/// Geometric mean of strictly positive values. `None` when `xs` is empty
/// or holds a value that is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Arithmetic mean. `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let xs = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 19 samples: the median has only 9 beyond it.
        assert_eq!(tail(&xs(19)), None);
        // 20 samples: p50 (rank 10) leaves exactly 10 beyond; p75 leaves 5.
        assert_eq!(tail(&xs(20)), Some((50.0, 10.0)));
        // 40 samples: p75 (rank 30) leaves 10 beyond; p90 leaves 4.
        assert_eq!(tail(&xs(40)), Some((75.0, 30.0)));
        // 100 samples: p90 leaves 10 beyond; p99 leaves 1.
        assert_eq!(tail(&xs(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves 10 beyond; p99.9 leaves 1.
        assert_eq!(tail(&xs(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 leaves 10 beyond.
        assert_eq!(tail(&xs(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-9, "{g}");
        let g = geomean(&[5.0]).unwrap();
        assert!((g - 5.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }

    #[test]
    fn arithmetic_mean() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
