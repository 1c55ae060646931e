//! Order statistics. Percentiles are given in per mille (975 = p97.5) so
//! ranks are exact integer arithmetic.

/// Percentiles tried for the tail, highest first, in per mille.
const TAIL_LADDER: [usize; 8] = [999, 995, 990, 975, 950, 900, 750, 500];

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest rank (1-based) of per-mille percentile `pm` among `n` samples.
fn rank(n: usize, pm: usize) -> usize {
    (pm * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `pm` (per mille) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], pm: usize) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), pm) - 1]
}

/// Median (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 500)
}

/// Samples of `n` that lie beyond nearest-rank percentile `pm`.
pub fn beyond(n: usize, pm: usize) -> usize {
    n - rank(n, pm).min(n)
}

/// The highest ladder percentile (per mille) with at least
/// [`TAIL_BEYOND`] of `n` samples beyond it (the median when `n` is too
/// small for any).
pub fn tail_percentile(n: usize) -> usize {
    TAIL_LADDER
        .into_iter()
        .find(|&pm| beyond(n, pm) >= TAIL_BEYOND)
        .unwrap_or(500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(12_000), 999);
        assert_eq!(tail_percentile(400), 975);
        assert_eq!(tail_percentile(210), 950);
        assert_eq!(tail_percentile(5), 500);
        for n in [20, 100, 399, 1000, 4000] {
            assert!(beyond(n, tail_percentile(n)) >= TAIL_BEYOND);
        }
    }

    #[test]
    fn nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 1000), 5.0);
        assert_eq!(percentile(&v, 10), 1.0);
    }
}
