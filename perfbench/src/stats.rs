//! Order statistics used by every metric the benchmark prints.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; `None` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p).clamp(1, v.len()) - 1])
}

/// Nearest rank of percentile `p` in `n` samples, in integer per-mille
/// arithmetic so that p99.9 of 10 000 is rank 9 990, not 9 991.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// The percentiles a latency may be reported at, lowest first.
pub const REPORTABLE: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest reportable percentile that leaves at least ten samples
/// beyond it in `n` samples (`None` below 20 samples, where not even
/// the median qualifies).
pub fn highest_percentile(n: usize) -> Option<f64> {
    REPORTABLE
        .iter()
        .copied()
        .rfind(|p| samples_beyond(n, *p) >= 10)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}
