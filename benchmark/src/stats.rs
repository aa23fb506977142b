//! Order statistics for timings: medians, quartiles and the tail
//! percentile rule.

/// Percentiles a tail timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); `0.0`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) computes them. Fewer than two samples give the
/// single value (or `0.0`) three times.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples ranked beyond it, or `None` when not even the median has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - nearest_rank(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `xs` (`0.0` for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    s[nearest_rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// tolerance keeps a rank that is a whole number in exact arithmetic
/// (99.9% of 10,000) from rounding up.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
