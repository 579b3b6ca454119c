//! Order statistics and naming rules the benchmark reports with.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so the benchmark's own spread figures match
/// the ones a reader recomputes from its output. A single value is its
/// own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("sample holds a NaN"));
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when `j` was clamped up: extrapolates below data[0].
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// How many of `count` samples lie beyond the `q` quantile.
pub fn samples_beyond(q: f64, count: u64) -> u64 {
    ((1.0 - q) * count as f64 + 1e-9).floor() as u64
}

/// Minimum samples a reported tail percentile must have beyond it.
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// `true` when a sample of `count` supports reporting quantile `q`:
/// at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn supports_quantile(q: f64, count: u64) -> bool {
    samples_beyond(q, count) >= MIN_TAIL_SAMPLES
}

/// `true` for a valid metric or workload name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
