//! The modelled deployment's quality, pooled over every report of a
//! run: SLO attainment, latency, resource efficiency, cold starts and
//! drops. All figures are simulated (`_ms` = simulated milliseconds).

use infless_core::metrics::RunReport;
use infless_telemetry::Log2Histogram;

/// The tail percentile reported for end-to-end latency.
pub const TAIL_Q: f64 = 0.999;

/// Pooled counts and histograms of one or more reports.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Requests offered (completed + dropped; shed requests are drops).
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completed requests that met their SLO.
    pub met_slo: u64,
    /// Completed requests that waited on a cold start.
    pub cold: u64,
    /// Weighted resource-seconds held.
    pub weighted_resource_s: f64,
    /// End-to-end latency of completed requests, all functions merged.
    pub latency_ms: Log2Histogram,
}

impl Quality {
    /// Pools `reports`.
    pub fn of(reports: &[RunReport]) -> Quality {
        let mut q = Quality::default();
        for r in reports {
            q.add(r);
        }
        q
    }

    /// Folds one report in.
    pub fn add(&mut self, r: &RunReport) {
        for f in &r.functions {
            self.offered += f.completed + f.dropped;
            self.completed += f.completed;
            self.met_slo += f.completed - f.violations;
            self.cold += f.cold_requests;
            self.latency_ms.merge(&f.latency_ms);
        }
        self.weighted_resource_s += r.weighted_resource_seconds;
    }

    /// Requests completed within SLO ÷ requests offered.
    pub fn slo_attainment(&self) -> f64 {
        ratio(self.met_slo, self.offered)
    }

    /// (Dropped + shed) ÷ offered.
    pub fn drop_rate(&self) -> f64 {
        ratio(self.offered - self.completed, self.offered)
    }

    /// Completed requests that waited on a cold start ÷ completed.
    pub fn cold_start_rate(&self) -> f64 {
        ratio(self.cold, self.completed)
    }

    /// Completed requests per weighted-resource-second
    /// (`RunReport::throughput_per_resource`, pooled).
    pub fn thpt_per_resource(&self) -> f64 {
        if self.weighted_resource_s == 0.0 {
            0.0
        } else {
            self.completed as f64 / self.weighted_resource_s
        }
    }

    /// Latency quantile of completed requests, simulated ms.
    pub fn latency_q(&self, q: f64) -> f64 {
        interpolated_quantile(&self.latency_ms, q)
    }
}

/// Sub-buckets per octave of [`Log2Histogram`]: a bucket spans a factor
/// of `2^(1/128)`.
const SUB_BUCKETS: f64 = 128.0;

/// The `q` quantile of `h`, interpolated within its histogram bucket.
///
/// [`Log2Histogram::quantile`] answers with the bucket's geometric
/// midpoint, so two runs whose quantile falls in the same 0.5 %-wide
/// bucket read exactly alike. This places the quantile's rank
/// log-uniformly between the bucket's edges instead, from the ranks the
/// bucket covers (found by bisection over the public rank queries).
/// 0 for an empty histogram.
pub fn interpolated_quantile(h: &Log2Histogram, q: f64) -> f64 {
    let n = h.count();
    let (Some(min), Some(max)) = (h.min(), h.max()) else {
        return 0.0;
    };
    let q = q.clamp(0.0, 1.0);
    if n == 1 || q == 0.0 || q == 1.0 {
        return h.quantile(q).unwrap_or(0.0);
    }
    // Value of the `r`-th smallest sample (1-based), as the histogram
    // reports it: the midpoint of its bucket, clamped to [min, max].
    let at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64).unwrap_or(0.0);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let v = at(rank);
    if v == 0.0 {
        return 0.0;
    }
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at(mid) < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at(mid) > v {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let span = (lo - first + 1) as f64;
    let frac = ((rank - first) as f64 + 0.5) / span;
    let lower_edge = v * (-0.5 / SUB_BUCKETS).exp2();
    (lower_edge * (frac / SUB_BUCKETS).exp2()).clamp(min, max)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
