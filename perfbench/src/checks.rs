//! Correctness checks every run's output must pass. Each returns the
//! reasons it failed; a run is correct only when all come back empty.

use infless_core::metrics::RunReport;

use crate::stats::supports_quantile;

/// Request and KV-cache conservation for one report: every function's
/// offered arrivals are either completed or dropped (shed requests
/// count as dropped), and every KV byte allocated is freed or still
/// resident.
pub fn conservation(report: &RunReport, offered: &[u64]) -> Vec<String> {
    let mut failures = Vec::new();
    if report.functions.len() != offered.len() {
        failures.push(format!(
            "{}: report lists {} functions, workload declares {}",
            report.platform,
            report.functions.len(),
            offered.len()
        ));
        return failures;
    }
    for (f, &n) in report.functions.iter().zip(offered) {
        if f.completed + f.dropped != n {
            failures.push(format!(
                "{}: function {} offered {n} but completed {} + dropped {}",
                report.platform, f.name, f.completed, f.dropped
            ));
        }
    }
    if report.kv_allocated_bytes != report.kv_freed_bytes + report.kv_resident_bytes {
        failures.push(format!(
            "{}: KV allocated {} != freed {} + resident {}",
            report.platform,
            report.kv_allocated_bytes,
            report.kv_freed_bytes,
            report.kv_resident_bytes
        ));
    }
    failures
}

/// Every declared function received arrivals.
pub fn every_function_offered(offered: &[u64]) -> Vec<String> {
    offered
        .iter()
        .enumerate()
        .filter(|(_, n)| **n == 0)
        .map(|(f, _)| format!("function {f} received no arrivals"))
        .collect()
}

/// Two canonical renderings of what should be the same simulation are
/// byte-identical.
pub fn identical(what: &str, a: &str, b: &str) -> Vec<String> {
    if a == b {
        return Vec::new();
    }
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    vec![format!(
        "{what}: canonical reports differ (lengths {} vs {}, first difference at byte {at})",
        a.len(),
        b.len()
    )]
}

/// The completed-request count supports the tail percentile the
/// benchmark reports (at least ten samples beyond it).
pub fn tail_supported(q: f64, completed: u64) -> Vec<String> {
    if supports_quantile(q, completed) {
        Vec::new()
    } else {
        vec![format!(
            "{completed} completed requests cannot support the {q} quantile"
        )]
    }
}
