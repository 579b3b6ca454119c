//! Phase spans the benchmark records around calls into the program's
//! public entry points. Spans live in memory and are read out when the
//! run ends; they never touch the program's own state.

use std::time::Instant;

/// Named host-time spans, in recording order.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    spans: Vec<(&'static str, f64)>,
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Self {
        Spans::default()
    }

    /// Runs `f` and records its host duration under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.spans.push((name, t0.elapsed().as_secs_f64()));
        out
    }

    /// Total seconds recorded under `name` (0 when never recorded).
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }
}
