//! A fixed reference computation the benchmark times beside every
//! host-time measurement, to tell a slower host from slower code.
//!
//! A shared host's speed drifts by tens of percent over minutes, far
//! more than the regressions the benchmark must catch. The reference is
//! the benchmark's own code (a binary heap, a hash map and a sort over a
//! fixed pseudo-random input: the operation mix of a discrete-event
//! simulator), so no change to the program moves it; only the host
//! does. It is more sensitive to a busy host than the simulator is:
//! across 40 runs on the reference host, the simulator's run time moved
//! about as the square root of the reference's. Host seconds are
//! therefore reported as `measured × √(NOMINAL_S / reference)`: the time
//! the work would take on a host where the reference takes
//! [`NOMINAL_S`], to first order.

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Reference seconds of the host the benchmark was written on (2-core
/// VM, 2026): the host speed every scaled time is expressed at.
pub const NOMINAL_S: f64 = 0.065;

/// `measured` host seconds scaled to the nominal host, given the
/// reference's host seconds measured beside it.
pub fn scaled(measured: f64, reference: f64) -> f64 {
    measured * (NOMINAL_S / reference).sqrt()
}

/// Median of `n` reference timings.
pub fn reference_median_s(n: usize) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| reference_s()).collect();
    crate::stats::median(&samples)
}

/// Runs the reference computation once and returns its host seconds.
pub fn reference_s() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(reference_work(std::hint::black_box(0x9e37_79b9_7f4a_7c15)));
    t0.elapsed().as_secs_f64()
}

fn reference_work(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..600_000u64 {
        heap.push(std::cmp::Reverse(next() % 1_000_000));
        if i % 3 == 2 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        *map.entry(next() % 50_000).or_insert(0) += i;
    }
    let mut v: Vec<f64> = (0..300_000)
        .map(|_| (next() % 1_000_003) as f64 / 7.0)
        .collect();
    v.sort_by(f64::total_cmp);
    acc.wrapping_add(map.values().fold(0, |a, b| a ^ b))
        .wrapping_add(v[v.len() / 2] as u64)
        .wrapping_add(heap.len() as u64)
}
