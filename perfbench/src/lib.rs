//! Benchmark of the INFless reproduction: the simulator's host speed,
//! setup cost and memory, measured together with the simulated
//! deployment's SLO attainment, latency, resource efficiency and cold
//! starts. See `README.md` beside this crate for the metric catalogue.

#![forbid(unsafe_code)]

pub mod catalogue;
pub mod checks;
pub mod layers;
pub mod quality;
pub mod reference;
pub mod spans;
pub mod stats;
pub mod workloads;
