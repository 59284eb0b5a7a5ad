//! The flatwalk benchmark: one seeded command that runs a named
//! workload through the simulator (or its server), checks the modelled
//! output, and prints end-to-end metrics — or, traced, per-layer
//! metrics timed from outside around each layer's public calls.
//!
//! See `NOTES.md` beside this package for the workloads, the metric
//! definitions and the map from the older `BENCH_*.json` files.

pub mod calib;
pub mod digest;
pub mod grid;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;

/// The seed at which cells keep the repository's own workload seeds
/// (XOR with 0) and digests are checked against `expected_digests.txt`.
pub const DEFAULT_SEED: u64 = 0;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["native_grid", "virt_multicore_numa", "serve_mixed"];
