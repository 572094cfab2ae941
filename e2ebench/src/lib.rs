//! # lafp-e2ebench — the end-to-end, layer-by-layer benchmark
//!
//! One command generates seeded inputs, runs a workload (the ten §5.1
//! programs on LDask, or out-of-core lazy queries), checks
//! every output against a reference recorded at set-up, and prints every
//! metric by name and unit. `BENCHMARK.json` at the repository root lists
//! the workloads and metrics; `DESIGN.md` beside this crate says which
//! end-to-end metric each per-layer metric should move.

#![warn(missing_docs)]

pub mod check;
pub mod datagen;
pub mod probes;
pub mod procfs;
pub mod report;
pub mod trace;
pub mod workload;
