//! # zkbench — the attributed benchmark
//!
//! One harness, five workloads over one seeded corpus (the quick MNIST-MLP
//! and CIFAR-CNN disputes), nine end-to-end metrics every workload
//! reports, and — in a separate traced run — per-layer rows named after
//! the crate whose public function they time. `BENCHMARK.md` beside this
//! crate's manifest has the tables, the predictions and the commands.
//!
//! The harness only calls public items of the workspace crates; nothing
//! outside this directory changes.

#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod defs;
pub mod json;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
