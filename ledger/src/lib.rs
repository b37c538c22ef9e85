//! Harness core of the interval-tc perf ledger: a constant-memory latency
//! histogram with the "ten samples beyond" percentile rule, medians and
//! quartiles across segments and runs, an environment stamp, a std-only
//! JSON writer and reader, and the parent-versus-change comparison behind
//! `ledger compare`. The `ledger` binary (`src/main.rs`) documents the
//! workloads and metrics built on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod env;
pub mod hist;
pub mod json;
pub mod stats;

pub use compare::Better;
pub use hist::{Histogram, Quantile};
pub use json::Value;
pub use stats::{median, spread, Spread};
