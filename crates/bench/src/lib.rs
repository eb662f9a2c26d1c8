//! Benchmark harness for the GRFusion reproduction.
//!
//! One module per experiment of EDBT 2018 §7 (see DESIGN.md's experiment
//! index). The harness binary (`cargo run -p grfusion-bench --release --bin
//! harness -- <experiment>`) prints the same rows/series the paper reports.
//! Performance is refereed by the repo benchmark (`benchmark/`), not here.
//!
//! Absolute numbers are not expected to match the paper (its testbed was a
//! 32-core Xeon running VoltDB); the *shape* — who wins, how cost grows
//! with path length and selectivity, where SQLGraph stops finishing — is
//! the reproduction target (see EXPERIMENTS.md).

pub mod experiments;
pub mod timing;

pub use experiments::{ExperimentScale, Measurement};
