//! Experiment harness for the REPS reproduction.
//!
//! Wires [`netsim`] fabrics, the [`transport`] stack, [`workloads`] and
//! failure plans into named, reproducible experiments, and provides the
//! text-report helpers the `sweep` crate renders its tables with.

pub mod experiment;
pub mod json;
pub mod report;
pub mod scale;

pub use experiment::{Experiment, RunResult, Summary, TrackLinks};
pub use report::{comparison_table, downsample, speedup_table};
pub use scale::Scale;
