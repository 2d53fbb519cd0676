//! Experiment harness for the REPS reproduction.
//!
//! Wires [`netsim`] fabrics, the [`transport`] stack, [`workloads`] and
//! failure plans into named, reproducible experiments: [`Experiment`]
//! builds and runs an engine, and [`Summary`] is what one run measured.
//! How a summary is written down as a record belongs to `sweep::sink`.

pub mod experiment;
pub mod json;
pub mod scale;

pub use experiment::{Experiment, RunResult, Summary};
pub use scale::Scale;
