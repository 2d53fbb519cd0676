//! Umbrella crate for the REPS reproduction.
//!
//! Re-exports the public API of every workspace crate so the quickstart
//! example and downstream users need a single dependency:
//!
//! * [`reps`] — the REPS algorithm (the paper's contribution),
//! * [`baselines`] — every load balancer the paper compares against,
//! * [`netsim`] — the packet-level datacenter simulator,
//! * [`transport`] — the out-of-order transport and congestion control,
//! * [`workloads`] — synthetic patterns, trace CDFs and AI collectives,
//! * [`ballsbins`] — the §5 theoretical models,
//! * [`harness`] — the engine builder: one experiment in, a run summary out,
//! * [`sweep`] — the deterministic parallel scenario-sweep engine, its
//!   result-record codec and tables, and the `repsbench` CLI.
//!
//! # Examples
//!
//! ```
//! use reps_repro::prelude::*;
//!
//! // Compare REPS with OPS on a small tornado workload.
//! let fabric = FatTreeConfig::two_tier(8, 1);
//! let workload = tornado(fabric.n_hosts(), 256 << 10);
//! let exp = Experiment::new("demo", fabric, LbKind::Reps(RepsConfig::default()), workload);
//! let result = exp.run();
//! assert!(result.summary.completed);
//! ```
//!
//! Or declare a whole scenario grid and run it in parallel:
//!
//! ```
//! use reps_repro::prelude::*;
//!
//! let matrix = ScenarioMatrix::new("demo")
//!     .workloads([WorkloadSpec::Tornado { bytes: 64 << 10 }])
//!     .seeds(2);
//! let results = reps_repro::sweep::run_cells(&matrix.expand(), 4);
//! assert!(results.iter().all(|r| r.summary.completed));
//! ```
//!
//! # Running the evaluation
//!
//! One front end regenerates every simulation figure:
//! `cargo run --release --bin repsbench -- run --filter 'fig07*'
//! --threads 8 --out results.jsonl` runs a declarative scenario sweep and
//! emits one JSON Lines record per cell plus cross-seed aggregate tables;
//! `repsbench list` shows every preset. Output is byte-identical for any
//! `--threads` value. The results that simulate no fabric — Table 1 and
//! the balls-into-bins and trace-CDF figures (14, 17, 18, 20, 24) — come
//! from `cargo run --release --bin theory -- [GLOB]`. The top-level
//! `README.md` maps every figure and table to its command.
//!
//! `repsbench` honours `REPS_SCALE` (case-insensitive): `quick` (default)
//! runs 32–128-node fabrics with scaled-down messages in minutes; `full`
//! uses the paper's parameters where feasible.

pub use ballsbins;
pub use baselines;
pub use harness;
pub use netsim;
pub use reps;
pub use sweep;
pub use transport;
pub use workloads;

/// Convenient re-exports for examples and quick experiments.
pub mod prelude {
    pub use baselines::kind::LbKind;
    pub use harness::experiment::{Experiment, RunResult, Summary};
    pub use harness::Scale;
    pub use netsim::config::SimConfig;
    pub use netsim::failures::Failure;
    pub use netsim::ids::{FlowId, HostId, SwitchId};
    pub use netsim::link::LossCause;
    pub use netsim::time::Time;
    pub use netsim::topology::{FatTreeConfig, Topology};
    pub use reps::reps::{Reps, RepsConfig};
    pub use sweep::{FabricSpec, FailureSpec, LabeledLb, ScenarioMatrix, SimProfile, WorkloadSpec};
    pub use transport::cc::CcKind;
    pub use transport::config::{CoalesceConfig, CoalesceVariant};
    pub use workloads::collectives::ring_allreduce;
    pub use workloads::patterns::{incast, permutation, tornado};
    pub use workloads::traces::{poisson_trace, SizeCdf};
}
