//! Shared, std-only plumbing of the repo benchmark (see `README.md`).
//!
//! Two binaries build on this library:
//!
//! * `repsperf` — the end-to-end driver. It knows the program only through
//!   the `repsbench` CLI (flags, `--perf` field names, result JSONL), spawns
//!   it on pinned grid files and times it from outside with tracing off.
//! * `layerprobe` — the traced run. It links the workspace crates, replays
//!   one pass of a workload in-process with a span around every call into a
//!   layer's public functions and reports the per-layer metrics.
//!
//! Nothing in this library touches a workspace crate, so the end-to-end half
//! keeps building while `sweep`/`bench` are refactored.

pub mod calib;
pub mod child;
pub mod clock;
pub mod json;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
