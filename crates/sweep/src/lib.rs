//! Deterministic parallel scenario sweeps for the REPS reproduction.
//!
//! The paper's evaluation is a grid of scenarios — load balancer × fabric
//! × workload × failure plan × seed. This crate turns that grid into data:
//!
//! * [`matrix::ScenarioMatrix`] declares the grid and expands it into
//!   independent [`matrix::Cell`]s; each cell's RNG seed is derived by
//!   hashing the cell's stable key, so results never depend on thread
//!   count, completion order or which other cells a filter selected;
//! * [`axis`] is the one registry of grid axes — name, key form, parse
//!   and label per axis — that the matrix, cell keys, spec files and the
//!   CLI all iterate;
//! * [`runner`] executes cells on a work-stealing std-thread pool and
//!   returns results in canonical (key-sorted) order;
//! * [`sink`] emits one JSON Lines record per cell and renders cross-seed
//!   aggregates through [`harness::report`];
//! * [`presets`] names a matrix for every simulation figure of the paper
//!   plus new scenarios (incast/permutation sweeps, rolling link failures,
//!   mixed AI collectives, oversubscription/asymmetry,
//!   reconvergence-delay and parameter-ablation sweeps);
//! * [`specfile`] parses user-defined grids from a line-oriented text
//!   format (`repsbench run --spec-file grid.txt`) — new scenarios are a
//!   text file, not a code change — with canonical rendering as its exact
//!   inverse; the `lb` axis speaks the typed LB-spec grammar
//!   ([`baselines::kind::LbKind::parse`]: `REPS{evs=256,freeze=off}`,
//!   `Flowlet{gap=80us}`, ...), so parameter ablations are text edits
//!   too;
//! * [`shard`] deterministically partitions a cell list by key hash so a
//!   fleet can split one sweep (`repsbench run --shard i/n`), [`merge`]
//!   unions the shard outputs back into the unsharded bytes, and [`cache`]
//!   reuses per-cell results across runs of the same code version
//!   (`--cache DIR`);
//! * [`store`] is the one per-cell document store: cache entries, series
//!   and trace documents are three kinds of it, sharing one path scheme,
//!   one atomic write and one probe that checks a document's key and
//!   declared line count before a cached result stands in for a run;
//! * [`fault`] adds an adversarial-fault axis (`fault=gray{p=0.01}`,
//!   `flap{period=10ms,duty=0.5}`, `unidir{n=1}`, `corrupt{...}`) with
//!   the same parse/render discipline: gray failures, payload
//!   corruption, flapping and unidirectional blackholes as
//!   deterministic, cacheable grid values keyed only when not `none`;
//! * [`series`] streams per-cell link-utilization and queue-occupancy
//!   series as canonical JSONL (`--series DIR`), fully separate from the
//!   byte-stable result stream;
//! * [`trace`] streams per-cell flight-recorder traces (`--trace DIR`) —
//!   every per-hop path choice, every EV decision and why, every reorder
//!   and failure reaction — and [`explain`] renders one trace or series
//!   document into a human-readable report (`repsbench explain FILE`);
//!   [`progress`] keeps a live cells-done/ETA line on stderr while a
//!   sweep runs;
//! * the `repsbench` binary exposes all of it on the command line
//!   (`repsbench list`, `repsbench run --filter 'fig0*' --threads 8`,
//!   `repsbench merge merged.jsonl shard*.jsonl`).
//!
//! # Determinism contract
//!
//! A sweep's JSONL output is byte-identical for any `--threads` value:
//! cells are pure functions of their keys, and output is sorted by key.
//! Sharding and caching stay inside the contract: shard membership and
//! cache addresses are functions of the cell key alone, so
//! `merge`d shards and warm-cache re-runs reproduce the unsharded,
//! uncached bytes exactly. Series and trace documents are pure functions
//! of cell keys too, and enabling either sidecar changes no result byte.
//!
//! # Examples
//!
//! ```
//! use sweep::matrix::ScenarioMatrix;
//! use sweep::runner::run_cells;
//! use sweep::spec::WorkloadSpec;
//!
//! let matrix = ScenarioMatrix::new("demo")
//!     .workloads([WorkloadSpec::Tornado { bytes: 64 << 10 }])
//!     .seeds(2);
//! let results = run_cells(&matrix.expand(), 4);
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.summary.completed));
//! ```

pub mod axis;
pub mod cache;
pub mod explain;
pub mod fault;
pub mod fidelity;
pub mod glob;
pub mod matrix;
pub mod merge;
pub mod presets;
pub mod progress;
pub mod runner;
pub mod series;
pub mod shard;
pub mod sink;
pub mod spec;
pub mod specfile;
pub mod store;
pub mod trace;

pub use cache::{
    build_fingerprint, run_cells_cached, run_cells_instrumented, CachedRun, CellCache, RunSinks,
};
pub use explain::explain_doc;
pub use fault::FaultSpec;
pub use matrix::{Cell, CellResult, InstrumentedRun, LabeledLb, ScenarioMatrix};
pub use merge::{merge_contents, merge_files, MergedSweep};
pub use progress::Progress;
pub use runner::{default_threads, run_cells};
pub use series::series_doc;
pub use shard::Shard;
pub use sink::{
    aggregate, events_per_sec, parse_record, perf_record, render_aggregates, to_jsonl, write_jsonl,
};
pub use spec::{FabricSpec, FailureSpec, SimProfile, WorkloadSpec};
pub use specfile::SpecError;
pub use store::{CellStore, DocKind};
pub use trace::trace_doc;
