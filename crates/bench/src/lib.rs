//! What the sweep engine does not cover: theory figures and benchmarks.
//!
//! Every *simulation* figure of the paper is a declarative preset run by
//! `repsbench run --filter 'figNN*'` (see the top-level `README.md` for
//! the figure → command index). This crate keeps the three things that
//! are not sweeps:
//!
//! * [`theory`] and the `theory [GLOB]` binary — Table 1 and the
//!   balls-into-bins / trace-CDF figures (14, 17, 18, 20, 24), which are
//!   closed-form or Monte-Carlo models with no simulated fabric;
//! * `microbench` — the tinybench hot-path suite CI gates on;
//! * `alloctrace` — allocation accounting for the hot-path cell.

pub mod theory;
