//! `detlint` — offline determinism-and-safety static analysis.
//!
//! Every guarantee this repo sells — byte-identical JSONL across
//! `--threads`/`--shard` splits, cache addresses that are pure functions
//! of cell keys, golden-pinned figures — rests on invariants that unit
//! tests can only check *after the fact*. PR 1 shipped (and then had to
//! fix) three real cross-process nondeterminism bugs, all one bug class:
//! `RandomState` `HashMap` iteration order reaching RNG draws and output
//! bytes (RTO sweeps, retransmit queues, ACK flushes). `detlint` catches
//! that class — and its relatives — statically, at the PR boundary, with
//! zero dependencies so it runs before anything else compiles.
//!
//! # Determinism rules
//!
//! | Rule | What it flags | Why |
//! |------|---------------|-----|
//! | `DET001` | `HashMap`/`HashSet` in `netsim`/`transport`/`core`/`baselines`/`sweep` | `RandomState` iteration order varies per process — the PR 1 bug class. Use [`netsim::hash`]'s `FxHashMap` (deterministic) or `BTreeMap`/`BTreeSet` where order reaches output. |
//! | `DET002` | `Instant::now` / `SystemTime` outside `crates/tinybench/` | Wall-clock values must never reach result bytes; perf measurement sites carry a pragma so each is a reviewed artifact. |
//! | `DET003` | pointer-to-`usize` casts (`.as_ptr() as usize`, `as *const T as usize`) | Addresses are per-process (ASLR); an address that becomes a value (hash, key, sort tiebreak) is nondeterminism. |
//! | `DET004` | float literals / `f32`/`f64` in cell-key and seed-derivation scopes (all of `sweep::axis`, `sweep::shard` and `netsim::hash`; `sweep::matrix::{key,scenario,derived_seed,fnv1a64}` and the `label` functions of `sweep::{spec,fault,fidelity}`) | Keys, derived seeds, shard membership and cache addresses must be exact integer/string functions — float rounding is platform- and opt-level-sensitive. |
//! | `SAFE001` | `unsafe` blocks/impls without an immediately preceding `// SAFETY:` comment | The arena/calendar PRs introduced unsafe whose soundness lived only in review; the argument now lives next to the code. |
//!
//! # Pragmas
//!
//! Findings are suppressible only inline:
//!
//! ```text
//! // detlint: allow(DET001) — this alias IS the deterministic replacement
//! ```
//!
//! so every exemption is grep-able (`grep -rn 'detlint: allow'`) and
//! reviewed. The reason is mandatory; an unknown rule name or a missing
//! reason is itself a finding (`PRAGMA001`).
//!
//! # Design
//!
//! No `syn`, no crates.io: a hand-rolled lossless lexer
//! ([`lexer`]) classifies every byte (comments, raw strings, char vs
//! lifetime, float vs int), and the rules ([`rules`]) walk the token
//! stream with path- and function-level scoping. `cargo run -p detlint
//! -- --check` walks the workspace and exits non-zero on any finding;
//! the same engine is exercised by fixture tests (one seeded-violation
//! and one clean file per rule) and by a live workspace-clean test, so
//! CI and `cargo test` agree.
//!
//! [`netsim::hash`]: ../netsim/hash/index.html

pub mod lexer;
pub mod rules;
pub mod walk;
