//! The benchmark's only wall-clock read.
//!
//! The repo's determinism linter forbids wall-clock reads workspace-wide
//! (DET002); measuring host time is this package's whole purpose, so every
//! timestamp goes through [`now`] and the one reviewed pragma below.

use std::time::Instant;

/// The current instant on the monotonic clock.
pub fn now() -> Instant {
    // detlint: allow(DET002) — benchmark measurement
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}
