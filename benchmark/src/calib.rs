//! Host-speed calibration.
//!
//! The sandbox's vCPUs drift: the same `repsbench` pass reads 0.36 s in one
//! minute and 0.48 s a few minutes later, CPU time moving with wall time, so
//! neither more passes nor medians remove it. What does is measuring the
//! host's speed before and after every set-up and pass with a fixed kernel
//! that no change to the program can touch, and reporting times as if the
//! host ran at its nominal speed: `corrected = measured ÷ slowdown`, where
//! the slowdown of a phase is the median kernel time over the phase ÷
//! [`NOMINAL_S`].

use std::hint::black_box;

use crate::clock;

/// What one kernel run takes on the reference host when it is quiet. Pinned:
/// changing it rescales every corrected time of every later run.
pub const NOMINAL_S: f64 = 0.012;

/// Slots of the pointer-chase ring: 512 KiB of `u32`, bigger than L1 and
/// inside L2, the level a discrete-event loop mostly lives in.
const SLOTS: usize = 1 << 17;
/// Chase steps per kernel run.
const STEPS: usize = 2_000_000;

/// The calibration kernel: a dependent pointer chase through a fixed random
/// cycle with an integer multiply-add per step — latency-bound, branch-free,
/// allocation-free, and the same instructions on every run.
pub struct Calibrator {
    ring: Vec<u32>,
    /// Kernel times sampled since the last [`Calibrator::take_slowdown`].
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Builds the ring: one cycle through all slots (Sattolo's shuffle from a
    /// fixed LCG stream).
    pub fn new() -> Calibrator {
        let mut ring: Vec<u32> = (0..SLOTS as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..SLOTS).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % i;
            ring.swap(i, j);
        }
        Calibrator {
            ring,
            samples: Vec::new(),
        }
    }

    /// Seconds one kernel run takes right now.
    pub fn run(&self) -> f64 {
        let started = clock::now();
        let (mut at, mut acc) = (0u32, 0u64);
        for _ in 0..STEPS {
            at = self.ring[at as usize];
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(at));
        }
        black_box(acc);
        clock::secs_since(started)
    }

    /// Samples the kernel three times (one phase boundary).
    pub fn sample(&mut self) {
        for _ in 0..3 {
            let t = self.run();
            self.samples.push(t);
        }
    }

    /// How much slower than nominal the host ran over the samples taken since
    /// the last call (1 = nominal), forgetting them.
    pub fn take_slowdown(&mut self) -> f64 {
        let slowdown = crate::stats::median(&self.samples) / NOMINAL_S;
        self.samples.clear();
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_through_every_slot() {
        let c = Calibrator::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.ring[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, SLOTS);
        let mut c = c;
        c.sample();
        assert!(c.take_slowdown() > 0.0);
        assert!(c.samples.is_empty());
    }
}
