//! `alloctrace` — one-off allocation accounting for the hot-path cell.
//!
//! Runs the same permutation cell as `microbench`'s gated benchmark under
//! a counting global allocator and reports allocations per simulator
//! event, split into build phase vs. run phase. Diagnostic tool for the
//! zero-allocation work; not part of CI.

use baselines::kind::LbKind;
use harness::experiment::Experiment;
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::FatTreeConfig;
use reps::reps::RepsConfig;
use workloads::patterns;

#[global_allocator]
static A: tinybench::alloc::Counting = tinybench::alloc::Counting;

fn snap() -> (u64, u64) {
    (tinybench::alloc::allocs(), tinybench::alloc::bytes())
}

fn main() {
    let mut rng = Rng64::new(3);
    let w = patterns::permutation(32, 1 << 20, &mut rng);
    let mut exp = Experiment::new(
        "alloctrace",
        FatTreeConfig::two_tier(8, 1),
        LbKind::Reps(RepsConfig::default()),
        w,
    );
    exp.seed = 3;
    exp.deadline = Time::from_ms(100);

    let (a0, b0) = snap();
    let mut engine = exp.build();
    let (a1, b1) = snap();
    let mut events = 0;
    let mut max_pending = 0usize;
    let mut t = Time::ZERO;
    while t < exp.deadline {
        t += Time::from_us(20);
        events += engine.run_until(t);
        max_pending = max_pending.max(engine.pending_events());
        if engine.pending_events() == 0 {
            break;
        }
    }
    let (a2, b2) = snap();
    println!("max pending events: {max_pending}");

    println!("build:  {} allocs, {} KiB", a1 - a0, (b1 - b0) / 1024);
    println!(
        "run:    {} allocs, {} KiB over {} events",
        a2 - a1,
        (b2 - b1) / 1024,
        events
    );
    println!(
        "run:    {:.3} allocs/event, {:.1} bytes/event",
        (a2 - a1) as f64 / events as f64,
        (b2 - b1) as f64 / events as f64
    );
}
