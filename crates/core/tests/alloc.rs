//! REPS keeps its whole state inline at the paper's buffer depth:
//! building a balancer and running it through warm-up, recycling and a
//! freeze allocates nothing. Deeper buffers spill to the heap once, when
//! their ninth slot is first written.
//!
//! The pins count through `tinybench::alloc::measure`, which sees only
//! the measuring thread's allocations, so a sibling test running on
//! another thread cannot add to them.

use netsim::rng::Rng64;
use netsim::time::Time;
use reps::{AckFeedback, LoadBalancer, Reps, RepsConfig};

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

/// Allocations made by building a balancer for `buffer_size` and sending,
/// ACKing and timing out `rounds` times.
fn allocs_of(buffer_size: usize, rounds: u64) -> u64 {
    let mut rng = Rng64::new(3);
    let (reps, allocs) = tinybench::alloc::measure(|| {
        let mut reps = Reps::new(RepsConfig {
            buffer_size,
            ..RepsConfig::default()
        });
        for i in 0..rounds {
            let now = Time::from_us(i);
            let ev = reps.next_ev(now, &mut rng);
            let fb = AckFeedback {
                ev,
                ecn: i % 5 == 0,
                now,
                cwnd_packets: 16,
                rtt: Time::from_us(10),
            };
            reps.on_ack(&fb, &mut rng);
            if i % 50 == 0 {
                reps.on_timeout(now);
            }
        }
        reps
    });
    drop(reps);
    allocs
}

#[test]
fn reps_allocates_nothing_at_the_paper_buffer_depth() {
    assert_eq!(allocs_of(8, 0), 0, "Reps::new at buf=8");
    assert_eq!(
        allocs_of(8, 1_000),
        0,
        "buf=8 through recycling and freezes"
    );
    assert_eq!(allocs_of(1, 1_000), 0, "buf=1");
    // A 16-deep buffer spills when its ninth slot is written: a box, and
    // room for all sixteen slots in it.
    assert_eq!(allocs_of(16, 0), 0, "Reps::new at buf=16");
    assert_eq!(allocs_of(16, 1_000), 2, "buf=16 spills once");
}
