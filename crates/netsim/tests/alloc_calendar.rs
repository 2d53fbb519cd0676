//! Allocation accounting for the event queue itself.
//!
//! The queue (`netsim::event`) promises **zero** steady-state heap
//! allocations: every buffer it owns — the lane rings, the binary heap
//! behind them, the payload slabs — grows to a high-water mark during
//! warm-up and is then reused forever, so a steady workload allocates
//! nothing.
//!
//! This test drives the queue directly (no engine, no links) through
//! three loads and pins the measured phase of each at zero allocations
//! under a counting global allocator: a hold model with same-timestamp
//! ties, batch drains and far-future pushes; a lock-step burst→drain
//! cycle that empties the queue every time (both timers only: the heap
//! level); and a link-shaped load — a lock-step start of packet-path
//! events, each batch member rescheduled one of four link constants
//! ahead — that lives on the lanes. The engine-level proof (switch path
//! + arena + queue together) lives in `tests/alloc.rs`.
//!
//! The loads run back to back in one test. Each pin counts through
//! `tinybench::alloc::measure`, which sees only the measuring thread's
//! allocations.

use netsim::arena::PacketRef;
use netsim::event::{Event, EventQueue};
use netsim::ids::{HostId, LinkId, NodeRef, SwitchId};
use netsim::rng::Rng64;
use netsim::time::Time;

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

/// One hold-model step: drain the head batch (ties pop together), then
/// refile one event per drained slot at a jittered future time. Every
/// 64th refile goes far-future, and every 16th is an exact tie with the
/// previous push.
fn step(q: &mut EventQueue, batch: &mut Vec<(Time, u64, Event)>, rng: &mut Rng64, i: u64) {
    batch.clear();
    let t = q
        .drain_batch_into(batch)
        .expect("hold model never drains the queue");
    let mut last = t;
    for (k, (_, _, ev)) in batch.drain(..).enumerate() {
        let at = match (i + k as u64) % 64 {
            0 => t + Time::from_us(50 + rng.gen_range(1 << 10)),
            n if n % 16 == 1 => last,
            _ => t + Time::from_ns(1 + rng.gen_range(1 << 12)),
        };
        last = at;
        q.push(at, ev);
    }
}

/// One lock-step cycle starting at `base`: a burst of tied runs lands
/// before anything pops (16 runs 2.6 ns apart), then the queue drains
/// to empty with every event taking three more hops — an ACK and an MTU
/// serialization at 400 Gbps, then a link traversal.
fn lockstep_cycle(q: &mut EventQueue, batch: &mut Vec<(Time, u64, Event)>, base: Time, burst: u64) {
    const HOPS_PS: [u64; 3] = [1_300, 83_200, 600_000];
    for token in 0..burst {
        q.push(
            base + Time::from_ps(token * 16 / burst * 2_600),
            Event::Timer {
                host: HostId(0),
                token: 0,
            },
        );
    }
    while let Some(t) = q.drain_batch_into(batch) {
        for (_, _, ev) in batch.drain(..) {
            let Event::Timer { host, token: hop } = ev else {
                unreachable!("the cycle only pushes timers");
            };
            if let Some(&delta) = HOPS_PS.get(hop as usize) {
                q.push(
                    t + Time::from_ps(delta),
                    Event::Timer {
                        host,
                        token: hop + 1,
                    },
                );
            }
        }
    }
}

/// One link-shaped step: drain the head batch, then schedule for each
/// member what the packet path would — a service completion's arrival a
/// hop ahead and the link's next serialization, an arrival's enqueue
/// behind an ACK-sized or an MTU-sized frame — so the four constants
/// interleave in every batch. Each member has exactly one successor: the
/// hold stays what the lock-step start loaded. One RTO-like timer rides
/// along on the heap level, so batches merge both levels.
fn link_step(q: &mut EventQueue, batch: &mut Vec<(Time, u64, Event)>, i: u64) {
    /// Header and MTU serialization at 400 Gb/s, host-bound and
    /// switch-bound hop.
    const DELTAS_PS: [u64; 4] = [1_280, 83_200, 500_000, 1_000_000];
    let t = q
        .drain_batch_into(batch)
        .expect("hold model never drains the queue");
    for (k, (_, _, ev)) in batch.drain(..).enumerate() {
        let delta = Time::from_ps(DELTAS_PS[(i as usize + k) % 4]);
        let next = match ev {
            Event::QueueService { link } => Event::Arrive {
                node: NodeRef::Switch(SwitchId(0)),
                pkt: PacketRef(link.0),
            },
            Event::Arrive { pkt, .. } => Event::QueueService {
                link: LinkId(pkt.0),
            },
            Event::Timer { .. } => {
                q.push(t + Time::from_us(25), ev);
                continue;
            }
            Event::Control(_) => unreachable!("the load pushes no controls"),
        };
        q.push(t + delta, next);
    }
}

#[test]
fn calendar_steady_state_allocates_nothing() {
    #[cfg(not(miri))]
    const HELD: u64 = 4096;
    #[cfg(not(miri))]
    const WARMUP: u64 = 1 << 16;
    #[cfg(not(miri))]
    const MEASURED: u64 = 1 << 13;
    // Miri runs the same model at a fraction of the iteration count —
    // still enough to grow the heap and wrap the lane rings, but small
    // enough to finish in CI minutes.
    #[cfg(miri)]
    const HELD: u64 = 128;
    #[cfg(miri)]
    const WARMUP: u64 = 1 << 9;
    #[cfg(miri)]
    const MEASURED: u64 = 1 << 6;

    let mut q = EventQueue::new();
    let mut rng = Rng64::new(7);
    let mut batch: Vec<(Time, u64, Event)> = Vec::new();
    for token in 0..HELD {
        q.push(
            Time::from_ns(rng.gen_range(1 << 16)),
            Event::Timer {
                host: HostId(0),
                token,
            },
        );
    }

    // Warm-up: long enough for the heap and the timer slab to reach
    // their high-water marks.
    for i in 0..WARMUP {
        step(&mut q, &mut batch, &mut rng, i);
    }

    let ((), during) = tinybench::alloc::measure(|| {
        for i in 0..MEASURED {
            step(&mut q, &mut batch, &mut rng, WARMUP + i);
        }
    });

    assert_eq!(
        q.len(),
        HELD as usize,
        "hold model must conserve its events"
    );
    // The zero-alloc pin is native-only: miri's short warm-up does not
    // settle the high-water mark, and there the test's job is checking
    // the queue's pointer discipline, not its allocator behaviour.
    #[cfg(not(miri))]
    assert_eq!(
        during, 0,
        "calendar steady state must not allocate: {during} allocations \
         across {MEASURED} batch cycles"
    );
    #[cfg(miri)]
    let _ = during;

    // Second load: lock-step burst→drain cycles on a fresh queue.
    #[cfg(not(miri))]
    const BURST: u64 = 4096;
    #[cfg(not(miri))]
    const CYCLES: u64 = 48;
    #[cfg(miri)]
    const BURST: u64 = 256;
    #[cfg(miri)]
    const CYCLES: u64 = 6;
    let mut q = EventQueue::new();
    let period = Time::from_ps(1 << 26);
    for cycle in 0..CYCLES {
        lockstep_cycle(
            &mut q,
            &mut batch,
            Time::from_ps(period.as_ps() * cycle),
            BURST,
        );
    }
    let ((), during) = tinybench::alloc::measure(|| {
        for cycle in CYCLES..CYCLES + 8 {
            lockstep_cycle(
                &mut q,
                &mut batch,
                Time::from_ps(period.as_ps() * cycle),
                BURST,
            );
        }
    });
    assert!(q.is_empty(), "every cycle drains the queue");
    #[cfg(not(miri))]
    assert_eq!(
        during,
        0,
        "lock-step burst→drain cycles must not allocate after warm-up: \
         {during} allocations across 8 cycles ({:?})",
        q.stats()
    );
    #[cfg(miri)]
    let _ = during;

    // Third load: link-shaped traffic on a fresh queue — every NIC starts
    // serializing at t = 0, and the lanes take every packet-path push.
    let mut q = EventQueue::new();
    q.push(
        Time::from_us(25),
        Event::Timer {
            host: HostId(0),
            token: 0,
        },
    );
    for link in 0..HELD as u32 {
        q.push(
            Time::from_ps(83_200),
            Event::QueueService { link: LinkId(link) },
        );
    }
    for i in 0..WARMUP {
        link_step(&mut q, &mut batch, i);
    }
    let warm = q.stats();
    let ((), during) = tinybench::alloc::measure(|| {
        for i in 0..MEASURED {
            link_step(&mut q, &mut batch, WARMUP + i);
        }
    });
    assert_eq!(q.len(), HELD as usize + 1, "the load conserves its events");
    let stats = q.stats();
    assert!(
        stats.lane_pushes > warm.lane_pushes
            && stats.lane_misfits == 0
            && (2..=4).contains(&stats.lanes_open),
        "four constants from a clock that never goes back take lanes, all of them: {stats:?}"
    );
    #[cfg(not(miri))]
    assert_eq!(
        during, 0,
        "lanes must keep their high-water capacity: {during} allocations \
         across {MEASURED} batches ({stats:?})"
    );
    #[cfg(miri)]
    let _ = during;
}
