//! Total-order equivalence proof for the calendar queue.
//!
//! The two-level calendar in `netsim::event` replaced a
//! `BinaryHeap`-of-POD (see the module docs for the bakeoff history).
//! Correctness rests on one invariant: pops come out in the exact
//! `(time, seq)` total order the heap produced, where `seq` is the push
//! sequence number — same-timestamp events pop FIFO. Every golden
//! output, cell key and derived seed depends on that order.
//!
//! These properties drive random op streams — pushes with tied
//! timestamps, far-future pushes that take the overflow level,
//! past-time pushes, interleaved pops and batch drains — through both
//! the calendar and a `BinaryHeap<Reverse<(time, seq)>>` reference, and
//! assert the sequences are identical element by element. The streams
//! are long enough to cross the occupancy resize thresholds, so grows,
//! shrinks and width re-tunes are exercised mid-comparison.
//!
//! A third property drives the *lock-step* shape that random deltas
//! almost never produce: long tied runs loaded before the first pop,
//! every popped event rescheduling itself a fixed serialization-like
//! delta ahead — mostly into the bucket being drained — plus pushes at
//! exactly the head's timestamp and a few ps after it. That is the
//! regime of the draining bucket's late run and of the observed retunes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use netsim::event::{Event, EventQueue};
use netsim::ids::HostId;
use netsim::time::Time;

/// The reference model: the exact order the pre-calendar heap produced.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(Time, u64, u64)>>,
    seq: u64,
}

impl RefHeap {
    fn push(&mut self, at: Time, token: u64) {
        self.heap.push(Reverse((at, self.seq, token)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, u64, u64)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek(&self) -> Option<(Time, u64)> {
        self.heap.peek().map(|Reverse((t, s, _))| (*t, *s))
    }
}

/// Extracts the identity token the ops encode into timer events.
fn token_of(ev: &Event) -> u64 {
    match ev {
        Event::Timer { token, .. } => *token,
        other => panic!("ops only push timers, popped {other:?}"),
    }
}

/// Pushes one op's event into both queues, deriving the timestamp from
/// the op byte: small uniform deltas (the common case), exact ties with
/// the previous push, far-future jumps that must take the overflow
/// level, and past-time pushes below the current pop horizon.
fn push_op(
    q: &mut EventQueue,
    r: &mut RefHeap,
    kind: u8,
    raw: u32,
    now: Time,
    last_push: &mut Time,
    token: u64,
) {
    let at = match kind % 8 {
        // Tie: identical timestamp to the previous push (FIFO proof).
        0 => *last_push,
        // Far future: way past any plausible ring horizon.
        1 => now + Time::from_us(100 + (raw % 10_000) as u64),
        // Past time: at or below the pop horizon.
        2 => Time::from_ps(now.as_ps().saturating_sub((raw % 4096) as u64)),
        // Small deltas: the steady-state inter-event gap.
        _ => now + Time::from_ps(1 + (raw % (1 << 14)) as u64),
    };
    *last_push = at;
    q.push(
        at,
        Event::Timer {
            host: HostId(0),
            token,
        },
    );
    r.push(at, token);
}

proptest! {
    /// Interleaved push/pop streams: the calendar's `(time, seq)` pop
    /// sequence equals the reference heap's, element by element.
    #[test]
    fn pop_sequence_matches_binheap_reference(
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 1..600),
        drain_tail in any::<bool>(),
    ) {
        let mut q = EventQueue::new();
        let mut r = RefHeap::default();
        let mut now = Time::ZERO;
        let mut last_push = Time::ZERO;
        let mut token = 0u64;

        for (action, kind, raw) in ops {
            // ~1/4 pops keep the queues partially drained so the
            // cursor sweeps and resize thresholds both trigger.
            if action % 4 == 0 {
                let want = r.pop();
                let got_key = q.peek_key();
                prop_assert_eq!(got_key, want.map(|(t, s, _)| (t, s)), "peek_key diverged");
                let got = q.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some((gt, ev)), Some((wt, _, wtok))) => {
                        prop_assert_eq!(gt, wt, "pop time diverged");
                        prop_assert_eq!(token_of(&ev), wtok, "pop identity diverged");
                        now = gt;
                    }
                    (g, w) => prop_assert!(false, "pop presence diverged: {g:?} vs {w:?}"),
                }
            } else {
                push_op(&mut q, &mut r, kind, raw, now, &mut last_push, token);
                token += 1;
            }
            prop_assert_eq!(q.len(), r.heap.len(), "length diverged");
        }

        if drain_tail {
            // Exhaust both completely: the tail crosses shrink
            // thresholds and the ring-empty → overflow-jump path.
            while let Some((wt, _, wtok)) = r.pop() {
                let (gt, ev) = q.pop().expect("calendar drained early");
                prop_assert_eq!(gt, wt, "tail pop time diverged");
                prop_assert_eq!(token_of(&ev), wtok, "tail identity diverged");
            }
            prop_assert!(q.pop().is_none(), "calendar held extra events");
        }
    }

    /// Batch drains take exactly the maximal tied-timestamp run, in seq
    /// order, and the remaining stream still matches the reference.
    #[test]
    fn batch_drain_matches_binheap_reference(
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut r = RefHeap::default();
        let mut now = Time::ZERO;
        let mut last_push = Time::ZERO;
        let mut token = 0u64;
        let mut batch = Vec::new();

        for (action, kind, raw) in ops {
            if action % 5 == 0 {
                batch.clear();
                let got_t = q.drain_batch_into(&mut batch);
                prop_assert_eq!(got_t, r.peek().map(|(t, _)| t), "batch head time diverged");
                // The batch must be the full tied-run at the head time,
                // in ascending seq order, matching the reference pops.
                for &(bt, bseq, ref ev) in &batch {
                    let (wt, wseq, wtok) = r.pop().expect("reference drained early");
                    prop_assert_eq!(bt, wt, "batch entry time diverged");
                    prop_assert_eq!(bseq, wseq, "batch entry seq diverged");
                    prop_assert_eq!(token_of(ev), wtok, "batch identity diverged");
                }
                if let Some(t) = got_t {
                    // Maximality: the next reference event is strictly later.
                    if let Some((nt, _)) = r.peek() {
                        prop_assert!(nt > t, "batch stopped inside a tied run");
                    }
                    now = t;
                }
            } else {
                push_op(&mut q, &mut r, kind, raw, now, &mut last_push, token);
                token += 1;
            }
            prop_assert_eq!(q.len(), r.heap.len(), "length diverged");
        }
    }

    /// Lock-step load: tied bursts, successors filed into the draining
    /// bucket, pushes at and just after the head time while that bucket
    /// is sorted — interleaved pops and batch drains must match the
    /// reference through late-run merges and grow/retune/shrink rebuilds,
    /// and every batch must be the maximal tied run.
    #[test]
    fn lockstep_bursts_match_binheap_reference(
        bursts in 4usize..24,
        burst_len in 8u64..64,
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 200..800),
    ) {
        // A 64 B and an MTU serialization at 400 Gbps, one link hop, and a
        // far timer that takes (and, in numbers, overloads) the overflow.
        const DELTAS_PS: [u64; 4] = [1_300, 83_200, 600_000, 40_000_000];
        let mut q = EventQueue::new();
        let mut r = RefHeap::default();
        let mut token = 0u64;
        let mut push = |q: &mut EventQueue, r: &mut RefHeap, at: Time| {
            q.push(at, Event::Timer { host: HostId(0), token });
            r.push(at, token);
            token += 1;
        };
        // The whole schedule lands before the first pop, 2.6 ns between
        // bursts: every count-driven rebuild sees no gap sample.
        for b in 0..bursts as u64 {
            for _ in 0..burst_len {
                push(&mut q, &mut r, Time::from_ps(b * 2_600));
            }
        }
        let mut batch = Vec::new();
        for (action, kind, raw) in ops {
            let head = r.peek().map(|(t, _)| t);
            match action % 8 {
                // Push exactly at the head's timestamp, and a few ps after.
                0 => {
                    if let Some(t) = head {
                        push(&mut q, &mut r, t);
                        push(&mut q, &mut r, t + Time::from_ps(1 + (raw % 4) as u64));
                    }
                }
                // Single pop; the event reschedules itself.
                1 | 2 => {
                    prop_assert_eq!(q.peek_key(), r.peek(), "peek_key diverged");
                    let (got, want) = (q.pop(), r.pop());
                    prop_assert_eq!(
                        got.map(|(t, ev)| (t, token_of(&ev))),
                        want.map(|(t, _, tok)| (t, tok)),
                        "pop diverged"
                    );
                    if let Some((t, _)) = got {
                        push(&mut q, &mut r, t + Time::from_ps(DELTAS_PS[kind as usize % 4]));
                    }
                }
                // Batch drain; each member reschedules itself. `kind`
                // picks the mix: one delta for all keeps the burst tied
                // (and, at 1.3 ns, the late run busy), the cycle splits
                // it three ways across the ring, and the last sends every
                // other member to the overflow level.
                _ => {
                    batch.clear();
                    let got_t = q.drain_batch_into(&mut batch);
                    prop_assert_eq!(got_t, head, "batch head time diverged");
                    for &(bt, bseq, ref ev) in &batch {
                        let (wt, wseq, wtok) = r.pop().expect("reference drained early");
                        prop_assert_eq!((bt, bseq, token_of(ev)), (wt, wseq, wtok), "batch entry diverged");
                    }
                    if let (Some(t), Some((nt, _))) = (got_t, r.peek()) {
                        prop_assert!(nt > t, "batch stopped inside a tied run");
                    }
                    for i in 0..batch.len() {
                        let d = match kind % 4 {
                            0 => DELTAS_PS[0],
                            1 => DELTAS_PS[1],
                            2 => DELTAS_PS[i % 3],
                            _ => DELTAS_PS[2 + i % 2],
                        };
                        push(&mut q, &mut r, batch[i].0 + Time::from_ps(d));
                    }
                }
            }
            prop_assert_eq!(q.len(), r.heap.len(), "length diverged");
        }
        // Drain to empty: crosses the shrink path with late runs pending.
        while let Some((wt, _, wtok)) = r.pop() {
            let (gt, ev) = q.pop().expect("calendar drained early");
            prop_assert_eq!((gt, token_of(&ev)), (wt, wtok), "tail pop diverged");
        }
        prop_assert!(q.pop().is_none(), "calendar held extra events");
    }
}
