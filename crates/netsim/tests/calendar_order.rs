//! Total-order equivalence proof for the event queue.
//!
//! The queue in `netsim::event` — monotone lanes in front of a binary
//! heap — replaced one `BinaryHeap`-of-POD for every event (see the
//! module docs for the bakeoff history). Correctness rests on one
//! invariant: pops come out in the exact `(time, seq)` total order that
//! heap produced, where `seq` is the push sequence number —
//! same-timestamp events pop FIFO. Every golden output, cell key and
//! derived seed depends on that order.
//!
//! These properties drive random op streams — pushes with tied
//! timestamps, far-future pushes, past-time pushes, interleaved pops and
//! batch drains — through both the queue and a
//! `BinaryHeap<Reverse<(time, seq)>>` reference, and assert the sequences
//! are identical element by element.
//!
//! Which level an event takes depends on its kind — `QueueService` and
//! `Arrive` go to a lane when one admits them, `Timer` and `Control`
//! always to the heap level — so every property runs its stream three
//! times: timers only (the heap level alone), packet-path events only
//! (lanes, with misfits spilling to the heap level), and all four kinds
//! mixed (every batch merges levels).
//!
//! A third property drives the *lock-step* shape that random deltas
//! almost never produce: long tied runs loaded before the first pop,
//! every popped event rescheduling itself a fixed serialization-like
//! delta ahead, plus pushes at exactly the head's timestamp and a few ps
//! after it.
//!
//! A fourth is *link-shaped*, the regime the lanes are built for: a
//! clock that never goes back, every push `now + one of k constants`
//! with `k` from 1 to 12 so best fit both settles (`k <= 8`) and runs
//! out of lanes, ties at the head's timestamp, RTO-like timers, a
//! past-time push, and the engine's resume case — a batch abandoned
//! half-way, an earlier event pushed, the leftovers merged back against
//! the queue head key by key.
//!
//! A fifth is a flap schedule expanded up front, the largest population
//! the level behind the lanes is asked to hold (the engine now generates
//! flaps as they fire, but any caller may schedule controls this way):
//! tens of thousands of absolute-time
//! controls loaded before the first pop (with ties across cables), then a
//! link-shaped lane stream with per-host sweep timers re-armed a constant
//! ahead, interleaved `pop`/`peek_key`/`drain_batch_until` with deadlines
//! short of the head, a mid-batch stop and an earlier push.
//!
//! A sixth reserves sequence numbers and pushes controls under them
//! later (`reserve` / `push_reserved`, how a flap's toggles are generated
//! as they fire): the reference takes every reserved entry at reservation
//! time, the queue only when the entry is pushed — early, at random, or
//! just before it is due — amid ordinary pushes, pops and batch drains.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use netsim::arena::PacketRef;
use netsim::event::{ControlEvent, Event, EventQueue};
use netsim::ids::{HostId, LinkId, NodeRef, SwitchId};
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

/// Property 6's body: controls pushed under reserved numbers (see the
/// file docs). `pending` holds the reserved entries the reference has and
/// the queue does not yet, as `(time, seq, token)`.
fn check_reserved_pushes(kinds: Kinds, ops: &[(u8, u8, u32)]) {
    let mut p = Pair::new(kinds);
    let mut pending: Vec<(Time, u64, u64)> = Vec::new();
    let push_reserved = |p: &mut Pair, (at, seq, token): (Time, u64, u64)| {
        p.q.push_reserved(at, seq, ControlEvent::Custom(token));
    };
    // Pushes every pending entry a pop or drain could reach: those at or
    // before the reference's head, which may be one of them.
    let push_due = |p: &mut Pair, pending: &mut Vec<(Time, u64, u64)>| {
        let Some((head, _)) = p.r.peek() else { return };
        while let Some(i) = pending.iter().position(|&(at, _, _)| at <= head) {
            push_reserved(p, pending.swap_remove(i));
        }
    };
    let mut now = Time::ZERO;
    let mut last_push = Time::ZERO;
    let mut batch = Vec::new();
    for &(action, kind, raw) in ops {
        let popped = match action % 10 {
            // Reserve a block and decide its entries now, each after the
            // clock: a tie with the latest push, a small step, or far.
            0 | 1 => {
                let n = 1 + u64::from(raw % 8);
                let first = p.q.reserve(n);
                assert_eq!(first, p.r.seq, "reserve handed out another number");
                for seq in first..first + n {
                    let at = match (kind as u64 + seq) % 3 {
                        0 => last_push.max(now + Time::from_ps(1)),
                        1 => now + Time::from_ps(1 + (seq * 7919 + raw as u64) % (1 << 14)),
                        _ => now + Time::from_us(100 + (raw % 10_000) as u64),
                    };
                    p.r.heap.push(Reverse((at, seq, p.token)));
                    pending.push((at, seq, p.token));
                    p.token += 1;
                }
                p.r.seq += n;
                None
            }
            // Push one pending entry early.
            2 => {
                if !pending.is_empty() {
                    let entry = pending.swap_remove(raw as usize % pending.len());
                    push_reserved(&mut p, entry);
                }
                None
            }
            3 => {
                push_due(&mut p, &mut pending);
                p.pop()
            }
            4 | 5 => {
                push_due(&mut p, &mut pending);
                let deadline = now + Time::from_ps(u64::from(raw % (1 << 15)));
                p.drain_batch_until(deadline, &mut batch)
            }
            _ => {
                push_op(&mut p, kind, raw, now, &mut last_push);
                None
            }
        };
        if let Some(t) = popped {
            now = t;
        }
        assert_eq!(p.q.len() + pending.len(), p.r.heap.len(), "length diverged");
    }
    for entry in pending.drain(..) {
        push_reserved(&mut p, entry);
    }
    p.drain_tail();
}

/// Which event kinds a stream pushes, and so which queue levels it uses.
#[derive(Debug, Clone, Copy)]
enum Kinds {
    /// `Timer` only: everything stays on the heap level.
    Timers,
    /// `QueueService` and `Arrive`: lanes, and the heap level for
    /// whatever no lane admits.
    Packets,
    /// All four kinds.
    Mixed,
}

const ALL_KINDS: [Kinds; 3] = [Kinds::Timers, Kinds::Packets, Kinds::Mixed];

/// The event carrying identity `token` in a `kinds` stream.
fn event_for(kinds: Kinds, token: u64) -> Event {
    let variant = match kinds {
        Kinds::Timers => 0,
        Kinds::Packets => 1 + token % 3,
        Kinds::Mixed => token % 5,
    };
    match variant {
        0 => Event::Timer {
            host: HostId(0),
            token,
        },
        1 => Event::QueueService {
            link: LinkId(token as u32),
        },
        2 => Event::Arrive {
            node: NodeRef::Host(HostId(1)),
            pkt: PacketRef(token as u32),
        },
        3 => Event::Arrive {
            node: NodeRef::Switch(SwitchId(2)),
            pkt: PacketRef(token as u32),
        },
        _ => Event::Control(ControlEvent::Custom(token)),
    }
}

/// Extracts the identity token [`event_for`] encoded.
fn token_of(ev: &Event) -> u64 {
    match *ev {
        Event::Timer { token, .. } | Event::Control(ControlEvent::Custom(token)) => token,
        Event::QueueService { link } => link.0 as u64,
        Event::Arrive { pkt, .. } => pkt.0 as u64,
        other => panic!("popped an event no stream pushes: {other:?}"),
    }
}

/// The queue under test and the reference, pushed in step.
struct Pair {
    q: EventQueue,
    r: RefHeap,
    kinds: Kinds,
    token: u64,
}

impl Pair {
    fn new(kinds: Kinds) -> Pair {
        Pair {
            q: EventQueue::new(),
            r: RefHeap::default(),
            kinds,
            token: 0,
        }
    }

    /// Pushes the stream's next event at `at` into both queues.
    fn push(&mut self, at: Time) {
        self.push_event(at, event_for(self.kinds, self.token));
    }

    /// Pushes `ev` re-labelled with the next token into both queues.
    fn push_event(&mut self, at: Time, ev: Event) {
        let token = self.token;
        self.token += 1;
        let ev = match ev {
            Event::Timer { host, .. } => Event::Timer { host, token },
            Event::QueueService { .. } => Event::QueueService {
                link: LinkId(token as u32),
            },
            Event::Arrive { node, .. } => Event::Arrive {
                node,
                pkt: PacketRef(token as u32),
            },
            Event::Control(_) => Event::Control(ControlEvent::Custom(token)),
        };
        self.q.push(at, ev);
        self.r.push(at, token);
    }

    /// Pops one event from both, checking `peek_key`, time and identity.
    fn pop(&mut self) -> Option<Time> {
        assert_eq!(self.q.peek_key(), self.r.peek(), "peek_key diverged");
        let (got, want) = (self.q.pop(), self.r.pop());
        assert_eq!(
            got.map(|(t, ev)| (t, token_of(&ev))),
            want.map(|(t, _, tok)| (t, tok)),
            "pop diverged"
        );
        got.map(|(t, _)| t)
    }

    /// Drains the head batch into `batch`, checking it is the reference's
    /// maximal tied run in `seq` order.
    fn drain_batch(&mut self, batch: &mut Vec<(Time, u64, Event)>) -> Option<Time> {
        self.drain_batch_until(Time::MAX, batch)
    }

    /// [`Pair::drain_batch`] unless the head is after `deadline`: then
    /// nothing may be popped.
    fn drain_batch_until(
        &mut self,
        deadline: Time,
        batch: &mut Vec<(Time, u64, Event)>,
    ) -> Option<Time> {
        batch.clear();
        let head = self.r.peek().map(|(t, _)| t).filter(|&t| t <= deadline);
        let got_t = self.q.drain_batch_until(deadline, batch);
        assert_eq!(got_t, head, "batch head time diverged");
        for &(bt, bseq, ref ev) in batch.iter() {
            let (wt, wseq, wtok) = self.r.pop().expect("reference drained early");
            assert_eq!(
                (bt, bseq, token_of(ev)),
                (wt, wseq, wtok),
                "batch entry diverged"
            );
        }
        if let (Some(t), Some((nt, _))) = (got_t, self.r.peek()) {
            assert!(nt > t, "batch stopped inside a tied run");
        }
        got_t
    }

    fn check_len(&self) {
        assert_eq!(self.q.len(), self.r.heap.len(), "length diverged");
    }

    /// Exhausts both queues completely.
    fn drain_tail(&mut self) {
        while let Some((wt, _, wtok)) = self.r.pop() {
            let (gt, ev) = self.q.pop().expect("queue drained early");
            assert_eq!((gt, token_of(&ev)), (wt, wtok), "tail pop diverged");
        }
        assert!(self.q.pop().is_none(), "queue held extra events");
        assert!(self.q.is_empty());
    }
}

/// Pushes one op's event into both queues, deriving the timestamp from
/// the op byte: small uniform deltas (the common case), exact ties with
/// the previous push, far-future jumps, and past-time pushes below the
/// current pop horizon.
fn push_op(p: &mut Pair, kind: u8, raw: u32, now: Time, last_push: &mut Time) {
    let at = match kind % 8 {
        // Tie: identical timestamp to the previous push (FIFO proof).
        0 => *last_push,
        // Far future: 100 us to 10 ms past the clock.
        1 => now + Time::from_us(100 + (raw % 10_000) as u64),
        // Past time: at or below the pop horizon.
        2 => Time::from_ps(now.as_ps().saturating_sub((raw % 4096) as u64)),
        // Small deltas: the steady-state inter-event gap.
        _ => now + Time::from_ps(1 + (raw % (1 << 14)) as u64),
    };
    *last_push = at;
    p.push(at);
}

/// Interleaved push/pop streams (property 1's body, for one kind mix).
fn check_pop_sequence(kinds: Kinds, ops: &[(u8, u8, u32)], drain_tail: bool) {
    let mut p = Pair::new(kinds);
    let mut now = Time::ZERO;
    let mut last_push = Time::ZERO;
    for &(action, kind, raw) in ops {
        // ~1/4 pops keep the queues partially drained.
        if action % 4 == 0 {
            if let Some(t) = p.pop() {
                now = t;
            }
        } else {
            push_op(&mut p, kind, raw, now, &mut last_push);
        }
        p.check_len();
    }
    if drain_tail {
        p.drain_tail();
    }
}

/// Batch drains with the odd single pop between them (property 2's body).
fn check_batch_drain(kinds: Kinds, ops: &[(u8, u8, u32)]) {
    let mut p = Pair::new(kinds);
    let mut now = Time::ZERO;
    let mut last_push = Time::ZERO;
    let mut batch = Vec::new();
    for &(action, kind, raw) in ops {
        let popped = match action % 10 {
            0 | 5 => p.drain_batch(&mut batch),
            1 => p.pop(),
            _ => {
                push_op(&mut p, kind, raw, now, &mut last_push);
                None
            }
        };
        if let Some(t) = popped {
            now = t;
        }
        p.check_len();
    }
}

/// Lock-step load (property 3's body).
fn check_lockstep_bursts(kinds: Kinds, bursts: usize, burst_len: u64, ops: &[(u8, u8, u32)]) {
    // A 64 B and an MTU serialization at 400 Gbps, one link hop, and a
    // far timer.
    const DELTAS_PS: [u64; 4] = [1_300, 83_200, 600_000, 40_000_000];
    let mut p = Pair::new(kinds);
    // The whole schedule lands before the first pop, 2.6 ns between
    // bursts.
    for b in 0..bursts as u64 {
        for _ in 0..burst_len {
            p.push(Time::from_ps(b * 2_600));
        }
    }
    let mut batch = Vec::new();
    for &(action, kind, raw) in ops {
        match action % 8 {
            // Push exactly at the head's timestamp, and a few ps after.
            0 => {
                if let Some((t, _)) = p.r.peek() {
                    p.push(t);
                    p.push(t + Time::from_ps(1 + (raw % 4) as u64));
                }
            }
            // Single pop; the event reschedules itself.
            1 | 2 => {
                if let Some(t) = p.pop() {
                    p.push(t + Time::from_ps(DELTAS_PS[kind as usize % 4]));
                }
            }
            // Batch drain; each member reschedules itself. `kind`
            // picks the mix: one delta for all keeps the burst tied,
            // the cycle splits it three ways, and the last sends every
            // other member 40 us ahead.
            _ => {
                p.drain_batch(&mut batch);
                for (i, &(t, _, _)) in batch.iter().enumerate() {
                    let d = match kind % 4 {
                        0 => DELTAS_PS[0],
                        1 => DELTAS_PS[1],
                        2 => DELTAS_PS[i % 3],
                        _ => DELTAS_PS[2 + i % 2],
                    };
                    p.push(t + Time::from_ps(d));
                }
            }
        }
        p.check_len();
    }
    p.drain_tail();
}

/// Header and MTU serialization at 400 Gb/s, host-bound and switch-bound
/// hop: the four constants of the paper fabric profile.
const LINK_DELTAS_PS: [u64; 4] = [1_280, 83_200, 500_000, 1_000_000];

/// The `k` push deltas of a link-shaped stream: the fabric's four first,
/// then constants derived from `salt` (other rates, other cables).
fn link_deltas(k: usize, salt: u64) -> Vec<u64> {
    let mut x = salt | 1;
    (0..k)
        .map(|i| {
            LINK_DELTAS_PS.get(i).copied().unwrap_or_else(|| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1_000 + (x >> 33) % 2_000_000
            })
        })
        .collect()
}

proptest! {
    /// Interleaved push/pop streams: the queue's `(time, seq)` pop
    /// sequence equals the reference heap's, element by element.
    #[test]
    fn pop_sequence_matches_binheap_reference(
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 1..600),
        drain_tail in any::<bool>(),
    ) {
        for kinds in ALL_KINDS {
            check_pop_sequence(kinds, &ops, drain_tail);
        }
    }

    /// Batch drains take exactly the maximal tied-timestamp run, in seq
    /// order, and the remaining stream still matches the reference.
    #[test]
    fn batch_drain_matches_binheap_reference(
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 1..400),
    ) {
        for kinds in ALL_KINDS {
            check_batch_drain(kinds, &ops);
        }
    }

    /// Lock-step load: tied bursts, successors a few fixed deltas ahead,
    /// pushes at and just after the head time — interleaved pops and
    /// batch drains must match the reference, and every batch must be the
    /// maximal tied run.
    #[test]
    fn lockstep_bursts_match_binheap_reference(
        bursts in 4usize..24,
        burst_len in 8u64..64,
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 200..800),
    ) {
        for kinds in ALL_KINDS {
            check_lockstep_bursts(kinds, bursts, burst_len, &ops);
        }
    }

    /// Link-shaped load (see the file docs): what a fabric of links
    /// pushes, in the order an engine pops, stops and resumes.
    #[test]
    fn link_shaped_streams_match_binheap_reference(
        k in 1usize..13,
        salt in any::<u64>(),
        hosts in 2u64..48,
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 200..700),
    ) {
        // Successors stop multiplying here (they would double the held
        // population every few batches).
        const MAX_HELD: usize = 256;
        let deltas = link_deltas(k, salt);
        let delta = |i: usize| Time::from_ps(deltas[i % k]);
        let mut p = Pair::new(Kinds::Packets);
        // Lock-step start: every host's NIC begins serializing at t = 0.
        for h in 0..hosts {
            p.push(delta(h as usize / 8));
        }
        // The clock: the latest time popped. Only the deliberate
        // past-time pushes below are scheduled before it.
        let mut now = Time::ZERO;
        let mut batch = Vec::new();
        for &(action, kind, raw) in &ops {
            let kind = kind as usize;
            match action % 16 {
                // A tie at the head's timestamp (a zero-delay hand-over).
                0 => {
                    if let Some((t, _)) = p.r.peek() {
                        p.push(t);
                    }
                }
                // An RTO-like timer and a control: calendar-level events
                // the lanes' heads must be merged against.
                1 => {
                    let rto = Time::from_us(20 + (raw % 400) as u64);
                    p.push_event(now + rto, Event::Timer { host: HostId(0), token: 0 });
                    if raw % 4 == 0 {
                        p.push_event(now, Event::Control(ControlEvent::StatsSample));
                    }
                }
                // A push below the clock: the harness scheduling "now"
                // after the engine ran ahead.
                2 => {
                    let back = Time::from_ps((raw % 100_000) as u64);
                    p.push(now.saturating_sub(back));
                }
                // Single pops, as the resume path issues them; a service
                // completion schedules an arrival and the next service.
                3 | 4 => {
                    if let Some(t) = p.pop() {
                        now = now.max(t);
                        p.push(now + delta(kind));
                        if raw % 2 == 0 && p.q.len() < MAX_HELD {
                            p.push(now + delta(kind + 1));
                        }
                    }
                }
                // The engine's resume case: a batch abandoned half-way,
                // an earlier key (and a tie) pushed between runs, then
                // the leftovers merged against the queue head key by key,
                // as `Engine::drain_events_until` does. `p.r` gave up the
                // whole batch, so `p.pop` still checks every queue pop.
                5 => {
                    let Some(t) = p.drain_batch(&mut batch) else { continue };
                    now = now.max(t);
                    let done = batch.len() / 2;
                    for i in 0..done {
                        p.push(now + delta(kind + i));
                    }
                    let held = p.q.len() + batch.len() - done;
                    let earlier = t.saturating_sub(Time::from_ps((raw % 2_000) as u64));
                    p.push(earlier);
                    p.push(t);
                    let mut overtook = 0;
                    let mut left = batch[done..].iter().peekable();
                    while let Some(&&(bt, bseq, _)) = left.peek() {
                        if p.q.peek_key().is_some_and(|key| key < (bt, bseq)) {
                            p.pop();
                            overtook += 1;
                        } else {
                            left.next();
                        }
                        if held < MAX_HELD {
                            p.push(now + delta(kind + 2));
                        }
                    }
                    // Only the earlier push precedes a leftover; the tie
                    // carries a later `seq` than all of them.
                    prop_assert_eq!(overtook, (earlier < t) as usize, "resume order diverged");
                }
                // Whole batches: the hot path.
                _ => {
                    if let Some(t) = p.drain_batch(&mut batch) {
                        now = now.max(t);
                        for (i, (_, _, ev)) in batch.iter().enumerate() {
                            // Chained service: an arrival, then the next
                            // serialization on the same link.
                            p.push_event(now + delta(kind + i % 2), *ev);
                            if (raw as usize + i).is_multiple_of(3) && p.q.len() < MAX_HELD {
                                p.push(now + delta(kind + 1 + i % 3));
                            }
                        }
                    }
                }
            }
            p.check_len();
        }
        let stats = p.q.stats();
        prop_assert!(stats.lane_pushes > 0, "link-shaped pushes take lanes: {stats:?}");
        p.drain_tail();
    }

    /// Reserved numbers (see the file docs): a control pushed late under
    /// a reserved `seq` pops where the reference, fed it at reservation
    /// time, pops it — ties with ordinary pushes and batch membership
    /// included.
    #[test]
    fn reserved_pushes_match_binheap_reference(
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 1..600),
    ) {
        for kinds in ALL_KINDS {
            check_reserved_pushes(kinds, &ops);
        }
    }

    /// Pre-scheduled controls (see the file docs): a flap schedule
    /// expanded up front, the largest population the heap level is
    /// asked to hold.
    #[test]
    fn prescheduled_controls_match_binheap_reference(
        flaps in 5_000u64..15_000,
        cables in 1u64..4,
        period_ps in 20_000u64..2_000_000,
        hosts in 2u64..48,
        ops in proptest::collection::vec(any::<(u8, u8, u32)>(), 200..600),
    ) {
        const SWEEP: Time = Time::from_us(5);
        let delta = |i: usize| Time::from_ps(LINK_DELTAS_PS[i % 4]);
        let mut p = Pair::new(Kinds::Packets);
        // The whole flap schedule lands before the first pop: every cable
        // goes down at the same instants and comes up half a period later.
        // (`push_event` re-labels each control with its token.)
        for i in 0..flaps {
            for at in [i * period_ps, i * period_ps + period_ps / 2] {
                for _ in 0..cables {
                    p.push_event(Time::from_ps(at), Event::Control(ControlEvent::FluidWake));
                }
            }
        }
        let controls = (flaps * cables * 2) as usize;
        prop_assert_eq!(p.q.stats().heap_peak as usize, controls);
        // Then the fabric starts: one NIC serialization and one sweep
        // timer per host, all hosts in lock-step.
        for h in 0..hosts {
            p.push(delta(1));
            p.push_event(SWEEP, Event::Timer { host: HostId(h as u32), token: 0 });
        }
        // What the engine schedules for a popped event: a timer re-arms
        // itself a constant ahead, a control is consumed, a packet event
        // takes its next hop.
        let follow = |p: &mut Pair, now: Time, ev: Event, i: usize| match ev {
            Event::Timer { .. } => p.push_event(now + SWEEP, ev),
            Event::Control(_) => {}
            _ => p.push_event(now + delta(i), ev),
        };
        let mut now = Time::ZERO;
        let mut batch = Vec::new();
        for &(action, kind, raw) in &ops {
            let kind = kind as usize;
            match action % 8 {
                // Single pops behind a peek (`Pair::pop` checks both).
                0 => {
                    if let Some(t) = p.pop() {
                        now = now.max(t);
                        p.push(now + delta(kind));
                    }
                }
                // A deadline short of the head pops nothing.
                1 => {
                    if let Some((t, _)) = p.r.peek().filter(|&(t, _)| t > Time::ZERO) {
                        let short = t.saturating_sub(Time::from_ps(1 + (raw % 1_000) as u64));
                        prop_assert_eq!(p.drain_batch_until(short, &mut batch), None);
                        prop_assert!(batch.is_empty());
                    }
                }
                // A batch abandoned half-way, an earlier push, and the
                // leftovers merged back against the queue head key by key.
                2 => {
                    let Some(t) = p.drain_batch_until(now + SWEEP, &mut batch) else { continue };
                    now = now.max(t);
                    let done = batch.len() / 2;
                    for (i, &(_, _, ev)) in batch[..done].iter().enumerate() {
                        follow(&mut p, now, ev, kind + i);
                    }
                    let earlier = t.saturating_sub(Time::from_ps((raw % 2_000) as u64));
                    p.push_event(earlier, Event::Control(ControlEvent::StatsSample));
                    let mut overtook = 0;
                    let mut left = batch[done..].iter().peekable();
                    while let Some(&&(bt, bseq, ev)) = left.peek() {
                        if p.q.peek_key().is_some_and(|key| key < (bt, bseq)) {
                            p.pop();
                            overtook += 1;
                        } else {
                            left.next();
                            follow(&mut p, now, ev, kind);
                        }
                    }
                    prop_assert_eq!(overtook, (earlier < t) as usize, "resume order diverged");
                }
                // Whole batches up to a deadline a sweep ahead: controls,
                // timers and lane runs that share a timestamp come out
                // together, and nothing at it stays behind on either level.
                _ => {
                    if let Some(t) = p.drain_batch_until(now + SWEEP, &mut batch) {
                        prop_assert!(p.q.peek_key().is_none_or(|(next, _)| next > t));
                        now = now.max(t);
                        for (i, &(_, _, ev)) in batch.iter().enumerate() {
                            follow(&mut p, now, ev, kind + i % 2);
                        }
                    }
                }
            }
            p.check_len();
        }
        let stats = p.q.stats();
        prop_assert!(stats.lane_pushes > 0, "the packet stream takes lanes: {stats:?}");
        let peak = stats.heap_peak as usize;
        prop_assert!(
            (controls..=controls + 2 * hosts as usize + ops.len()).contains(&peak),
            "the heap level holds the controls, the timers and little else: {stats:?}"
        );
        // The tail pops the tens of thousands of controls still pending.
        p.drain_tail();
    }
}

/// A number the counter has not handed out is not a reservation.
#[test]
#[should_panic(expected = "was never reserved")]
fn pushing_under_a_seq_never_reserved_panics() {
    let mut q = EventQueue::new();
    let first = q.reserve(2);
    q.push(Time::from_ns(1), event_for(Kinds::Timers, 0));
    q.push_reserved(Time::from_ns(5), first + 1, ControlEvent::Custom(1));
    q.push_reserved(Time::from_ns(5), first + 3, ControlEvent::Custom(3));
}

/// Best fit settles: with a clock that never goes back and `k <= 8`
/// constant deltas, every push finds a lane, and no more than `k` lanes
/// are ever open — whatever order the deltas come in.
#[test]
fn constant_delta_streams_settle_into_at_most_k_lanes() {
    for k in 1..=8usize {
        let deltas = link_deltas(k, 0x9E37_79B9 + k as u64);
        let mut q = EventQueue::new();
        for h in 0..256u32 {
            q.push(
                Time::from_ps(deltas[h as usize % k]),
                Event::QueueService { link: LinkId(h) },
            );
        }
        let mut x = 7u64;
        for _ in 0..20_000 {
            let (now, ev) = q.pop().expect("hold model never drains");
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push(now + Time::from_ps(deltas[(x >> 33) as usize % k]), ev);
        }
        let stats = q.stats();
        assert_eq!(stats.lane_misfits, 0, "k = {k}: {stats:?}");
        assert_eq!(stats.lane_pushes, 256 + 20_000, "k = {k}: {stats:?}");
        assert!(stats.lanes_open as usize <= k, "k = {k}: {stats:?}");
    }
}

/// Pollution: timers must not cost the packet stream its lanes. 64
/// distinct far-future timers are on the queue before the first pop — had
/// they been admitted to lanes, every lane would sit closed behind a
/// millisecond-scale back while the four-delta stream spilled to the
/// heap level.
#[test]
fn far_future_timers_do_not_pollute_the_lanes() {
    let mut q = EventQueue::new();
    for i in 0..64u64 {
        q.push(
            Time::from_ms(1) + Time::from_us(i * 37),
            Event::Timer {
                host: HostId(i as u32),
                token: i,
            },
        );
    }
    for h in 0..128u32 {
        q.push(
            Time::from_ps(LINK_DELTAS_PS[1]),
            Event::QueueService { link: LinkId(h) },
        );
    }
    let mut packet_pushes = 128u64;
    let mut batch = Vec::new();
    let mut i = 0usize;
    while packet_pushes < 50_000 {
        let t = q.drain_batch_into(&mut batch).expect("never drains");
        for (_, _, ev) in batch.drain(..) {
            match ev {
                // A timer re-arms itself an RTO ahead.
                Event::Timer { .. } => q.push(t + Time::from_ms(1), ev),
                _ => {
                    i += 1;
                    q.push(t + Time::from_ps(LINK_DELTAS_PS[i % 4]), ev);
                    packet_pushes += 1;
                }
            }
        }
    }
    let stats = q.stats();
    let share = stats.lane_pushes as f64 / packet_pushes as f64;
    assert!(
        share > 0.99,
        "lane share of the four-delta stream fell to {share:.4}: {stats:?}"
    );
    assert_eq!(q.len(), 64 + 128);
}
