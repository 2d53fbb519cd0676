//! The discrete-event queue: monotone lanes in front of a binary heap.
//!
//! # Bakeoff history: how the queue got here
//!
//! The queue went through four designs, each benchmarked in
//! `microbench`'s `calendar/*` suite before committing:
//!
//! 1. **`BinaryHeap` of POD entries** (PR 2). Packets were moved out of
//!    line into the engine-owned arena so every heap entry shrank to a
//!    32-byte POD (see [`Entry`]); at that size the std heap beat both a
//!    naive fixed-width bucket ring (~11.2 vs ~8.2 M ops/s in the
//!    hold-4096 model; the ring prototype and its
//!    `calendar/bucket_ring_hold4096` bench were deleted in PR 14, its
//!    rows survive in `bench-results/BENCH_*.json`) and a hand-rolled
//!    4-ary heap. The ring lost because its bucket width was a
//!    compile-time guess: with real event gaps spanning five orders of
//!    magnitude (83 ns serializations to multi-ms failure timers), most
//!    pops scanned long runs of empty buckets or linear-searched
//!    overfull ones.
//! 2. **Calendar queue v2** (PR 7; deleted in PR 20, entry 5). A ring of
//!    power-of-two time buckets, each sorted when the cursor reached it,
//!    with the bucket width derived from an EWMA of the inter-pop gap and
//!    a small `BinaryHeap` overflow level for entries beyond the ring's
//!    window. It was built when *every* event lived in it — a hold of
//!    thousands to tens of thousands of packet-path entries — and there
//!    its O(1) push/pop took `hotpath/permutation_cell` from 8.1 to
//!    10.7 M events/s (`bench-results/BENCH_calendar_*.json`).
//! 3. **Late run + observed retunes** (PR 12; deleted with it). Two
//!    defects of v2, one cause — it kept the *draining* bucket sorted
//!    with `Vec::insert` and re-derived its geometry only when the
//!    pending *count* crossed a threshold. On the lock-step 10 240-host
//!    cell the width froze before the first pop, one bucket held 57 k
//!    entries and sorted inserts into it were 73 % of the event loop
//!    (1 860 ns/event against 130 on a 32-host cell); at hold 256 the
//!    ring stayed 16 x 65 ns and three pushes in four went through the
//!    overflow heap, which lost to a plain heap. The fix filed entries
//!    for the draining bucket into an unsorted run merged in place when
//!    due, and retuned width and window from what a window of pushes
//!    observed. The measurements are kept in
//!    `bench-results/BENCH_lockstep_*.json` and CHANGES.md (PR 12).
//! 4. **Monotone lanes** (PR 19). A sampling profile of the unmodified
//!    `repsbench` still put this module and the std sorts it calls at
//!    38 % of the samples on the 32-host `perm_healthy` cells and ~45 %
//!    on the 128-host `fig02` cells: pushes into thousands of separately
//!    allocated bucket `Vec`s, the bucket sorts and merges, the batch
//!    drain. All of it ordered events that arrive almost in order
//!    already. On packet cells 99.9 % of pushes are `QueueService` or
//!    `Arrive` at `now + d`, `d` one of a handful of constants of the
//!    fabric profile (1.28 ns header and 83.2 ns MTU serialization at
//!    400 Gb/s, a 500 ns host-bound and a 1 µs switch-bound hop), and
//!    `now` never goes back: the pushes of each `d` are nondecreasing in
//!    `(time, seq)` — a FIFO, which needs no bucket, no sort and no
//!    rebuild. So those two kinds are appended to one of `LANES` (8) FIFO
//!    rings, chosen by patience-sort best fit; everything else, and any
//!    push no lane admits, takes the level behind the lanes.
//!    * **Exactness.** `seq` still comes from the one global counter. A
//!      lane admits an entry only behind a back that precedes it, so each
//!      lane is strictly increasing in `(time, seq)` by the admission
//!      check itself, never by trusting the caller's clock. The queue's
//!      minimum is then the least of at most `LANES` lane heads and the
//!      heap's top: pop order is the same total order whichever lane (or
//!      level) an entry took.
//!    * **Why timers and controls stay out.** An RTO-scale or absolute
//!      time at a lane's back closes the lane to its 83 ns stream for
//!      milliseconds. They are 0.04–10 % of pushes on packet cells and
//!      their payloads live in the side slabs anyway.
//!    * **Measured** (builder's 2-vCPU host, alternating parent/change
//!      runs; result bytes identical). Through the repo benchmark, ten
//!      pairs: `suite_cold` wall 3.30 → 2.40 s (−27 %, 10/10; held-out
//!      seed 1000 3.09 → 2.25 s), peak RSS 60.8 → 43.6 MiB. Event-loop
//!      time, ten alternating single-thread runs: `fig02` 158 → 91
//!      ns/event, the 32-host `perm_healthy` cells 136 → 108. The queue
//!      alone: `calendar/engine_queue_linkshape8192` 26 → 32–46 M ops/s
//!      against the heap's 9. Over the suite the lanes took 0.90 of all
//!      pushes (0.9996 on the 128-host cells; the rest are timers, 1.3 M
//!      of them on the `fig09` extreme-failure cells alone), no cell had
//!      more than 7 lanes non-empty at once, and not one push misfit.
//!    * **Micro-structure, measured.** The scans are on the dependency
//!      chain of every push and pop, so they read two dense arrays (packed
//!      `(time, seq)` head keys, back times) through a balanced tree of
//!      selects instead of walking eight `VecDeque`s with data-dependent
//!      branches: 12–15 % on the queue alone, nothing measurable on a
//!      full cell, where other work hides the latency. Both levels' heads
//!      are compared as one packed integer, `NO_KEY` standing for an
//!      empty level, which keeps `Option`s out of the hot returns; one
//!      call site for the second level's push and skipping the lane scan
//!      while no lane holds anything were worth 20 % on a timers-only
//!      load. A batch is the concatenation of each source's run in
//!      head-`seq` order; on every benchmark cell that concatenation was
//!      already sorted (runs of different constants never interleave: the
//!      larger constant was pushed earlier), so the `seq` sort behind it
//!      is a linear check. Hand-rolled power-of-two rings with batch
//!      drains by repeated global-min pops were *slower* than plain
//!      `VecDeque`s (`fig02` 101 vs 93 ns/event), which is why the rings
//!      here are `VecDeque`s and batches drain run by run.
//! 5. **One heap behind the lanes** (PR 20). With the packet path in the
//!    lanes, the ring of entries 2–3 — 12 tuning constants, 18 fields of
//!    geometry state, late-run merges, count-driven and observed
//!    rebuilds, an overflow heap with per-step migration — ordered what
//!    was left over, and that is little: measured on the five benchmark
//!    grids at seed 0, the second level takes 0.05 % of pushes on
//!    `perm_healthy`, 2.2 % on `perm_failures`, 0.78 % on `scale10k_pkt`,
//!    9.9 % over the 330-cell suite and 64 % on `hybrid_churn`
//!    (`FluidWake`s, 124 k events a cell), and its peak population is 32
//!    entries on the median suite cell and 64 at the 90th percentile (one
//!    sweep timer per host), 10 240 on the two 10k-host grids, and above
//!    136 on eight cells of 330 — `flap-reconv`'s 80 032 and 400 030
//!    pre-scheduled controls, which the ring sent to its overflow *heap*
//!    anyway. (Those two populations are gone: a flapping cable now
//!    keeps one toggle pair on the calendar, pushed under reserved
//!    numbers as the previous pair fires — see "Total order" below — and
//!    the flap cells peak at 34 entries, the suite at 136.) So the level is the `BinaryHeap<Entry>` of entry 1 again;
//!    the ring, its tests of geometry and its seven `--perf` counters are
//!    deleted, not parked (`cal_heap_peak` replaces them).
//!    * **Measured** (same host and method; result bytes identical on
//!      every grid, seeds 0, 7 and 1000). No gain is claimed. Ten
//!      alternating pairs through the repo benchmark, wall: `suite_cold`
//!      3.00 → 2.82 s (6/10), `perm_failures` 0.744 → 0.667 s (10/10),
//!      `scale10k_pkt` — 10 240 timers in the heap — 0.460 → 0.440 s
//!      (8/10), and the one adverse move, `hybrid_churn` 0.149 → 0.154 s
//!      (+3.7 %, 1/10, half the parent's quartile distance: a
//!      `FluidWake` per resolve sifts past those 10 240 timers where the
//!      ring filed it in O(1)). ROADMAP's Recent entry lists every run.
//!    * **What it costs.** A load of thousands of pending *timers* and
//!      nothing else runs at the std heap's speed, not the ring's: on
//!      `microbench`'s timer-only hold models the level read 0.77–0.89 of
//!      the ring at hold 256, 0.5–0.8 at 4 096 and 65 536 and 0.40–0.76 on
//!      the lock-step 32 768 shape. No cell of the benchmark has that
//!      shape (see the populations above), so those rows were deleted
//!      with the code they measured. If a workload with tens of
//!      thousands of live timers appears, this is where its time will
//!      go, and `cal_heap_peak` on the perf stream will say so.
//!
//! # Structure
//!
//! * **Lane level**: `LANES` (8) FIFO rings of 24-byte entries
//!   ([`Entry`]: `(time, seq)` and one word packing the event; at 10 240
//!   hosts the rings are the queue's bulk). A `QueueService` or
//!   `Arrive` push goes to the lane whose back time is the latest one at
//!   or before it (an empty lane if none is, the heap level if every
//!   lane is closed to it); best fit never opens more lanes than there
//!   are distinct push deltas in play. Pops take the least lane head or
//!   the heap's top, whichever is earlier in `(time, seq)`.
//! * **Heap level**: one `BinaryHeap<Entry>` ordered earliest-first on
//!   `(time, seq)`, holding timers, controls and lane misfits at any
//!   time, past or far future.
//!
//! # Total order and batch-drain invariants
//!
//! Pop order is the exact total order on `(time, seq)`: `seq` is unique
//! and assigned at push, so pop order can never depend on which lane or
//! level an entry took — simulations stay byte-for-byte reproducible
//! (the property tests in `tests/calendar_order.rs` pin equivalence
//! against a reference binary heap over arbitrary interleaved push/pop
//! sequences of every event kind, including same-timestamp FIFO ties,
//! lock-step bursts, link-shaped streams that overflow the lanes and
//! tens of thousands of pre-scheduled controls; debug builds also assert
//! each lane's order at push and that pops never go back).
//!
//! A schedule generated as it fires takes its numbers ahead:
//! [`EventQueue::reserve`] advances the one counter by `n`, and
//! [`EventQueue::push_reserved`] later files a control under one of those
//! numbers — the key it would have had pushed at reservation time, so it
//! pops where an up-front push would have, as long as it lands before
//! its key is due (the engine's flap runs push each toggle pair when the
//! previous one fires, always at a later time). Reserved pushes are
//! controls, so they never take a lane, whose admission check relies on
//! `seq` growing.
//!
//! [`EventQueue::drain_batch_into`] supports the engine's batched
//! execution: it pops *every* event sharing the earliest pending
//! timestamp in one call. Three invariants make this safe:
//!
//! * a lane is sorted, so its events at the earliest timestamp are a
//!   prefix of it;
//! * the heap pops in ascending `(time, seq)`, so popping while its top
//!   is at that timestamp yields its whole tied run, in `seq` order; the
//!   batch is those runs put in `seq` order;
//! * events pushed *while a batch executes* carry sequence numbers above
//!   every batch member, so same-timestamp newcomers drain in a
//!   follow-up batch, after the current one — exactly where the
//!   one-pop-at-a-time order would put them (a reserved push may carry a
//!   lower number, but never at the batch's timestamp).
//!
//! The engine's drain helper preserves the order even when a run stops
//! mid-batch: leftovers keep their `(time, seq)` keys and are merged
//! against the queue head key-by-key on resume (see
//! `Engine::drain_events`).
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::arena::{PacketRef, Slab};
use crate::ids::{HostId, LinkId, NodeRef, SwitchId};
use crate::link::LossCause;
use crate::time::Time;

/// A scheduled simulator event.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// The egress queue of `link` finished serializing its head packet.
    QueueService {
        /// Link whose queue should transmit.
        link: LinkId,
    },
    /// A packet finished propagating and arrives at `node`.
    Arrive {
        /// Receiving node.
        node: NodeRef,
        /// Handle of the packet in the engine's arena.
        pkt: PacketRef,
    },
    /// A transport timer fires at `host`.
    Timer {
        /// Owning host.
        host: HostId,
        /// Opaque token the endpoint uses to identify the timer.
        token: u64,
    },
    /// A fabric control action.
    Control(ControlEvent),
}

/// Fabric- and experiment-level control events.
#[derive(Debug, Clone, Copy)]
pub enum ControlEvent {
    /// Take a link down (blackhole until up).
    LinkDown(LinkId),
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Change a link's rate to `bps`.
    LinkRate(LinkId, u64),
    /// Set a link's per-packet loss probability for one cause; 0.0 heals.
    LinkLoss(LinkId, LossCause, f64),
    /// Fail a whole switch (all attached links go down).
    SwitchDown(SwitchId),
    /// Recover a whole switch.
    SwitchUp(SwitchId),
    /// Re-solve the fluid background-traffic rate shares.
    FluidWake,
    /// Periodic statistics sampling tick.
    StatsSample,
    /// Deliver a start signal to a host endpoint.
    HostStart(HostId),
    /// Opaque experiment-defined event, delivered to the harness callback.
    Custom(u64),
    /// One entry of flap run `.0`'s toggle pair: the first (`.1` false)
    /// takes the forward link down or up, the second the reverse link,
    /// and schedules the run's next pair. Only the engine's flap runs
    /// (`Engine::schedule_flap`, behind [`Failure::Flap`]) push these.
    ///
    /// [`Failure::Flap`]: crate::failures::Failure::Flap
    FlapStep(u32, bool),
}

/// A queue entry: `(time, seq)` and the event packed into one word — a
/// 24-byte POD, cheap to move through lane rings and heap sifts.
///
/// The payload's high half is the receiving node of an `Arrive` (bit 31
/// set for a host, the id below it) or a tag ([`QUEUE_SERVICE`],
/// [`TIMER`], [`CONTROL`]); its low half the packet ref of an `Arrive`,
/// the link of a `QueueService`, or the slab index of a timer's token or a
/// control event — the rare wide payloads are parked in side slabs. Kept
/// well under the size of a [`Packet`](crate::packet::Packet): the
/// `calendar_entries_are_small_pods` test pins the bound so a packet can
/// never creep back inline.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: Time,
    seq: u64,
    payload: u64,
}

/// Bytes per queue entry, in a lane ring or the heap (`alloctrace`
/// reports it).
pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

/// Payload tags. Below them are the node words of `Arrive`s; from
/// [`TIMER`] up an entry is not a packet-path event and takes no lane.
const QUEUE_SERVICE: u32 = u32::MAX - 2;
const TIMER: u32 = u32::MAX - 1;
const CONTROL: u32 = u32::MAX;

/// A payload word from its high half (tag or node word) and low half.
fn word(high: u32, low: u32) -> u64 {
    u64::from(high) << 32 | u64::from(low)
}

/// The event of a `QueueService` or `Arrive` payload (timers and controls
/// resolve against the slabs: [`EventQueue::resolve`]).
fn packet_event(payload: u64) -> Event {
    let (high, low) = ((payload >> 32) as u32, payload as u32);
    if high == QUEUE_SERVICE {
        return Event::QueueService { link: LinkId(low) };
    }
    Event::Arrive {
        node: NodeRef::from_word(high),
        pkt: PacketRef(low),
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest `(time, seq)` compares *greatest*, so the
        // `BinaryHeap` (a max-heap) pops earliest-first. `seq` is unique,
        // so this is a *total* order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Monotone lanes in front of the heap level (see the module docs,
/// "Structure"). Best fit never opens more lanes than there are distinct
/// push deltas in play. Measured over the 330-cell quick suite and the
/// repo benchmark's other grids at seeds 0, 7 and 1000 (`cal_lanes_open`
/// on the perf stream): 4 lanes non-empty at once on every cell of the
/// paper fabric (header and MTU serialization, two hop latencies), 5–6
/// where a degraded 200 Gb/s link or a second packet size adds
/// serialization constants, 7 on the hybrid cells whose fluid background
/// keeps moving the residual link rates — and not one misfit. Eight
/// covers that, and a scan still reads only eight keys.
const LANES: usize = 8;
/// The head key of an empty lane or an empty heap level: after every
/// real key (no push ever carries `seq == u64::MAX`).
const NO_KEY: u128 = u128::MAX;

/// An entry's `(time, seq)` as one integer that orders the same way: the
/// form the levels' heads are compared in.
fn key_of(e: &Entry) -> u128 {
    (e.time.as_ps() as u128) << 64 | e.seq as u128
}

/// The `(time, seq)` a [`key_of`] integer packs.
fn unpack_key(key: u128) -> (Time, u64) {
    (Time::from_ps((key >> 64) as u64), key as u64)
}

/// The least of `keys` and its lane, by a balanced tree of selects: the
/// scan is on the critical path of every push and pop, where a chain of
/// `LANES` dependent compares (or branches on data no predictor can
/// learn) costs more than the rest of the operation.
fn argmin<K: Copy + Ord>(keys: &[K; LANES]) -> (K, usize) {
    const { assert!(LANES.is_power_of_two()) };
    let mut best: [(K, usize); LANES] = std::array::from_fn(|i| (keys[i], i));
    let mut n = LANES;
    while n > 1 {
        n /= 2;
        for i in 0..n {
            if best[i + n].0 < best[i].0 {
                best[i] = best[i + n];
            }
        }
    }
    best[0]
}

/// Work counters of the queue's two levels.
///
/// Diagnostics only: they ride the sweep's perf stream (never the
/// byte-stable results). The three `lane*` fields say how much of a
/// cell's traffic has the property the lanes are built for; `heap_peak`
/// prices the level behind them, whose push and pop cost `O(log n)` in
/// what it holds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CalendarStats {
    /// Pushes a lane admitted (the rest went to the heap level).
    pub lane_pushes: u64,
    /// Most lanes non-empty at once.
    pub lanes_open: u32,
    /// `QueueService`/`Arrive` pushes no lane admitted: all eight were
    /// non-empty with a back later than the push.
    pub lane_misfits: u64,
    /// Most entries the heap level held at once.
    pub heap_peak: u64,
}

/// A deterministic event queue (monotone lanes in front of a binary
/// heap — see the module docs for the design and its invariants).
///
/// The rare wide payloads (timer tokens, control events) live in
/// [`Slab`]s so queue entries stay 24-byte PODs (see [`Entry`]); the
/// slabs recycle slots, and the lanes and the heap keep their high-water
/// capacity, so a warmed-up queue schedules without allocating.
#[derive(Debug)]
pub struct EventQueue {
    /// Lane level: FIFO runs, each strictly increasing in `(time, seq)`
    /// front to back — [`EventQueue::push_lane`] admits an entry only
    /// behind a back that precedes it. Rings keep their high-water
    /// capacity.
    lanes: [VecDeque<Entry>; LANES],
    /// Each lane's head key ([`key_of`]; [`NO_KEY`] when empty) and
    /// back time in ps (0 when empty, so an empty lane fits any push,
    /// last): the scans of every push and pop read these, not the rings.
    lane_head: [u128; LANES],
    lane_back: [u64; LANES],
    /// Events held in lanes.
    lane_len: usize,
    /// Lanes non-empty right now.
    lanes_open: u32,
    /// Heap level: timers, controls and lane misfits, earliest on top
    /// (see [`Entry::cmp`]).
    heap: BinaryHeap<Entry>,
    timers: Slab<(HostId, u64)>,
    controls: Slab<ControlEvent>,
    /// Next push's sequence number: one counter for both levels.
    seq: u64,
    stats: CalendarStats,
    /// Key of the latest pop and `seq` at that moment (debug builds keep
    /// it current): an entry that was already pending then must pop after
    /// it.
    popped_key: (Time, u64, u64),
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue {
            lanes: Default::default(),
            lane_head: [NO_KEY; LANES],
            lane_back: [0; LANES],
            lane_len: 0,
            lanes_open: 0,
            heap: BinaryHeap::new(),
            timers: Slab::default(),
            controls: Slab::default(),
            seq: 0,
            stats: CalendarStats::default(),
            popped_key: (Time::ZERO, 0, 0),
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: Time, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.push_keyed(at, seq, event);
    }

    /// Takes `n` sequence numbers off the counter for pushes made later
    /// with [`EventQueue::push_reserved`], and returns the first. An
    /// entry pushed under a reserved number pops exactly where it would
    /// have popped had it been pushed at reservation time, provided it is
    /// pushed before anything that follows it in `(time, seq)` pops.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedules control `ev` at absolute time `at` under `seq`, a number
    /// an earlier [`EventQueue::reserve`] handed out. Panics when the
    /// counter has not reached `seq` yet: nothing reserved it.
    pub fn push_reserved(&mut self, at: Time, seq: u64, ev: ControlEvent) {
        assert!(seq < self.seq, "seq {seq} was never reserved");
        self.push_keyed(at, seq, Event::Control(ev));
    }

    /// Files `event` under key `(at, seq)` on the level that takes it.
    /// Inlined, so [`EventQueue::push`] — on every packet hop — stays one
    /// call.
    #[inline(always)]
    fn push_keyed(&mut self, at: Time, seq: u64, event: Event) {
        // Packet-path events are `now + a link constant`, so each
        // constant's pushes are already in `(time, seq)` order: they take
        // a lane. Timers and controls (RTO-scale or absolute times, which
        // would close a lane to its stream for milliseconds) never do.
        let payload = match event {
            Event::QueueService { link } => word(QUEUE_SERVICE, link.0),
            // An id below 2^31 − 3 (`NodeRef::word` asserts it), so no
            // host's node word is a tag.
            Event::Arrive { node, pkt } => word(node.word(), pkt.0),
            Event::Timer { host, token } => word(TIMER, self.timers.insert((host, token))),
            Event::Control(c) => word(CONTROL, self.controls.insert(c)),
        };
        let entry = Entry {
            time: at,
            seq,
            payload,
        };
        let packet_path = (payload >> 32) < u64::from(TIMER);
        if packet_path && self.push_lane(entry) {
            return;
        }
        self.stats.lane_misfits += packet_path as u64;
        self.heap.push(entry);
        self.stats.heap_peak = self.stats.heap_peak.max(self.heap.len() as u64);
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let (lane_head, lane) = self.lane_min();
        let e = if lane_head < self.heap_head() {
            self.pop_lane(lane)
        } else {
            self.heap.pop()?
        };
        self.debug_assert_pop_order(e.time, e.seq, e.seq);
        Some((e.time, self.resolve(e.payload)))
    }

    /// Pops *every* event sharing the earliest pending timestamp,
    /// appending `(time, seq, event)` triples to `out` in pop order.
    /// Returns the batch timestamp, or `None` when the queue is empty.
    ///
    /// `seq` is the FIFO tie-break token: callers that buffer a batch and
    /// may stop mid-way (the engine's drain helper) use it to merge
    /// leftovers against later queue heads in exact `(time, seq)` order.
    /// The batch is each lane's prefix at that timestamp plus the heap
    /// level's tied run, merged by `seq`.
    pub fn drain_batch_into(&mut self, out: &mut Vec<(Time, u64, Event)>) -> Option<Time> {
        self.drain_batch_until(Time::MAX, out)
    }

    /// [`EventQueue::drain_batch_into`], unless the earliest pending
    /// timestamp is after `deadline`: then nothing is popped and `None`
    /// comes back, as for an empty queue.
    pub fn drain_batch_until(
        &mut self,
        deadline: Time,
        out: &mut Vec<(Time, u64, Event)>,
    ) -> Option<Time> {
        let heap_head = self.heap_head();
        let head = heap_head.min(self.lane_min().0);
        let (t, _) = unpack_key(head);
        if head == NO_KEY || t > deadline {
            return None;
        }
        // The sources with a head at `t`, in head-`seq` order (index
        // `LANES` is the heap level). Each source's run comes out in
        // ascending `seq`; visiting them by head `seq` makes the
        // concatenation already sorted unless runs interleave.
        let mut sources = [(0u64, 0usize); LANES + 1];
        let mut n = 0;
        let heads = self.lane_head.iter().chain([&heap_head]);
        for (source, &head) in heads.enumerate() {
            let (head_t, seq) = unpack_key(head);
            if head_t == t {
                sources[n] = (seq, source);
                n += 1;
            }
        }
        sources[..n].sort_unstable();
        let start = out.len();
        for &(_, source) in &sources[..n] {
            if source == LANES {
                // The heap pops in ascending `(time, seq)`.
                while self.heap.peek().is_some_and(|h| h.time == t) {
                    let e = self.heap.pop().expect("heap has a top");
                    let ev = self.resolve(e.payload);
                    out.push((t, e.seq, ev));
                }
                continue;
            }
            // A whole run, then the lane's head once: re-deriving the
            // head per entry (`pop_lane`) read 8 % slower on the queue
            // alone at batches of a few events and up.
            let lane = &mut self.lanes[source];
            let before = lane.len();
            while lane.front().is_some_and(|h| h.time == t) {
                let e = lane.pop_front().expect("lane has a head");
                out.push((t, e.seq, packet_event(e.payload)));
            }
            self.lane_len -= before - lane.len();
            self.note_lane_head(source);
        }
        if n > 1 {
            // A linear pass when the runs did not interleave.
            out[start..].sort_unstable_by_key(|&(_, seq, _)| seq);
        }
        self.debug_assert_pop_order(t, out[start].1, out[out.len() - 1].1);
        Some(t)
    }

    /// Returns the `(time, seq)` key of the next event without removing
    /// it (see [`EventQueue::drain_batch_into`] for what `seq` is for).
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        let head = self.heap_head().min(self.lane_min().0);
        (head != NO_KEY).then(|| unpack_key(head))
    }

    /// Number of pending events, on both levels.
    pub fn len(&self) -> usize {
        self.lane_len + self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> CalendarStats {
        self.stats
    }

    /// The heap level's earliest key ([`NO_KEY`] when it is empty).
    fn heap_head(&self) -> u128 {
        self.heap.peek().map_or(NO_KEY, key_of)
    }

    /// Appends `entry` to the lane whose back is the latest one at or
    /// before it in time (patience-sort best fit, which opens no more
    /// lanes than there are distinct push deltas in play), or to an empty
    /// lane when no back fits. Returns `false` when every lane is closed
    /// to it. `seq` only grows, so a back at `entry.time` still precedes
    /// it: whatever the caller's clock does, an admitted entry extends a
    /// strictly increasing run, and which lane took it can never change
    /// the pop order.
    fn push_lane(&mut self, entry: Entry) -> bool {
        let at = entry.time.as_ps();
        // How far behind `at` each lane's back is: the least distance is
        // the best fit, an empty lane (back 0) the worst, a closed lane
        // none (`Time::MAX` behind an empty lane reads as closed too, and
        // takes the heap level).
        let behind = self
            .lane_back
            .map(|back| if back <= at { at - back } else { u64::MAX });
        let (distance, i) = argmin(&behind);
        if distance == u64::MAX {
            return false;
        }
        let lane = &mut self.lanes[i];
        debug_assert!(
            lane.back().is_none_or(|b| key_of(b) < key_of(&entry)),
            "lane admitted an entry that does not extend its order"
        );
        if lane.is_empty() {
            self.lane_head[i] = key_of(&entry);
            self.lanes_open += 1;
            self.stats.lanes_open = self.stats.lanes_open.max(self.lanes_open);
        }
        self.lane_back[i] = at;
        lane.push_back(entry);
        self.lane_len += 1;
        self.stats.lane_pushes += 1;
        true
    }

    /// The least lane head and its lane; [`NO_KEY`] when every lane is
    /// empty, without the scan (a timers-only load never fills one).
    fn lane_min(&self) -> (u128, usize) {
        if self.lane_len == 0 {
            return (NO_KEY, 0);
        }
        argmin(&self.lane_head)
    }

    /// Removes the head of non-empty lane `i`.
    fn pop_lane(&mut self, i: usize) -> Entry {
        let e = self.lanes[i].pop_front().expect("lane has a head");
        self.lane_len -= 1;
        self.note_lane_head(i);
        e
    }

    /// Re-reads lane `i`'s head after pops.
    fn note_lane_head(&mut self, i: usize) {
        match self.lanes[i].front() {
            Some(head) => self.lane_head[i] = key_of(head),
            None => {
                self.lane_head[i] = NO_KEY;
                self.lane_back[i] = 0;
                self.lanes_open -= 1;
            }
        }
    }

    /// Debug-only: the events `[first_seq ..= last_seq]` at time `t` are
    /// being popped. Whatever was already pending at the previous pop
    /// must come after it in `(time, seq)`; only an entry pushed since
    /// (a past-time push) may precede it.
    fn debug_assert_pop_order(&mut self, t: Time, first_seq: u64, last_seq: u64) {
        if cfg!(debug_assertions) {
            let (last_t, last_s, seq_then) = self.popped_key;
            debug_assert!(
                first_seq >= seq_then || (last_t, last_s) < (t, first_seq),
                "pop went back in (time, seq): ({t:?}, {first_seq}) after ({last_t:?}, {last_s})"
            );
            self.popped_key = (t, last_seq, self.seq);
        }
    }

    /// Reconstructs the public event from an entry's payload.
    fn resolve(&mut self, payload: u64) -> Event {
        match (payload >> 32) as u32 {
            TIMER => {
                let (host, token) = self.timers.take(payload as u32);
                Event::Timer { host, token }
            }
            CONTROL => Event::Control(self.controls.take(payload as u32)),
            _ => packet_event(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn timer(host: u32, token: u64) -> Event {
        Event::Timer {
            host: HostId(host),
            token,
        }
    }

    fn token_of(e: Event) -> u64 {
        match e {
            Event::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), timer(0, 3));
        q.push(Time::from_ns(10), timer(0, 1));
        q.push(Time::from_ns(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        for token in 0..100 {
            q.push(t, timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(7), timer(0, 0));
        assert_eq!(q.peek_key(), Some((Time::from_ns(7), 0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn arrivals_carry_their_arena_handle() {
        let mut q = EventQueue::new();
        q.push(
            Time::from_ns(20),
            Event::Arrive {
                node: NodeRef::Host(HostId(1)),
                pkt: PacketRef(2),
            },
        );
        q.push(
            Time::from_ns(10),
            Event::Arrive {
                node: NodeRef::Host(HostId(1)),
                pkt: PacketRef(1),
            },
        );
        q.push(Time::from_ns(15), timer(0, 7));
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrive { pkt, .. } => pkt.0 as u64,
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 7, 2]);
    }

    fn service(link: u32) -> Event {
        Event::QueueService { link: LinkId(link) }
    }

    fn link_of(e: Event) -> u32 {
        match e {
            Event::QueueService { link } => link.0,
            _ => unreachable!(),
        }
    }

    #[test]
    fn packet_events_take_lanes_and_timers_never_do() {
        let mut q = EventQueue::new();
        q.push(Time::from_ms(3), timer(0, 0));
        q.push(Time::from_ns(83), service(0));
        q.push(
            Time::from_ns(500),
            Event::Arrive {
                node: NodeRef::Host(HostId(1)),
                pkt: PacketRef(1),
            },
        );
        q.push(Time::from_ns(83), service(2)); // a tie extends a lane
        q.push(Time::from_ns(1), Event::Control(ControlEvent::StatsSample));
        let stats = q.stats();
        assert_eq!((stats.lane_pushes, stats.lane_misfits), (3, 0));
        assert_eq!(
            stats.lanes_open, 2,
            "83 ns fits behind 83 ns, not behind 500"
        );
        assert_eq!(stats.heap_peak, 2, "the timer and the control");
        assert_eq!(q.len(), 5);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_ns())
            .collect();
        assert_eq!(times, vec![1, 83, 83, 500, 3_000_000]);
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_no_lane_admits_spill_to_the_calendar_level_in_order() {
        // Strictly decreasing times close a lane each; the ninth finds all
        // eight closed.
        let mut q = EventQueue::new();
        for i in 0..LANES as u32 + 3 {
            q.push(Time::from_ns(100 - i as u64), service(i));
        }
        let stats = q.stats();
        assert_eq!(stats.lanes_open as usize, LANES);
        assert_eq!((stats.lane_pushes, stats.lane_misfits), (LANES as u64, 3));
        assert_eq!(stats.heap_peak, 3, "misfits take the heap level");
        // A past-time push takes the lane whose back it follows, or none.
        q.push(Time::from_ns(1), service(99));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| link_of(e))
            .collect();
        assert_eq!(order, vec![99, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn a_batch_merges_lane_and_calendar_runs_by_seq() {
        // One timestamp, kinds alternating: the heap level's run
        // (seqs 0, 2, 4) and the lane's (1, 3, 5) interleave.
        let mut q = EventQueue::new();
        let t = Time::from_ns(40);
        for i in 0..3 {
            q.push(t, timer(0, i));
            q.push(t, service(i as u32));
        }
        q.push(Time::from_ns(41), service(7));
        let mut batch = Vec::new();
        assert_eq!(q.drain_batch_until(Time::from_ns(39), &mut batch), None);
        assert!(batch.is_empty() && q.len() == 7, "nothing is due yet");
        assert_eq!(q.drain_batch_until(t, &mut batch), Some(t));
        let seqs: Vec<u64> = batch.iter().map(|&(_, seq, _)| seq).collect();
        assert_eq!(seqs, (0..6).collect::<Vec<_>>());
        assert!(matches!(batch[0].2, Event::Timer { token: 0, .. }));
        assert!(matches!(
            batch[5].2,
            Event::QueueService { link: LinkId(2) }
        ));
        assert_eq!(q.peek_key(), Some((Time::from_ns(41), 6)));
    }

    #[test]
    fn calendar_entries_are_small_pods() {
        // The point of the arena indirection: lane rings and heap sifts
        // move fixed-size entries, never packets. Pin the bound so a
        // packet can't creep back inline, and an entry stays three words.
        assert!(
            std::mem::size_of::<Entry>() <= 24,
            "calendar entry grew to {} bytes",
            std::mem::size_of::<Entry>()
        );
        assert!(std::mem::size_of::<Entry>() < std::mem::size_of::<Packet>());
    }

    #[test]
    fn entries_pack_every_event() {
        let mut q = EventQueue::new();
        let events = [
            Event::QueueService { link: LinkId(0) },
            Event::QueueService {
                link: LinkId(u32::MAX),
            },
            Event::Arrive {
                node: NodeRef::Host(HostId(0)),
                pkt: PacketRef(u32::MAX),
            },
            Event::Arrive {
                node: NodeRef::Host(HostId(NodeRef::HOST_BIT - 4)),
                pkt: PacketRef(7),
            },
            Event::Arrive {
                node: NodeRef::Switch(SwitchId(NodeRef::HOST_BIT - 4)),
                pkt: PacketRef(0),
            },
            timer(u32::MAX, u64::MAX),
            Event::Control(ControlEvent::LinkRate(LinkId(3), 7)),
        ];
        for (i, &event) in events.iter().enumerate() {
            q.push(Time::from_ns(i as u64), event);
        }
        for event in events {
            let (_, popped) = q.pop().expect("pushed");
            assert_eq!(format!("{popped:?}"), format!("{event:?}"));
        }
        assert_eq!(q.stats().lane_pushes, 5, "packet events only");
    }

    #[test]
    fn far_future_events_come_back_in_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ms(50), timer(0, 3));
        q.push(Time::from_secs(2), timer(0, 4));
        q.push(Time::from_ns(10), timer(0, 1));
        q.push(Time::from_us(1), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn past_time_pushes_pop_first() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(100), timer(0, 2));
        // Look at the head at 100us, then schedule earlier.
        assert_eq!(q.peek_key(), Some((Time::from_us(100), 0)));
        q.push(Time::from_ns(1), timer(0, 1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn drain_batch_takes_exactly_the_tied_timestamp() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(20), timer(0, 10));
        q.push(Time::from_ns(10), timer(0, 0));
        q.push(Time::from_ns(10), timer(0, 1));
        q.push(Time::from_ns(10), timer(0, 2));
        let mut batch = Vec::new();
        assert_eq!(q.drain_batch_into(&mut batch), Some(Time::from_ns(10)));
        let tokens: Vec<u64> = batch.iter().map(|&(_, _, e)| token_of(e)).collect();
        assert_eq!(tokens, vec![0, 1, 2]);
        // Seqs come out ascending — the FIFO tie-break is preserved.
        assert!(batch.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(q.len(), 1);
        batch.clear();
        assert_eq!(q.drain_batch_into(&mut batch), Some(Time::from_ns(20)));
        assert_eq!(batch.len(), 1);
        assert_eq!(q.drain_batch_into(&mut batch), None);
    }

    #[test]
    fn occupancy_resizes_keep_the_order() {
        // Grow the heap's backing store several times over, then drain
        // and check global order.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for token in 0..5000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x % 1_000_000_000; // 0..1ms in ps
            q.push(Time::from_ps(t), timer(0, token));
            expect.push((t, token));
        }
        // Total order: (time, push order).
        expect.sort();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_ps(), token_of(e)))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empties_and_refills_across_quiet_gaps() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            // Each round jumps the clock far ahead of the previous one.
            let base = Time::from_ms(round * 10);
            q.push(base + Time::from_ns(5), timer(0, round * 2 + 1));
            q.push(base, timer(0, round * 2));
            assert_eq!(token_of(q.pop().unwrap().1), round * 2);
            assert_eq!(token_of(q.pop().unwrap().1), round * 2 + 1);
            assert!(q.is_empty());
        }
    }
}
