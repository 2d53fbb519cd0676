//! The discrete-event queue: monotone lanes in front of a self-tuning
//! two-level calendar queue.
//!
//! # Bakeoff history: how the queue got here
//!
//! The queue went through three designs and two reworks, each
//! benchmarked in `microbench`'s `calendar/*` suite before committing:
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
//! 2. **Calendar queue v2** (PR 7). The ring's two defects are exactly
//!    what the classic calendar-queue design fixes: the bucket width is
//!    derived from the observed inter-event gap (an EWMA sampled at pop
//!    time), and an **overflow level** (a small `BinaryHeap` of the same
//!    POD entries) absorbs far-future events — reconvergence timers,
//!    failure schedules, RTOs — that would otherwise force a huge ring
//!    horizon. In steady state the calendar allocates nothing (pinned by
//!    the counting-allocator test in `tests/alloc_calendar.rs`). O(1)
//!    push/pop replaces the heap's O(log n) sifts.
//! 3. **Late run + observed retunes** (PR 12). v2 kept the *draining*
//!    bucket sorted with `Vec::insert`, and re-derived width and ring
//!    size only when the pending *count* crossed a threshold. Measured on
//!    the 10 240-host all-packet cell (`scale10k_pkt`, seed 0): all four
//!    rebuilds ran before the first pop, so the width froze at
//!    `DEFAULT_SHIFT + TARGET_OCC_SHIFT` = 2^19 ps; the whole run sorted
//!    25 buckets, one of 57 162 entries; 582 957 sorted inserts moved
//!    2.88 G entries (~92 GB of memmove) and took 1.88 s of the 2.57 s
//!    event loop — 1 860 ns/event against 130 on a 32-host cell, the
//!    "23x collapse at scale". The hold-model probes missed it (calendar
//!    share estimated at 0.065, measured 0.73) because a hold model
//!    schedules each successor a *random* delta ahead, almost never into
//!    the bucket being drained; lock-step traffic — every host starting
//!    at t=0 on equal-rate links — schedules thousands of successors
//!    1.3 ns and 83 ns ahead of each pop. The same count-only rule
//!    explains the loss to the heap at hold 256 with uniform 1–4 µs
//!    deltas: 256 events never cross `16 << 5`, so the ring stayed
//!    16 x 65 ns ≈ 1 µs and three pushes in four went through the
//!    overflow heap. Two changes, both inside this module:
//!    * **Late run.** An entry filed into the draining bucket is appended
//!      behind the sorted run, unsorted; the run is sorted and merged —
//!      backward, in place, touching only the sorted tail it interleaves
//!      with — when its earliest entry comes due. Invariant: the bucket
//!      is `[sorted run | late run]`, and whenever a pop, peek or batch
//!      drain looks at the head, every late entry is *strictly later*
//!      than the sorted head's timestamp (merging on `<=` keeps batch
//!      drains maximal). Alone it took the `scale10k_pkt` event loop
//!      from 2.5 s to 0.3 s and `hybrid/cell10k_bg_pkt` to ~10x its
//!      events/s, with byte-identical results.
//!    * **Observed retunes** (`maybe_retune`). Once per window of at
//!      least four pushes per pending event: if more than a quarter of
//!      the pushes overflowed, the span the ring must cover doubles (same
//!      width, or wider buckets when the count caps the ring); if the
//!      cursor drained a bucket 8x over target and the gap EWMA asks for
//!      a width two bits narrower, the geometry is re-derived. The window
//!      makes a retune pay for its rebuild; the two-bit slack stops the
//!      EWMA's wobble from buying rebuilds. Hold 256/uniform went from
//!      0.7x to 1.3x the heap; the 32-host `perm_healthy` cells run
//!      12–14 % faster. A rebuild that changes the width also trims
//!      slot capacity sized for the old mapping, which took
//!      `scale10k_pkt`'s peak RSS from 94 to 86 MiB. What this
//!      does *not* do is hold occupancy near the target under lock-step
//!      load: ties share a bucket at any width, and there the late run is
//!      what keeps a 60 k-entry bucket cheap.
//! 4. **Monotone lanes** (PR 19). A sampling profile of the unmodified
//!    `repsbench` still put this module and the std sorts it calls at
//!    38 % of the samples on the 32-host `perm_healthy` cells and ~45 %
//!    on the 128-host `fig02` cells (222 ns/event against 111 at 32
//!    hosts): `place → file`'s `Vec::push` into one of thousands of
//!    separately allocated bucket `Vec`s (first touch of a scattered
//!    tail), the bucket sorts and late-run merges, the batch drain. All
//!    of it orders events that arrive almost in order already. On packet
//!    cells 99.9 % of pushes are `QueueService` or `Arrive` at `now + d`,
//!    `d` one of a handful of constants of the fabric profile (1.28 ns
//!    header and 83.2 ns MTU serialization at 400 Gb/s, a 500 ns
//!    host-bound and a 1 µs switch-bound hop), and `now` never goes back:
//!    the pushes of each `d` are nondecreasing in `(time, seq)` — a FIFO,
//!    which needs no bucket, no sort and no rebuild. So those two kinds
//!    are appended to one of `LANES` (8) FIFO rings, chosen by
//!    patience-sort best fit; everything else, and any push no lane
//!    admits, takes the calendar level as before.
//!    * **Exactness.** `seq` still comes from the one global counter. A
//!      lane admits an entry only behind a back that precedes it, so each
//!      lane is strictly increasing in `(time, seq)` by the admission
//!      check itself, never by trusting the caller's clock. The queue's
//!      minimum is then the least of at most `LANES` lane heads and the
//!      calendar head: pop order is the same total order whichever lane
//!      (or level) an entry took.
//!    * **Why timers and controls stay out.** An RTO-scale or absolute
//!      time at a lane's back closes the lane to its 83 ns stream for
//!      milliseconds. They are 0.04–10 % of pushes on packet cells, their
//!      payloads live in the side slabs anyway, and the calendar level's
//!      resize/retune/gap-EWMA now see only that traffic, so it no longer
//!      sizes a 16 384-bucket ring for entries it does not hold.
//!    * **Measured** (builder's 2-vCPU host, alternating parent/change
//!      runs; result bytes identical on all 330 suite cells and the four
//!      other benchmark grids at seeds 0, 7 and 1000). Through the repo
//!      benchmark, ten pairs: `suite_cold` wall 3.30 → 2.40 s (−27 %,
//!      10/10, every change run below every parent run; held-out seed
//!      1000 3.09 → 2.25 s), peak RSS 60.8 → 43.6 MiB at seed 0.
//!      Event-loop time, ten alternating single-thread runs: `fig02`
//!      158 → 91 ns/event (minima 119 → 73), the 32-host `perm_healthy`
//!      cells 136 → 108 (minima 112 → 89). The queue alone:
//!      `calendar/engine_queue_linkshape8192` 26 → 32–46 M ops/s against
//!      the heap's 9; the timer-only `calendar/*` rows, which never
//!      touch a lane, read 0–15 % lower (one more level to look at per
//!      pop). Over the suite the lanes took 0.90 of all pushes (0.9996 on
//!      the 128-host cells; the rest are timers, 1.3 M of them on the
//!      `fig09` extreme-failure cells alone), no cell had more than 7
//!      lanes non-empty at once, and not one push misfit. The calendar
//!      level's work counters (`cal_late_merges`, `cal_merge_moved`,
//!      `cal_retunes`) fell to near zero: it now holds timers only.
//!    * **Micro-structure, measured.** The scans are on the dependency
//!      chain of every push and pop, so they read two dense arrays (packed
//!      `(time, seq)` head keys, back times) through a balanced tree of
//!      selects instead of walking eight `VecDeque`s with data-dependent
//!      branches: 12–15 % on the queue alone, nothing measurable on a
//!      full cell, where other work hides the latency. Both levels' heads
//!      are compared as one packed integer, `NO_KEY` standing for an
//!      empty level, which keeps `Option`s out of the hot returns. A
//!      batch is the
//!      concatenation of each source's run in head-`seq` order; on every
//!      benchmark cell that concatenation was already sorted (runs of
//!      different constants never interleave: the larger constant was
//!      pushed earlier), so the `seq` sort behind it is a linear check.
//!      The requester's second prototype — hand-rolled power-of-two
//!      rings, batch drains by repeated global-min pops — was *slower*
//!      than plain `VecDeque`s (`fig02` 101 vs 93 ns/event), which is why
//!      the rings here are `VecDeque`s and batches drain run by run.
//!
//! # Structure
//!
//! * **Lane level**: `LANES` (8) FIFO rings of entries. A `QueueService` or
//!   `Arrive` push goes to the lane whose back time is the latest one at
//!   or before it (an empty lane if none is, the calendar level if every
//!   lane is closed to it); best fit never opens more lanes than there
//!   are distinct push deltas in play. Pops take the least lane head or
//!   the calendar head, whichever is earlier in `(time, seq)`.
//! * **Ring level**: `buckets.len()` (a power of two) time buckets of
//!   width `2^shift` picoseconds. An event at absolute time `t` belongs
//!   to absolute bucket `t >> shift`; the ring covers the window
//!   `[cur, cur + buckets.len())` of absolute buckets, stored at slot
//!   `abs & mask`. Buckets are unsorted and append-only until the cursor
//!   reaches them; then the bucket is sorted once (descending
//!   `(time, seq)`, so the minimum is at the back of the sorted run) and
//!   later arrivals queue behind it as the late run (bakeoff entry 3).
//! * **Overflow level**: events beyond the ring window go to a min-heap
//!   and migrate into the ring as the cursor advances (one cheap peek
//!   per cursor step), or in bulk when the ring drains and the cursor
//!   jumps to the overflow head.
//! * **Past events**: a push at a time at or before the current bucket
//!   (legal — harnesses schedule control events "now") lands in the
//!   current bucket, where the sort order pops it first.
//!
//! # Total order and batch-drain invariants
//!
//! Pop order is the exact total order on `(time, seq)`: `seq` is unique
//! and assigned at push, so pop order can never depend on lane choice,
//! bucket layout, late-run merges, width re-tunes, or overflow
//! migrations — simulations stay byte-for-byte reproducible across any
//! re-configuration (the property tests in `tests/calendar_order.rs` pin
//! equivalence against a reference binary heap over arbitrary interleaved
//! push/pop sequences of every event kind, including same-timestamp FIFO
//! ties, lock-step bursts and link-shaped streams that overflow the
//! lanes; debug builds also assert each lane's order at push and that
//! pops never go back).
//!
//! [`EventQueue::drain_batch_into`] supports the engine's batched
//! execution: it pops *every* event sharing the earliest pending
//! timestamp in one call. Three invariants make this safe:
//!
//! * a lane is sorted, so its events at the earliest timestamp are a
//!   prefix of it; the batch is those prefixes plus the calendar level's
//!   tied run, put in `seq` order;
//! * on the calendar level, events that share a timestamp always share
//!   an absolute bucket, and a late entry at the head's timestamp is
//!   merged before the head is looked at, so its tied run is one suffix
//!   of the sorted run;
//! * events pushed *while a batch executes* carry sequence numbers above
//!   every batch member, so same-timestamp newcomers drain in a
//!   follow-up batch, after the current one — exactly where the
//!   one-pop-at-a-time order would put them.
//!
//! The engine's drain helper preserves the order even when a run stops
//! mid-batch: leftovers keep their `(time, seq)` keys and are merged
//! against the queue head key-by-key on resume (see
//! `Engine::drain_events`).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::arena::{PacketRef, Slab};
use crate::ids::{HostId, LinkId, NodeRef, SwitchId};
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
    /// Set a link's random drop (bit-error) probability.
    LinkBer(LinkId, f64),
    /// Set a link's gray-failure (silent loss) probability; 0.0 heals.
    LinkGray(LinkId, f64),
    /// Set a link's payload-corruption probability; 0.0 heals.
    LinkCorrupt(LinkId, f64),
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
}

/// The compact calendar payload: every variant fits in 12 bytes.
///
/// `Arrive` (the hot variant) is stored directly; the rare wide payloads
/// — a timer's `u64` token, a control event — are parked in side slabs
/// and referenced by index, which keeps the whole [`Entry`] at 32 bytes
/// instead of 40. At a few thousand pending events that is the difference
/// between the bucket arrays living comfortably in L1/L2 or not.
#[derive(Debug, Clone, Copy)]
enum Slot {
    QueueService { link: LinkId },
    Arrive { node: NodeRef, pkt: PacketRef },
    Timer { idx: u32 },
    Control { idx: u32 },
}

/// The public event of a lane entry's slot: lanes admit only the two
/// packet-path kinds, whose payloads are inline.
fn packet_event(slot: Slot) -> Event {
    match slot {
        Slot::QueueService { link } => Event::QueueService { link },
        Slot::Arrive { node, pkt } => Event::Arrive { node, pkt },
        Slot::Timer { .. } | Slot::Control { .. } => unreachable!("lanes hold packet events"),
    }
}

/// A calendar entry: POD only, cheap to move through bucket sorts and
/// overflow sifts.
///
/// Kept well under the size of a [`Packet`](crate::packet::Packet) — the
/// `calendar_entries_are_small_pods` test pins the bound so a packet can
/// never creep back inline.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: Time,
    seq: u64,
    slot: Slot,
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
        // Reversed: earliest `(time, seq)` compares *greatest*. This makes
        // the overflow `BinaryHeap` (a max-heap) pop earliest-first, and an
        // ascending `sort_unstable` of a bucket put the earliest entry at
        // the back, where `Vec::pop` removes it without shifting. `seq` is
        // unique, so this is a *total* order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Fewest ring buckets the calendar keeps (and its initial size).
const MIN_BUCKETS: usize = 16;
/// Most ring buckets a resize may grow to (bounds the ring's memory).
const MAX_BUCKETS: usize = 1 << 16;
/// Narrowest bucket width: 2^6 = 64 ps.
const MIN_SHIFT: u32 = 6;
/// Widest bucket width: 2^40 ps ≈ 1.1 s (also clamps EWMA gap samples).
const MAX_SHIFT: u32 = 40;
/// Starting width before any gap has been observed: 2^16 ps ≈ 65.5 ns,
/// about one MTU serialization at 400 Gbps.
const DEFAULT_SHIFT: u32 = 16;
/// Pushes between looks at the resize and retune thresholds: they move
/// slowly, and a look costs a noticeable share of an O(1) push.
const RESIZE_STRIDE: u64 = 16;
/// Consecutive underfull looks (512 pushes) required before the ring
/// shrinks (see [`EventQueue`]'s `maybe_resize`).
const SHRINK_STREAK: u32 = 512 / RESIZE_STRIDE as u32;
/// log2 of the occupancy a rebuild aims for (~4 events per bucket).
/// Targeting one event per bucket (the textbook calendar) maximizes
/// bucket count and loses to cache misses: every push lands in a random
/// slot of a ring bigger than L2. Wider buckets shrink the ring 4x,
/// keep pushes local, and cost only a slightly longer (still tiny)
/// in-bucket sort at cursor arrival.
const TARGET_OCC_SHIFT: u32 = 3;
/// Fewest pushes a retune decision is judged over.
const RETUNE_WINDOW: u64 = 256;
/// Pushes per pending event a retune decision is judged over: a rebuild
/// re-files every pending entry, and what it buys per event (an overflow
/// sift, a few sort levels) is a fraction of that.
const RETUNE_PAYBACK: u64 = 4;
/// Occupancy above which a drained bucket counts as too dense: 8x what a
/// rebuild aims for.
const DENSE_BUCKET: usize = 8 << TARGET_OCC_SHIFT;
/// Bits narrower the gap EWMA must ask for before dense buckets buy a
/// rebuild: the EWMA wobbles by a bit, and a bit saves one sort level.
const RETUNE_SLACK: u32 = 2;
/// Monotone lanes in front of the calendar level (see the module docs,
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
/// The head key of an empty lane or an empty calendar level: after every
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

/// Geometry and work counters of the queue's levels.
///
/// Diagnostics only: they ride the sweep's perf stream (never the
/// byte-stable results) so a per-event collapse like the one in bakeoff
/// entry 3 of the module docs is readable from a run's artefacts. The
/// three `lane*` fields describe the lane level; every other field
/// describes the calendar level only — the timers, controls and lane
/// misfits it still holds — so on a packet cell they count a few per
/// cent of the pushes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CalendarStats {
    /// log2 of the current bucket width in picoseconds.
    pub shift: u32,
    /// Ring buckets currently active.
    pub buckets: u32,
    /// Geometry rebuilds (grow, shrink and retune).
    pub retunes: u64,
    /// Late runs merged into the draining bucket's sorted run.
    pub late_merges: u64,
    /// Entries those merges moved (sorted-run entries shifted plus late
    /// entries placed among them).
    pub merge_moved: u64,
    /// Largest bucket the cursor has drained.
    pub max_bucket: u64,
    /// Pushes that took the overflow level.
    pub overflow_pushes: u64,
    /// Pushes a lane admitted (the rest went to the calendar level).
    pub lane_pushes: u64,
    /// Most lanes non-empty at once.
    pub lanes_open: u32,
    /// `QueueService`/`Arrive` pushes no lane admitted: all eight were
    /// non-empty with a back later than the push.
    pub lane_misfits: u64,
}

/// A deterministic event queue (monotone lanes in front of a two-level,
/// self-tuning calendar — see the module docs for the design and its
/// invariants).
///
/// The rare wide payloads (timer tokens, control events) live in
/// [`Slab`]s so calendar entries stay 32-byte PODs (see [`Slot`]); the
/// slabs recycle slots, so a warmed-up calendar schedules without
/// allocating.
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
    /// Ring level: bucket vecs, each holding one bucket-width of events
    /// inside the current window. Physically never shrinks: a rebuild to
    /// fewer buckets just narrows `mask`, leaving the now-inactive slot
    /// vecs (and, crucially, their capacities) parked for the next grow —
    /// this is what keeps resize oscillation allocation-free after the
    /// ring's high-water mark is reached. Only a rebuild that changes the
    /// *width* trims slot capacity (to [`DENSE_BUCKET`]): what the old
    /// time-to-slot mapping needed beyond that is no use to the new one.
    buckets: Vec<Vec<Entry>>,
    /// `active_buckets - 1` where `active_buckets` is the power of two
    /// currently in use (≤ `buckets.len()`); masks absolute bucket
    /// numbers to slots.
    mask: u64,
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// Absolute bucket number (`time >> shift`) the cursor is draining.
    cur: u64,
    /// Whether the cursor has sorted the current bucket (see
    /// [`Entry::cmp`]). While set, the bucket is `[sorted run | late
    /// run]`: `[..sorted_len]` is sorted, the rest arrived afterwards.
    cur_sorted: bool,
    /// Length of the current bucket's sorted run (valid while
    /// `cur_sorted`).
    sorted_len: usize,
    /// Earliest timestamp in the late run (valid while it is non-empty).
    late_min: Time,
    /// Events held in ring buckets.
    ring_len: usize,
    /// Overflow level: events beyond the ring window, earliest on top.
    overflow: BinaryHeap<Entry>,
    timers: Slab<(HostId, u64)>,
    controls: Slab<ControlEvent>,
    /// Next push's sequence number: one counter for both levels.
    seq: u64,
    /// Pushes the calendar level took (its resize stride and retune
    /// windows count these, not lane traffic).
    cal_pushes: u64,
    /// EWMA of observed non-zero inter-pop gaps, in picoseconds; the
    /// width self-tunes from this at resize and retune time.
    gap_ewma: u64,
    /// Time of the calendar level's most recent pop (EWMA sampling point).
    last_pop: Time,
    /// Whether `last_pop` is valid yet.
    popped_any: bool,
    /// Consecutive looks that saw the ring underfull (shrink hysteresis).
    underflow_streak: u32,
    /// log2 of the picoseconds a retune demanded the ring window span
    /// (0 = no demand; see [`EventQueue::maybe_retune`]).
    span_shift: u32,
    /// Calendar-level and overflow pushes when the current retune window
    /// opened.
    window_pushes: u64,
    window_overflow: u64,
    /// Whether the cursor drained a bucket above [`DENSE_BUCKET`] in the
    /// current retune window.
    window_dense: bool,
    /// Rebuild and late-run merge scratch; retains capacity so resizes
    /// and merges churn one buffer.
    scratch: Vec<Entry>,
    /// Work counters (geometry fields are filled in by
    /// [`EventQueue::stats`]).
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
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            shift: DEFAULT_SHIFT,
            cur: 0,
            cur_sorted: false,
            sorted_len: 0,
            late_min: Time::ZERO,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            timers: Slab::default(),
            controls: Slab::default(),
            seq: 0,
            cal_pushes: 0,
            gap_ewma: 1 << DEFAULT_SHIFT,
            last_pop: Time::ZERO,
            popped_any: false,
            underflow_streak: 0,
            span_shift: 0,
            window_pushes: 0,
            window_overflow: 0,
            window_dense: false,
            scratch: Vec::new(),
            stats: CalendarStats::default(),
            popped_key: (Time::ZERO, 0, 0),
        }
    }
}

impl EventQueue {
    /// Creates an empty calendar.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: Time, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match event {
            Event::QueueService { link } => Slot::QueueService { link },
            Event::Arrive { node, pkt } => Slot::Arrive { node, pkt },
            Event::Timer { host, token } => Slot::Timer {
                idx: self.timers.insert((host, token)),
            },
            Event::Control(c) => Slot::Control {
                idx: self.controls.insert(c),
            },
        };
        // Packet-path events are `now + a link constant`, so each
        // constant's pushes are already in `(time, seq)` order: they take
        // a lane. Timers and controls (RTO-scale or absolute times, which
        // would close a lane to its stream for milliseconds) never do.
        let packet_path = matches!(slot, Slot::QueueService { .. } | Slot::Arrive { .. });
        if packet_path && self.push_lane(at, seq, slot) {
            return;
        }
        self.stats.lane_misfits += packet_path as u64;
        self.push_calendar(at, seq, slot);
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let cal = self.cal_head();
        let (lane_head, lane) = self.lane_min();
        let e = if lane_head < cal {
            self.pop_lane(lane)
        } else if cal != NO_KEY {
            self.cal_pop()
        } else {
            return None;
        };
        self.debug_assert_pop_order(e.time, e.seq, e.seq);
        Some((e.time, self.resolve(e.slot)))
    }

    /// Pops *every* event sharing the earliest pending timestamp,
    /// appending `(time, seq, event)` triples to `out` in pop order.
    /// Returns the batch timestamp, or `None` when the queue is empty.
    ///
    /// `seq` is the FIFO tie-break token: callers that buffer a batch and
    /// may stop mid-way (the engine's drain helper) use it to merge
    /// leftovers against later queue heads in exact `(time, seq)` order.
    /// The batch is each lane's prefix at that timestamp plus the
    /// calendar level's tied run (see the module docs for why that one is
    /// always contained in one bucket), merged by `seq`.
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
        let cal = self.cal_head();
        let head = cal.min(self.lane_min().0);
        let (t, _) = unpack_key(head);
        if head == NO_KEY || t > deadline {
            return None;
        }
        // The sources with a head at `t`, in head-`seq` order (index
        // `LANES` is the calendar level). Each source's run comes out in
        // ascending `seq`; visiting them by head `seq` makes the
        // concatenation already sorted unless runs interleave.
        let mut sources = [(0u64, 0usize); LANES + 1];
        let mut n = 0;
        let heads = self.lane_head.iter().chain([&cal]);
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
                self.cal_drain_batch(out);
                continue;
            }
            // A whole run, then the lane's head once: re-deriving the
            // head per entry (`pop_lane`) read 8 % slower on the queue
            // alone at batches of a few events and up.
            let lane = &mut self.lanes[source];
            let before = lane.len();
            while lane.front().is_some_and(|h| h.time == t) {
                let e = lane.pop_front().expect("lane has a head");
                out.push((t, e.seq, packet_event(e.slot)));
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
    ///
    /// Takes `&mut self`: peeking may advance the calendar level's cursor,
    /// sort the bucket it lands on and migrate overflow entries — all
    /// order-neutral.
    pub fn peek_key(&mut self) -> Option<(Time, u64)> {
        let head = self.cal_head().min(self.lane_min().0);
        (head != NO_KEY).then(|| unpack_key(head))
    }

    /// Number of pending events, on every level.
    pub fn len(&self) -> usize {
        self.lane_len + self.cal_len()
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current geometry and cumulative work counters.
    pub fn stats(&self) -> CalendarStats {
        CalendarStats {
            shift: self.shift,
            buckets: (self.mask + 1) as u32,
            ..self.stats
        }
    }

    /// Appends `entry` to the lane whose back is the latest one at or
    /// before it in time (patience-sort best fit, which opens no more
    /// lanes than there are distinct push deltas in play), or to an empty
    /// lane when no back fits. Returns `false` when every lane is closed
    /// to it. `seq` only grows, so a back at `entry.time` still precedes
    /// it: whatever the caller's clock does, an admitted entry extends a
    /// strictly increasing run, and which lane took it can never change
    /// the pop order.
    fn push_lane(&mut self, time: Time, seq: u64, slot: Slot) -> bool {
        let at = time.as_ps();
        // How far behind `at` each lane's back is: the least distance is
        // the best fit, an empty lane (back 0) the worst, a closed lane
        // none (`Time::MAX` behind an empty lane reads as closed too, and
        // takes the calendar level).
        let behind = self
            .lane_back
            .map(|back| if back <= at { at - back } else { u64::MAX });
        let (distance, i) = argmin(&behind);
        if distance == u64::MAX {
            return false;
        }
        let lane = &mut self.lanes[i];
        debug_assert!(
            lane.back().is_none_or(|b| (b.time, b.seq) < (time, seq)),
            "lane admitted an entry that does not extend its order"
        );
        let entry = Entry { time, seq, slot };
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

    /// Files an entry on the calendar level.
    fn push_calendar(&mut self, time: Time, seq: u64, slot: Slot) {
        if self.cal_len() == 0 {
            // Empty calendar: re-anchor the window at the event so a long
            // quiet gap cannot strand the cursor far behind.
            self.cur = time.as_ps() >> self.shift;
            self.cur_sorted = false;
        }
        let overflowed = self.place(Entry { time, seq, slot });
        self.stats.overflow_pushes += overflowed as u64;
        let nth = self.cal_pushes;
        self.cal_pushes += 1;
        if nth.is_multiple_of(RESIZE_STRIDE) {
            self.maybe_resize();
        }
    }

    /// Events held on the calendar level.
    fn cal_len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// The calendar level's earliest key ([`NO_KEY`] when it is empty),
    /// with the cursor positioned on that entry.
    fn cal_head(&mut self) -> u128 {
        if !self.advance() {
            return NO_KEY;
        }
        key_of(&self.buckets[(self.cur & self.mask) as usize][self.sorted_len - 1])
    }

    /// Removes the calendar level's earliest entry; the cursor must be
    /// positioned ([`EventQueue::cal_head`] returned a key).
    fn cal_pop(&mut self) -> Entry {
        let idx = (self.cur & self.mask) as usize;
        // The head is the back of the sorted run; the last late entry (if
        // any) fills its slot, which is where the late run now begins.
        self.sorted_len -= 1;
        let e = self.buckets[idx].swap_remove(self.sorted_len);
        self.ring_len -= 1;
        self.note_pop(e.time);
        e
    }

    /// Moves the calendar level's whole tied run at its head timestamp to
    /// `out`, in ascending `seq`; the cursor must be positioned.
    fn cal_drain_batch(&mut self, out: &mut Vec<(Time, u64, Event)>) {
        let idx = (self.cur & self.mask) as usize;
        let sorted = &self.buckets[idx][..self.sorted_len];
        let end = sorted.len();
        let t = sorted[end - 1].time;
        // Sorted descending `(time, seq)`, so the same-timestamp batch is
        // exactly the suffix `[cut, end)` of the sorted run (`advance`
        // merged any late entry due at `t`); walk it back-to-front for
        // ascending seqs.
        let cut = sorted.partition_point(|e| e.time > t);
        for i in (cut..end).rev() {
            let e = self.buckets[idx][i];
            let ev = self.resolve(e.slot);
            out.push((t, e.seq, ev));
        }
        // Close the gap from the back of the late run — its order is
        // free — so the cut costs at most one batch of moves.
        let bucket = &mut self.buckets[idx];
        let len = bucket.len();
        let fill = (end - cut).min(len - end);
        bucket.copy_within(len - fill.., cut);
        bucket.truncate(len - (end - cut));
        self.sorted_len = cut;
        self.ring_len -= end - cut;
        self.note_pop(t);
    }

    /// Debug-only invariants of a positioned cursor (`advance` returned
    /// `true`): the current bucket's sorted run is non-empty and sorted
    /// ascending in [`Entry`]'s (reversed) order — strictly, since
    /// `(time, seq)` keys are unique — with the earliest entry at its
    /// back; `late_min` is the earliest time in the late run behind it;
    /// and that is strictly later than the sorted head, so the head (and
    /// its whole tied run) is the true minimum.
    fn debug_assert_cur_bucket(&self) {
        if cfg!(debug_assertions) {
            let bucket = &self.buckets[(self.cur & self.mask) as usize];
            debug_assert!(
                self.cur_sorted && (1..=bucket.len()).contains(&self.sorted_len),
                "cursor positioned on an unsorted or empty sorted run"
            );
            let (sorted, late) = bucket.split_at(self.sorted_len);
            debug_assert!(
                sorted.windows(2).all(|w| w[0] < w[1]),
                "current bucket lost its sort order"
            );
            let late_min = late.iter().map(|e| e.time).min();
            debug_assert!(
                late_min.is_none_or(|t| t == self.late_min),
                "late_min lost track of the late run"
            );
            debug_assert!(
                late_min.is_none_or(|t| t > sorted[sorted.len() - 1].time),
                "a due late entry was left unmerged"
            );
        }
    }

    /// Reconstructs the public event from a slot payload.
    fn resolve(&mut self, slot: Slot) -> Event {
        match slot {
            Slot::QueueService { link } => Event::QueueService { link },
            Slot::Arrive { node, pkt } => Event::Arrive { node, pkt },
            Slot::Timer { idx } => {
                let (host, token) = self.timers.take(idx);
                Event::Timer { host, token }
            }
            Slot::Control { idx } => Event::Control(self.controls.take(idx)),
        }
    }

    /// Files an entry into the ring or the overflow level and returns
    /// whether it took the overflow. Does not touch the empty-calendar
    /// anchor or the resize thresholds — `push_calendar` does.
    fn place(&mut self, entry: Entry) -> bool {
        // No overflow: `cur <= 2^58` (a time in ps shifted right by at
        // least MIN_SHIFT) and the active bucket count is at most 2^16.
        let overflows = entry.time.as_ps() >> self.shift > self.cur + self.mask;
        if overflows {
            self.overflow.push(entry);
        } else {
            self.file(entry);
        }
        overflows
    }

    /// Appends an entry inside the ring window to its bucket: O(1) always.
    /// Past-time entries (`abs < cur`) land in the current bucket. An
    /// entry for the bucket being drained joins its unsorted *late run*
    /// rather than being insertion-sorted — `advance` merges the run when
    /// its earliest entry comes due.
    fn file(&mut self, entry: Entry) {
        let abs = entry.time.as_ps() >> self.shift;
        self.ring_len += 1;
        let bucket = &mut self.buckets[(abs.max(self.cur) & self.mask) as usize];
        if self.cur_sorted
            && abs <= self.cur
            && (bucket.len() == self.sorted_len || entry.time < self.late_min)
        {
            self.late_min = entry.time;
        }
        bucket.push(entry);
    }

    /// Positions the cursor on the bucket holding the earliest event with
    /// that event at the back of the bucket's sorted run. Returns `false`
    /// when the calendar is empty.
    fn advance(&mut self) -> bool {
        if self.ring_len == 0 {
            let Some(head) = self.overflow.peek() else {
                return false;
            };
            // Ring drained: jump the window to the overflow head (always
            // forward — overflow entries were beyond the window when
            // filed) and migrate everything now inside it.
            self.cur = head.time.as_ps() >> self.shift;
            self.cur_sorted = false;
            self.migrate();
            debug_assert!(self.ring_len > 0, "migration must land the head");
        }
        loop {
            let bucket = &mut self.buckets[(self.cur & self.mask) as usize];
            if !bucket.is_empty() {
                if !self.cur_sorted {
                    bucket.sort_unstable();
                    self.cur_sorted = true;
                    self.sorted_len = bucket.len();
                    self.note_drained();
                } else if self.sorted_len < bucket.len()
                    && (self.sorted_len == 0 || self.late_min <= bucket[self.sorted_len - 1].time)
                {
                    // A late entry is due at or before the sorted head's
                    // timestamp (`<=`, so batch drains stay maximal).
                    self.merge_late();
                }
                self.debug_assert_cur_bucket();
                return true;
            }
            self.cur += 1;
            self.cur_sorted = false;
            self.migrate();
        }
    }

    /// Sorts the current bucket's late run and merges it into the sorted
    /// run in place, backward from the bucket's end, so only the sorted
    /// entries that some late entry precedes are moved.
    #[inline(never)]
    fn merge_late(&mut self) {
        let bucket = &mut self.buckets[(self.cur & self.mask) as usize];
        let s = self.sorted_len;
        let (sorted, late) = bucket.split_at_mut(s);
        late.sort_unstable();
        // Late entries earlier than the whole sorted run already sit in
        // their final place, the back; only `late[..m]` interleaves.
        let m = sorted
            .last()
            .map_or(0, |head| late.partition_point(|e| e < head));
        self.scratch.clear();
        self.scratch.extend_from_slice(&late[..m]);
        let (mut i, mut k) = (s, s + m);
        for e in self.scratch.iter().rev() {
            while i > 0 && bucket[i - 1] > *e {
                k -= 1;
                i -= 1;
                bucket[k] = bucket[i];
            }
            k -= 1;
            bucket[k] = *e;
        }
        debug_assert_eq!(k, i, "merge must close the gap exactly");
        self.sorted_len = bucket.len();
        self.stats.late_merges += 1;
        self.stats.merge_moved += (s - i + m) as u64;
        self.note_drained();
    }

    /// Records the occupancy of the bucket the cursor just sorted or
    /// merged, for the perf stream and the retune window.
    fn note_drained(&mut self) {
        let occupancy = self.sorted_len;
        self.stats.max_bucket = self.stats.max_bucket.max(occupancy as u64);
        self.window_dense |= occupancy > DENSE_BUCKET;
    }

    /// Pulls overflow events that fall inside the ring window after a
    /// cursor step or jump. One heap peek when nothing qualifies.
    fn migrate(&mut self) {
        let horizon = self.cur + self.mask + 1;
        while let Some(head) = self.overflow.peek() {
            if head.time.as_ps() >> self.shift >= horizon {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            self.file(e);
        }
        // Everything still overflowing must be beyond the ring horizon —
        // otherwise `advance` could pop a ring entry that a stranded
        // overflow entry should have preceded.
        debug_assert!(
            self.overflow
                .peek()
                .is_none_or(|h| h.time.as_ps() >> self.shift >= horizon),
            "overflow head left inside the ring window after migrate"
        );
    }

    /// Samples the inter-pop gap EWMA the width self-tunes from.
    /// Same-timestamp batches count as one sample point, so dense bursts
    /// cannot drive the width to zero.
    fn note_pop(&mut self, t: Time) {
        if t > self.last_pop {
            if self.popped_any {
                let gap = (t - self.last_pop).as_ps().min(1 << MAX_SHIFT);
                self.gap_ewma = (self.gap_ewma * 7 + gap) / 8;
            }
            self.last_pop = t;
        }
        if !self.popped_any {
            // Retunes judge the running load: how far ahead of the clock
            // pushes land. The schedule loaded before the clock first
            // moved says nothing about that.
            self.popped_any = true;
            self.open_window();
        }
    }

    /// Resizes when occupancy crosses the grow/shrink thresholds — the
    /// only points where the calendar touches the allocator in steady
    /// state (`tests/alloc_calendar.rs` pins this).
    ///
    /// Growth is immediate (an overfull ring degrades every pop), but a
    /// shrink needs the underflow to hold for [`SHRINK_STREAK`]
    /// consecutive looks: a cyclic workload (burst, drain, repeat) dips
    /// under the threshold at every drain tail, and shrinking there would
    /// re-tune the width each cycle — remapping events onto bucket slots
    /// whose capacity never warmed, allocating in steady state. With the
    /// streak, cyclic load settles into one stable configuration.
    fn maybe_resize(&mut self) {
        let len = self.cal_len();
        let nb = (self.mask + 1) as usize;
        if len > nb << (TARGET_OCC_SHIFT + 2) && nb < MAX_BUCKETS {
            self.underflow_streak = 0;
            self.rebuild(len, self.gap_width());
        } else if nb > MIN_BUCKETS && len < nb / 4 {
            self.underflow_streak += 1;
            if self.underflow_streak >= SHRINK_STREAK {
                self.underflow_streak = 0;
                self.span_shift = 0;
                self.rebuild(len, self.gap_width());
            }
        } else {
            self.underflow_streak = 0;
            self.maybe_retune(len);
        }
    }

    /// Re-derives the geometry from what a window of pushes *observed*,
    /// where `maybe_resize` only knows the pending count (see the module
    /// docs, bakeoff entry 3). A window is at least [`RETUNE_PAYBACK`]
    /// pushes per pending event, so retunes stay O(1) amortised — and pay
    /// for themselves — whatever the load does:
    ///
    /// * **Window too short** — more than a quarter of the pushes took the
    ///   overflow level, each paying two heap sifts where a bucket append
    ///   would do. Doubles the span the ring must cover, at the same width.
    /// * **Buckets too wide** — the cursor drained a bucket above
    ///   [`DENSE_BUCKET`] and the gap EWMA now asks for a width at least
    ///   [`RETUNE_SLACK`] bits narrower: the width was derived before the
    ///   EWMA knew this load (or, for a schedule loaded before the first
    ///   pop, never derived at all). A span demand is relaxed a bit at a
    ///   time here, while no push in the window overflowed.
    fn maybe_retune(&mut self, len: usize) {
        let window = self.cal_pushes - self.window_pushes;
        if window < (len as u64 * RETUNE_PAYBACK).max(RETUNE_WINDOW) || !self.popped_any {
            return;
        }
        let overflowed = self.stats.overflow_pushes - self.window_overflow;
        let dense = self.window_dense;
        self.open_window();
        if overflowed * 4 > window {
            if self.shift < MAX_SHIFT {
                // The width stays: the gap EWMA is a local estimate, and
                // nothing observed here says the buckets are too wide.
                self.span_shift = (self.mask + 1).ilog2() + self.shift + 1;
                self.rebuild(len, self.shift);
            }
        } else if dense {
            if overflowed == 0 {
                self.span_shift = self.span_shift.saturating_sub(1);
            }
            if self.geometry(len, self.gap_width()).1 + RETUNE_SLACK <= self.shift {
                self.rebuild(len, self.gap_width());
            }
        }
    }

    /// Starts a fresh observation window for [`EventQueue::maybe_retune`].
    fn open_window(&mut self) {
        self.window_pushes = self.cal_pushes;
        self.window_overflow = self.stats.overflow_pushes;
        self.window_dense = false;
    }

    /// The bucket width (as a shift) the gap EWMA asks for:
    /// `2^TARGET_OCC_SHIFT` observed gaps, or the current width while no
    /// gap has been observed.
    fn gap_width(&self) -> u32 {
        if self.popped_any {
            self.gap_ewma.max(1).ilog2() + TARGET_OCC_SHIFT
        } else {
            self.shift
        }
    }

    /// The `(bucket count, shift)` a rebuild at `len` pending events and
    /// a wanted `width` picks: about `2^TARGET_OCC_SHIFT` events per
    /// bucket, and buckets of that width — widened until the ring spans
    /// `2^span_shift` ps when a retune demanded that.
    fn geometry(&self, len: usize, width: u32) -> (usize, u32) {
        let buckets = (len >> TARGET_OCC_SHIFT)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let by_span = self.span_shift.saturating_sub(buckets.ilog2());
        (buckets, width.max(by_span).clamp(MIN_SHIFT, MAX_SHIFT))
    }

    /// Re-derives the geometry (see [`EventQueue::geometry`]) and re-files
    /// every pending entry. Order-neutral: entries keep their
    /// `(time, seq)` keys.
    fn rebuild(&mut self, len: usize, width: u32) {
        let (target, shift) = self.geometry(len, width);
        let reshaped = shift != self.shift;
        self.shift = shift;
        self.open_window();
        debug_assert_eq!(
            self.buckets.iter().map(Vec::len).sum::<usize>(),
            self.ring_len,
            "ring_len lost track of the buckets"
        );
        self.stats.retunes += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for b in &mut self.buckets {
            scratch.append(b);
            if reshaped {
                // A new width maps times to slots afresh: capacity sized
                // for the old mapping (one 60k-entry bucket, say) is dead
                // weight under the new one. Ordinary slack stays, so the
                // new mapping warms up without re-growing every slot.
                b.shrink_to(DENSE_BUCKET);
            }
        }
        scratch.extend(self.overflow.drain());
        // Grow the physical ring only past its high-water mark; shrinks
        // just narrow the mask so parked slot vecs keep their capacity.
        if target > self.buckets.len() {
            self.buckets.resize_with(target, Vec::new);
        }
        self.mask = (target - 1) as u64;
        self.ring_len = 0;
        // Re-anchor at the earliest pending entry so nothing is filed as
        // a past-time straggler.
        self.cur = scratch
            .iter()
            .map(|e| e.time.as_ps() >> self.shift)
            .min()
            .unwrap_or(0);
        self.cur_sorted = false;
        for entry in scratch.drain(..) {
            self.place(entry);
        }
        self.scratch = scratch;
        // Occupancy accounting: a rebuild re-files entries between levels
        // but must never lose or duplicate one.
        debug_assert_eq!(
            self.ring_len + self.overflow.len(),
            len,
            "rebuild changed the pending-event count"
        );
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
        // A past-time push takes the lane whose back it follows, or none.
        q.push(Time::from_ns(1), service(99));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| link_of(e))
            .collect();
        assert_eq!(order, vec![99, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn a_batch_merges_lane_and_calendar_runs_by_seq() {
        // One timestamp, kinds alternating: the calendar level's run
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
        // The point of the arena indirection: bucket sorts and overflow
        // sifts move fixed-size entries, never packets. Pin the bound so
        // a packet can't creep back inline.
        assert!(
            std::mem::size_of::<Entry>() <= 32,
            "calendar entry grew to {} bytes",
            std::mem::size_of::<Entry>()
        );
        assert!(std::mem::size_of::<Entry>() < std::mem::size_of::<Packet>());
    }

    #[test]
    fn far_future_events_take_the_overflow_level_and_come_back() {
        let mut q = EventQueue::new();
        // Way beyond the initial 16-bucket × 65.5 ns window.
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
        // Drain the cursor up to 100us territory, then schedule earlier.
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
        // Grow well past several resize thresholds, interleaving pops so
        // the gap EWMA has samples, then drain and check global order.
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
            // Each round jumps the clock far ahead of the previous window.
            let base = Time::from_ms(round * 10);
            q.push(base + Time::from_ns(5), timer(0, round * 2 + 1));
            q.push(base, timer(0, round * 2));
            assert_eq!(token_of(q.pop().unwrap().1), round * 2);
            assert_eq!(token_of(q.pop().unwrap().1), round * 2 + 1);
            assert!(q.is_empty());
        }
    }

    /// Runs `ops` hold-model steps (pop, reschedule `delta(i)` ahead),
    /// asserting pops never go back in time.
    fn hold(q: &mut EventQueue, ops: u64, mut delta: impl FnMut(u64) -> u64) {
        let mut last = Time::ZERO;
        for i in 0..ops {
            let (at, ev) = q.pop().expect("hold model never drains");
            assert!(at >= last, "pop went back in time at op {i}");
            last = at;
            q.push(at + Time::from_ps(delta(i)), ev);
        }
    }

    #[test]
    fn width_frozen_before_the_first_pop_is_retuned_from_observed_gaps() {
        // The 10k-host regression: the whole schedule is loaded before
        // the first pop, so every count-driven rebuild ran without a gap
        // sample and the width is still the default guess — with 12
        // bursts 200 ps apart all inside one such bucket.
        let mut q = EventQueue::new();
        for token in 0..2_400u64 {
            q.push(Time::from_ps(token / 200 * 200), timer(0, token));
        }
        let loaded = q.stats();
        assert_eq!(loaded.shift, DEFAULT_SHIFT, "no gap was observed yet");
        assert!(loaded.retunes >= 2, "the load must cross resize thresholds");
        // Lock-step successors: ties stay tied, distinct timestamps stay
        // ~200 ps apart, and most pushes land in the draining bucket.
        hold(&mut q, 40_000, |i| [200, 1_400, 8_200][i as usize % 3]);
        let tuned = q.stats();
        assert!(
            tuned.shift < DEFAULT_SHIFT && tuned.shift <= 200u64.ilog2() + TARGET_OCC_SHIFT + 2,
            "width must follow the observed gaps, not the default: {tuned:?}"
        );
        assert!(tuned.late_merges > 0, "lock-step pushes take the late run");
        assert_eq!(q.len(), 2_400);
    }

    #[test]
    fn overflow_heavy_pushes_widen_the_ring_window() {
        // 256 events rescheduled 1-4 us ahead never cross a count
        // threshold; the 16 x 65.5 ns default window sends three pushes
        // in four through the overflow heap until a retune widens it.
        let mut q = EventQueue::new();
        for token in 0..256u64 {
            q.push(Time::from_ns(token * 16), timer(0, token));
        }
        let mut x = 7u64;
        let mut delta = move |_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1_000_000 + (x >> 33) % 3_000_000
        };
        hold(&mut q, 8_192, &mut delta);
        let settled = q.stats();
        assert!(
            (settled.buckets as u64) << settled.shift >= 4_000_000,
            "ring window must span the 4 us the pushes reach: {settled:?}"
        );
        hold(&mut q, 8_192, &mut delta);
        let after = q.stats();
        assert_eq!(after.retunes, settled.retunes, "a settled window stays put");
        assert!(
            after.overflow_pushes - settled.overflow_pushes < 8_192 / 16,
            "pushes must land in the ring once it spans them: {after:?}"
        );
    }
}
