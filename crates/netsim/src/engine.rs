//! The simulation engine: owns the fabric and drives the event loop.
//!
//! The engine wires a [`Topology`](crate::topology::Topology) into link
//! arenas, hosts endpoint implementations (the transport layer lives in the
//! `transport` crate and plugs in through the [`Endpoint`] trait), routes
//! packets through switches, applies failures, and feeds the statistics
//! collector.
//!
//! # Hot-path invariants
//!
//! The per-packet switch path (`route → select_uplink → push_link`) is
//! allocation-free in steady state, pinned by the allocation-counting test
//! in `tests/alloc.rs`:
//!
//! * packets live in the engine-owned [`PacketArena`]; the calendar and
//!   link queues move 4-byte [`PacketRef`]s, and a packet is written once
//!   (when the host hands it to its NIC),
//! * while a packet is in the fabric its 16-byte arena [`Header`] is the
//!   single source of truth for `src`/`dst`/`ev`/`wire_bytes` and the
//!   data/ECN/trim flags: links, `finish_service`, `arrive_at_switch` and
//!   [`RoutingView::select_uplink`] read and mark only the header, the
//!   packet's one-line arena record (`id`, `conn`, body) is opened once
//!   more — by `take`, on delivery, which rebuilds the packet from header
//!   and record — and packets lost in the fabric are `release`d without
//!   reading it (unless a wide ACK's slab slot must be freed). Every
//!   header access asserts the slot's live bit, so a stale ref panics,
//! * routing queries return compact by-value link-table descriptors
//!   ([`RouteChoice`] carrying a [`LinkRange`]) computed in closed form —
//!   no per-switch table is materialized,
//! * uplink selection works by index; the only buffer it touches is the
//!   engine's reusable failover scratch (capacity bounded by the widest
//!   ECMP group, retained across packets),
//! * every `QueueService` and `Arrive` the packet path schedules is
//!   `now +` a serialization time or a link latency, and `now` never goes
//!   back, so the event queue appends it to one of a few already-sorted
//!   FIFO lanes instead of sifting it through a heap
//!   ([`crate::event`], bakeoff entry 4). The engine relies on nothing
//!   here — the queue checks every admission itself, and a push no lane
//!   admits takes the binary heap behind the lanes, with the timers and
//!   controls — but the speed of the loop does: a packet-path push at
//!   anything but `now + a per-link constant` (jitter, say) would show
//!   as `cal_lane_misfits` on the perf stream, and a population of
//!   thousands of live timers as `cal_heap_peak`,
//! * event queue, link deques, arena free list, the endpoint action
//!   buffer and the same-timestamp batch buffer all retain their
//!   high-water capacity,
//! * endpoints are stored by value, one slot per host in one `Vec`
//!   (`Engine<S, E>` is generic over the endpoint type; the transport's
//!   engines hold `HostEndpoint`s, and `Box<dyn Endpoint>` — the default
//!   — serves mixed test endpoints), and every callback borrows its
//!   endpoint in place: a delivery touches the endpoint's own lines, with
//!   no box to chase and nothing moved out and back,
//! * the whole-batch loop prefetches for the events ahead of it in the
//!   batch it already holds (`Engine::prefetch_ahead`), in two stages.
//!   `PREFETCH_AHEAD` events ahead it warms what the event names: a
//!   `QueueService`'s link, an `Arrive`'s packet header and, for a
//!   delivery, the record line and the endpoint. At half that distance
//!   the header has arrived, so it follows the packet one hop further: a
//!   `QueueService` to the headers `finish_service` reads, a switch
//!   `Arrive` to the egress link `arrive_at_switch` will push onto
//!   (`Engine::egress_hint`, the same route and ECMP hash), a host
//!   `Arrive` to the host's NIC link and, through [`Endpoint::prefetch`],
//!   the connection table the delivery will search. Neither stage can
//!   change a byte: both take `&self` and write nothing, draw no random
//!   number (an adaptive switch's choice is left unpredicted), and read
//!   state that may be gone by the time the event runs (a link flushed,
//!   a packet released) only to form addresses — a header through the
//!   unchecked `PacketArena::peek_header`, never `PacketArena::header`.
//!   A wrong guess costs a wasted line, never a different dispatch. The
//!   one `unsafe` block of the simulation crates is the `_mm_prefetch`
//!   wrapper [`crate::arena::prefetch`] (`transport`'s hint calls it too),
//!   compiled out off x86_64 and under miri.
//!
//! # Batched execution
//!
//! Every `run_*` entry point funnels into one drain helper that pulls
//! events from the calendar a same-timestamp batch at a time and chains
//! consecutive link-service completions inside a single link borrow —
//! see [`Engine::run_until`]'s shared `drain_events` and
//! `Engine::finish_service`. Batching is an execution strategy only:
//! dispatch order remains the exact `(time, seq)` total order, so traces,
//! statistics and golden outputs are byte-identical to the
//! one-pop-at-a-time engine. [`BatchStats`] exposes batch-shape counters
//! to the sweep's perf sink.

use crate::arena::{prefetch, Header, PacketArena, PacketRef};
use crate::config::SimConfig;
use crate::event::{CalendarStats, ControlEvent, Event, EventQueue};
use crate::fluid::FluidNet;
use crate::hash::ecmp_select;
use crate::ids::{FlowId, HostId, LinkId, NodeRef, SwitchId};
use crate::link::{DropReason, EnqueueOutcome, Link, LinkClass, LinkSide, LossCause};
use crate::packet::Packet;
use crate::rng::Rng64;
use crate::stats::{FlowRecord, QueueSample, Stats};
use crate::time::Time;
use crate::topology::{LinkRange, RouteChoice, Topology};
use crate::trace::{NoTrace, TraceEvent, TraceSink};

/// How many events ahead of the one being dispatched the batch loop
/// prefetches for (see [`Engine::prefetch_ahead`]). Far enough that a
/// DRAM miss (~100 ns) lands before its event is dispatched at ~100 ns per
/// event and a handful of misses in flight; near enough that batches of a
/// few dozen events still benefit and the lines are not evicted again.
const PREFETCH_AHEAD: usize = 8;

/// One flapping cable's schedule, generated as it fires: the toggle pair
/// on the calendar, and what the pairs after it are (see
/// [`Engine::schedule_flap`]).
#[derive(Debug, Clone, Copy)]
struct FlapRun {
    /// The `(forward, reverse)` links it toggles.
    pair: (LinkId, LinkId),
    /// Instant of the pair on the calendar.
    at: Time,
    /// Whether that pair takes the cable down (else up).
    down: bool,
    /// Sequence number of the pair's first entry; the second has the next.
    seq: u64,
    /// How long each down and each up lasts.
    down_time: Time,
    up_time: Time,
    /// No toggle at or after it.
    until: Time,
    /// The last number reserved for the run: its last pair's second entry.
    last_seq: u64,
}

/// How switches pick among equal-cost uplinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Hash the packet header (five-tuple + EV). The default, and what every
    /// host-driven load balancer in the paper assumes.
    #[default]
    EcmpHash,
    /// Per-packet adaptive routing: the switch picks the least-loaded uplink
    /// (random tie-break). Models NVIDIA Adaptive RoCE / Spectrum-X (§4.1).
    Adaptive,
}

/// Counters for the batched event-execution path.
///
/// Diagnostics only — they feed the sweep's perf record stream (which is
/// not byte-golden) and never influence simulation behavior.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchStats {
    /// Same-timestamp batches drained from the calendar.
    pub batches: u64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// `QueueService` completions that started the next packet's
    /// serialization in the same link borrow (the batched service path).
    pub chained_services: u64,
    /// Event-queue work counters as of the last `run_*` return.
    pub calendar: CalendarStats,
    /// Events dispatched, by kind; they sum to
    /// [`Engine::events_processed`].
    pub kinds: EventKinds,
    /// Events the look-ahead's second stage hinted for (see
    /// `Engine::prefetch_ahead`): over `events`, the share of the run
    /// dispatched from a batch deep enough to look into.
    pub lookahead_hints: u64,
}

/// Events dispatched by kind (diagnostics, like [`BatchStats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventKinds {
    /// `QueueService`: a link finished serializing a packet.
    pub services: u64,
    /// `Arrive` at a switch.
    pub switch_arrivals: u64,
    /// `Arrive` at a host: a delivery.
    pub host_arrivals: u64,
    /// Endpoint timers.
    pub timers: u64,
    /// Control events: failures, faults, fluid wakes, sampling, starts.
    pub controls: u64,
}

impl EventKinds {
    /// All events counted.
    pub fn total(&self) -> u64 {
        self.services + self.switch_arrivals + self.host_arrivals + self.timers + self.controls
    }
}

/// A request to start (or enqueue) an application message on a host.
#[derive(Debug, Clone, Copy)]
pub struct MessageSpec {
    /// Flow id used in the completion record.
    pub flow: FlowId,
    /// Destination host.
    pub dst: HostId,
    /// Payload bytes.
    pub bytes: u64,
    /// Opaque workload tag (collective phase, trace index, ...).
    pub tag: u64,
}

/// Commands the harness can inject into endpoints.
#[derive(Debug, Clone)]
pub enum Command {
    /// Begin transmitting a message.
    StartMessage(MessageSpec),
    /// Endpoint-defined command.
    Custom(u64),
}

/// Actions an endpoint can emit during a callback.
#[derive(Debug)]
enum Action {
    Send(Packet),
    Timer { at: Time, token: u64 },
    Complete(FlowRecord),
    Timeout,
    Retransmission,
}

/// The callback context handed to endpoints.
///
/// All interaction with the fabric goes through this context; endpoints never
/// touch the engine directly, which keeps them deterministic and testable in
/// isolation.
///
/// The context is generic over the engine's [`TraceSink`]; with the default
/// [`NoTrace`] every `trace.emit(...)` call monomorphizes to nothing, so
/// untraced endpoints keep the exact pre-trace hot path.
pub struct Ctx<'a, S: TraceSink = NoTrace> {
    /// Current simulation time.
    pub now: Time,
    /// The host this endpoint lives on.
    pub host: HostId,
    /// Fabric profile (MTU, RTO, rates).
    pub cfg: &'a SimConfig,
    /// Deterministic per-engine random stream.
    pub rng: &'a mut Rng64,
    /// The engine's flight recorder (a no-op unless the run is traced).
    pub trace: &'a mut S,
    next_pkt_id: &'a mut u64,
    actions: &'a mut Vec<Action>,
}

impl<S: TraceSink> Ctx<'_, S> {
    /// Hands the packet to the host NIC for transmission.
    pub fn send(&mut self, pkt: Packet) {
        self.actions.push(Action::Send(pkt));
    }

    /// Allocates a fabric-unique packet id.
    pub fn fresh_packet_id(&mut self) -> u64 {
        let id = *self.next_pkt_id;
        *self.next_pkt_id += 1;
        id
    }

    /// Schedules `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.actions.push(Action::Timer {
            at: self.now + delay,
            token,
        });
    }

    /// Reports a completed flow to the statistics collector.
    pub fn complete_flow(&mut self, record: FlowRecord) {
        self.actions.push(Action::Complete(record));
    }

    /// Counts a sender-observed timeout (for the drop/timeout statistics).
    pub fn note_timeout(&mut self) {
        self.actions.push(Action::Timeout);
    }

    /// Counts a retransmitted packet.
    pub fn note_retransmission(&mut self) {
        self.actions.push(Action::Retransmission);
    }
}

/// A host endpoint: the transport layer's hook into the engine.
///
/// Generic over the engine's [`TraceSink`] (default [`NoTrace`]), so
/// `impl Endpoint for T` keeps meaning what it always did — an untraced
/// endpoint — while a single `impl<S: TraceSink> Endpoint<S> for T` serves
/// traced and untraced engines from one body.
pub trait Endpoint<S: TraceSink = NoTrace> {
    /// A packet addressed to this host arrived.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_, S>);
    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, S>);
    /// The harness injected a command (message start, custom).
    fn on_command(&mut self, cmd: Command, ctx: &mut Ctx<'_, S>);
    /// A look-ahead hint: the packet behind `header` is due to be
    /// delivered to this endpoint a few events from now. An endpoint may
    /// prefetch the state its `on_packet` will touch for it; the default
    /// does nothing.
    ///
    /// A hint, not a callback: it must change no state, and it may be
    /// wrong — `header` can belong to a packet that is gone by the time
    /// the delivery runs, or to a different packet altogether — so
    /// nothing it reads may steer anything but a prefetch.
    fn prefetch(&self, _header: &Header) {}
}

/// A boxed endpoint is an endpoint: the default endpoint type of
/// [`Engine`] is `Box<dyn Endpoint<S>>`, which lets one engine host
/// endpoints of different types.
impl<S: TraceSink, T: Endpoint<S> + ?Sized> Endpoint<S> for Box<T> {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_, S>) {
        (**self).on_packet(pkt, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, S>) {
        (**self).on_timer(token, ctx);
    }
    fn on_command(&mut self, cmd: Command, ctx: &mut Ctx<'_, S>) {
        (**self).on_command(cmd, ctx);
    }
    fn prefetch(&self, header: &Header) {
        (**self).prefetch(header);
    }
}

/// A borrowed view of the routing-relevant engine state.
///
/// Packaging the immutable parts (`topo`, `links`) separately from the
/// mutable ones (`rng`, the scratch buffer) lets the per-packet switch
/// path run on disjoint field borrows of the engine — and makes the
/// selection logic testable in isolation (the routing-equivalence
/// property tests drive it directly).
pub struct RoutingView<'a> {
    /// Static topology (routing tables).
    pub topo: &'a Topology,
    /// Link arena, for failure state and queue depths.
    pub links: &'a [Link],
    /// Current simulation time.
    pub now: Time,
    /// ECMP reconvergence delay ([`SimConfig::ecmp_failover`]).
    pub failover: Option<Time>,
    /// Uplink selection mode.
    pub mode: RoutingMode,
}

impl RoutingView<'_> {
    /// True when routing still considers `link` usable toward `dst`:
    /// either the link (and the next hop's onward down-path) is up, or the
    /// reconvergence delay since its failure has not elapsed yet.
    pub fn failover_usable(&self, link: LinkId, dst: HostId, delay: Time) -> bool {
        let l = &self.links[link.index()];
        if !l.up && self.now >= l.down_since + delay {
            return false;
        }
        // Route withdrawal: if the next-hop switch would descend toward
        // `dst` over a link that failed long enough ago, upstream routing
        // has excluded this path too.
        if let NodeRef::Switch(peer) = l.to {
            if let Some(RouteChoice::Down(down)) = self.topo.route(peer, dst) {
                let d = &self.links[down.index()];
                if !d.up && self.now >= d.down_since + delay {
                    return false;
                }
            }
        }
        true
    }

    /// Applies ECMP failover filtering, then hash or adaptive selection.
    ///
    /// Allocation-free on the packet path: the failover filter fills the
    /// caller's reusable `scratch` buffer (capacity persists across
    /// packets, bounded by the widest ECMP group) and the adaptive
    /// least-queue tie-break selects by index instead of materializing the
    /// tie set. The tie-break draws exactly one RNG value with the same
    /// bound as the pre-refactor `Vec`-based implementation, so packet
    /// traces are byte-identical.
    pub fn select_uplink(
        &self,
        candidates: LinkRange,
        pkt: &Header,
        salt: u64,
        rng: &mut Rng64,
        scratch: &mut Vec<LinkId>,
    ) -> LinkId {
        assert!(!candidates.is_empty(), "empty ECMP group");
        // `None` = select over the whole descriptor; `Some` = over the
        // failover-filtered scratch slice. When every path is withdrawn we
        // fall back to the full group (the packet blackholes instead of
        // vanishing from the model).
        let filtered: Option<&[LinkId]> = match self.failover {
            Some(delay) => {
                scratch.clear();
                scratch.extend(
                    candidates
                        .iter()
                        .filter(|&l| self.failover_usable(l, pkt.dst, delay)),
                );
                if scratch.is_empty() {
                    None
                } else {
                    Some(scratch.as_slice())
                }
            }
            None => None,
        };
        let len = filtered.map_or(candidates.len(), <[LinkId]>::len);
        let get = |i: usize| filtered.map_or_else(|| candidates.at(i), |s| s[i]);
        match self.mode {
            RoutingMode::EcmpHash => hash_uplink(pkt, salt, len, get),
            RoutingMode::Adaptive => {
                let mut min = u64::MAX;
                let mut ties = 0usize;
                for i in 0..len {
                    let q = self.links[get(i).index()].queued_bytes;
                    if q < min {
                        min = q;
                        ties = 1;
                    } else if q == min {
                        ties += 1;
                    }
                }
                let want = rng.gen_index(ties);
                let mut seen = 0usize;
                for i in 0..len {
                    let l = get(i);
                    if self.links[l.index()].queued_bytes == min {
                        if seen == want {
                            return l;
                        }
                        seen += 1;
                    }
                }
                unreachable!("tie index {want} within tie count {ties}")
            }
        }
    }
}

/// The ECMP-hash choice among `len` candidate uplinks, the `i`-th being
/// `get(i)`. [`RoutingView::select_uplink`]'s `EcmpHash` arm and the batch
/// look-ahead's egress prediction (`Engine::egress_hint`) both pick
/// through this one function, so the hint cannot drift from the choice.
#[inline]
fn hash_uplink(pkt: &Header, salt: u64, len: usize, get: impl Fn(usize) -> LinkId) -> LinkId {
    get(ecmp_select(pkt.src, pkt.dst, pkt.ev, salt, len))
}

/// The discrete-event simulation engine.
///
/// Generic over a [`TraceSink`] flight recorder; the default [`NoTrace`]
/// keeps every trace hook a no-op the optimizer removes, so `Engine` (the
/// default) is exactly the pre-trace engine. [`Engine::with_trace`] builds
/// a recording engine.
///
/// Also generic over the endpoint type `E`, stored by value: an engine
/// whose hosts all run one endpoint type holds them contiguously and
/// dispatches statically. The default, `Box<dyn Endpoint<S>>`, hosts
/// endpoints of mixed types.
pub struct Engine<S: TraceSink = NoTrace, E = Box<dyn Endpoint<S>>> {
    /// Current simulation time.
    pub now: Time,
    /// Fabric profile.
    pub cfg: SimConfig,
    /// Static topology.
    pub topo: Topology,
    /// Link arena (index = `LinkId`).
    pub links: Vec<Link>,
    /// Queue constants per link class (indexed by [`Link::class`]).
    link_classes: [LinkClass; 2],
    /// Rarely set per-link state, indexed by `LinkId`, valid where
    /// [`Link::has_side`] is set; empty until the first link needs it.
    link_side: Vec<LinkSide>,
    /// Statistics collector.
    pub stats: Stats,
    /// Uplink selection mode.
    pub routing: RoutingMode,
    /// Total events dispatched across all `run_*` calls (events/sec
    /// accounting for the sweep perf sink).
    pub events_processed: u64,
    /// In-fabric packet storage; calendar and links hold [`PacketRef`]s.
    pub arena: PacketArena,
    /// The flight recorder ([`NoTrace`] unless the run is traced).
    pub trace: S,
    /// Batched-execution counters (see [`BatchStats`]).
    pub batch_stats: BatchStats,
    events: EventQueue,
    /// Reusable same-timestamp batch buffer ([`Engine::drain_events`]).
    batch: Vec<(Time, u64, Event)>,
    /// First undispatched element of `batch` (leftovers after a mid-batch
    /// stop keep their position here).
    batch_pos: usize,
    endpoints: Vec<Option<E>>,
    rng: Rng64,
    next_pkt_id: u64,
    /// Queue sampling continues while `now` is below this.
    sample_until: Time,
    /// True while a `StatsSample` chain is on the calendar (guards
    /// [`Engine::enable_sampling`] against scheduling a second chain).
    sampling_scheduled: bool,
    scratch_actions: Vec<Action>,
    /// Reusable failover-filter buffer for [`RoutingView::select_uplink`].
    scratch_uplinks: Vec<LinkId>,
    /// Flapping cables, indexed by [`ControlEvent::FlapStep`]'s run.
    flaps: Vec<FlapRun>,
    /// Fluid background-traffic model (hybrid-fidelity cells only; `None`
    /// keeps the pure packet engine untouched).
    pub fluid: Option<FluidNet>,
}

impl Engine {
    /// Builds an untraced engine over `topo` with fabric profile `cfg`.
    pub fn new(topo: Topology, cfg: SimConfig, seed: u64) -> Engine {
        Engine::with_trace(topo, cfg, seed, NoTrace)
    }
}

impl<S: TraceSink, E: Endpoint<S>> Engine<S, E> {
    /// Builds an engine whose decision points feed `trace`, with endpoint
    /// type `E` (see [`Engine`]).
    ///
    /// Tracing is read-only by contract: a traced engine draws the same
    /// RNG stream and produces the same statistics as an untraced one.
    pub fn with_trace(topo: Topology, cfg: SimConfig, seed: u64, trace: S) -> Engine<S, E> {
        let mut links = Vec::with_capacity(topo.links.len());
        for spec in &topo.links {
            // Fold the downstream switch traversal latency into propagation.
            let latency = match spec.to {
                NodeRef::Switch(_) => cfg.link_latency + cfg.switch_latency,
                NodeRef::Host(_) => cfg.link_latency,
            };
            let mut link = Link::new(spec.to, latency, &cfg);
            if matches!(spec.from, NodeRef::Host(_)) {
                // Host NIC egress: deep source queue, no fabric marking.
                link.class = LinkClass::HOST_EGRESS;
            }
            if let (NodeRef::Switch(_), NodeRef::Switch(_), Some(bps)) =
                (spec.from, spec.to, cfg.fabric_bps)
            {
                link.set_rate(bps);
            }
            links.push(link);
        }
        let endpoints = (0..topo.n_hosts).map(|_| None).collect();
        let stats = Stats::new(cfg.stats_bucket);
        Engine {
            now: Time::ZERO,
            link_classes: LinkClass::table(&cfg),
            link_side: Vec::new(),
            cfg,
            topo,
            links,
            stats,
            routing: RoutingMode::EcmpHash,
            events_processed: 0,
            arena: PacketArena::new(),
            trace,
            batch_stats: BatchStats::default(),
            events: EventQueue::new(),
            batch: Vec::new(),
            batch_pos: 0,
            endpoints,
            rng: Rng64::new(seed ^ 0x5EED_0FEB_ECD1_4E75),
            next_pkt_id: 0,
            sample_until: Time::ZERO,
            sampling_scheduled: false,
            scratch_actions: Vec::new(),
            scratch_uplinks: Vec::new(),
            flaps: Vec::new(),
            fluid: None,
        }
    }

    /// Installs the endpoint for `host`.
    pub fn set_endpoint(&mut self, host: HostId, ep: E) {
        self.endpoints[host.index()] = Some(ep);
    }

    /// Immutable access to an endpoint (for harness inspection).
    pub fn endpoint(&self, host: HostId) -> Option<&E> {
        self.endpoints[host.index()].as_ref()
    }

    /// Runs `callback` on `host`'s endpoint, borrowed in place, with a
    /// context at the current time, then applies the actions it emitted.
    /// Returns `false`, having done nothing, when the host has no endpoint.
    fn call_endpoint(
        &mut self,
        host: HostId,
        callback: impl FnOnce(&mut E, &mut Ctx<'_, S>),
    ) -> bool {
        let Some(ep) = self.endpoints[host.index()].as_mut() else {
            return false;
        };
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let mut ctx = Ctx {
            now: self.now,
            host,
            cfg: &self.cfg,
            rng: &mut self.rng,
            trace: &mut self.trace,
            next_pkt_id: &mut self.next_pkt_id,
            actions: &mut actions,
        };
        callback(ep, &mut ctx);
        self.apply_actions(host, &mut actions);
        self.scratch_actions = actions;
        true
    }

    /// Schedules a control event at absolute time `at`.
    pub fn schedule_control(&mut self, at: Time, ev: ControlEvent) {
        self.events.push(at, Event::Control(ev));
    }

    /// Flaps cable `pair`: down at `at`, up `period - up_time` later, down
    /// again a `period` after `at`, and so on, with no toggle at or after
    /// `until`. Each toggle takes the forward link first, then the reverse.
    /// `up_time` must lie strictly between zero and `period`.
    ///
    /// The calendar holds one toggle pair of the run at a time: the pair's
    /// second entry pushes the next. Every entry still gets the sequence
    /// number it would have had pushed here — the run reserves them all
    /// now — so dispatch order, ties included, is that of the whole
    /// schedule pushed up front.
    pub(crate) fn schedule_flap(
        &mut self,
        pair: (LinkId, LinkId),
        at: Time,
        period: Time,
        up_time: Time,
        until: Time,
    ) {
        assert!(
            Time::ZERO < up_time && up_time < period,
            "flap duty must be strictly between 0 and 1"
        );
        let down_time = period - up_time;
        // Downs at `at + k * period`, ups `down_time` after each: the
        // instants of each kind before `until`.
        let before_until = |first: Time| {
            if first < until {
                (until - first).as_ps().div_ceil(period.as_ps())
            } else {
                0
            }
        };
        let pairs = before_until(at) + before_until(at + down_time);
        if pairs == 0 {
            return;
        }
        let seq = self.events.reserve(2 * pairs);
        self.flaps.push(FlapRun {
            pair,
            at,
            down: true,
            seq,
            down_time,
            up_time,
            until,
            last_seq: seq + 2 * pairs - 1,
        });
        self.push_flap_pair(self.flaps.len() - 1);
    }

    /// Puts flap run `run`'s current toggle pair on the calendar.
    fn push_flap_pair(&mut self, run: usize) {
        let r = self.flaps[run];
        let id = u32::try_from(run).expect("fewer than 2^32 flap runs");
        self.events
            .push_reserved(r.at, r.seq, ControlEvent::FlapStep(id, false));
        self.events
            .push_reserved(r.at, r.seq + 1, ControlEvent::FlapStep(id, true));
    }

    /// Runs one entry of flap run `run`'s toggle pair; the second also
    /// moves the run to its next pair and pushes it, if one is due before
    /// the run's horizon. The next pair is always later than `now`, so it
    /// can join no batch already drained.
    fn flap_step(&mut self, run: usize, second: bool) {
        let r = self.flaps[run];
        let link = if second { r.pair.1 } else { r.pair.0 };
        if r.down {
            self.link_down(link);
        } else {
            self.link_up(link);
        }
        if !second {
            return;
        }
        let r = &mut self.flaps[run];
        r.at += if r.down { r.down_time } else { r.up_time };
        r.down = !r.down;
        if r.at >= r.until {
            debug_assert_eq!(
                r.seq + 1,
                r.last_seq,
                "a flap run ended off its reservation"
            );
            return;
        }
        r.seq += 2;
        self.push_flap_pair(run);
    }

    /// Enables periodic queue sampling on tracked links until `until`.
    ///
    /// Idempotent while a sampling chain is already on the calendar:
    /// calling it again only extends (or shortens) the horizon instead of
    /// scheduling a second, double-recording `StatsSample` chain.
    pub fn enable_sampling(&mut self, until: Time) {
        self.sample_until = until;
        if self.cfg.sample_period > Time::ZERO && !self.sampling_scheduled {
            self.sampling_scheduled = true;
            self.events
                .push(self.now, Event::Control(ControlEvent::StatsSample));
        }
    }

    /// Delivers `cmd` to `host`'s endpoint at the current simulation time.
    pub fn command(&mut self, host: HostId, cmd: Command) {
        let delivered = self.call_endpoint(host, |ep, ctx| ep.on_command(cmd, ctx));
        assert!(delivered, "command sent to host without endpoint");
    }

    /// Runs until the calendar empties or `deadline` passes.
    ///
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let n = self.drain_events(deadline, |_| false);
        if self.now < deadline && self.pending_events() == 0 {
            self.now = deadline;
        }
        n
    }

    /// Runs until every expected flow completed, or `deadline`.
    ///
    /// Returns `true` on completion.
    pub fn run_to_completion(&mut self, deadline: Time) -> bool {
        self.drain_events(deadline, Stats::all_flows_done);
        self.stats.all_flows_done()
    }

    /// [`Engine::drain_events_until`], then snapshots the calendar's
    /// counters into [`BatchStats`] for the perf stream.
    fn drain_events(&mut self, deadline: Time, stop: impl FnMut(&Stats) -> bool) -> u64 {
        let n = self.drain_events_until(deadline, stop);
        self.batch_stats.calendar = self.events.stats();
        n
    }

    /// The shared drain loop behind every `run_*` entry point: dispatches
    /// events in exact `(time, seq)` order until the calendar empties,
    /// the next event lies past `deadline`, or `stop(&stats)` turns true.
    /// Returns the number of events dispatched.
    ///
    /// Events are pulled a same-timestamp *batch* at a time
    /// ([`EventQueue::drain_batch_until`]), which amortizes calendar
    /// cursor/sort work over the batch. Exactness:
    ///
    /// * the deadline cannot fire mid-batch on the hot path — a batch
    ///   shares one timestamp, checked before dispatching any of it;
    /// * a `stop` can fire mid-batch, leaving leftovers in `self.batch`.
    ///   Dispatch pushes only at-or-after `now`, with seqs above every
    ///   batch member, so leftovers stay ahead of anything pushed *during*
    ///   the run — but between runs the harness may schedule controls at
    ///   earlier keys, so the resume path (the first loop) re-checks the
    ///   calendar head key against the leftover head per event.
    fn drain_events_until(&mut self, deadline: Time, mut stop: impl FnMut(&Stats) -> bool) -> u64 {
        let mut n = 0;
        // Resume path: leftovers from a previous mid-batch stop, merged
        // against the calendar key-by-key.
        while self.batch_pos < self.batch.len() {
            if stop(&self.stats) {
                return n;
            }
            let (bt, bseq, bev) = self.batch[self.batch_pos];
            match self.events.peek_key() {
                Some((ct, cseq)) if (ct, cseq) < (bt, bseq) => {
                    if ct > deadline {
                        return n;
                    }
                    let (at, ev) = self.events.pop().expect("peeked");
                    self.now = at;
                    self.dispatch(ev);
                }
                _ => {
                    if bt > deadline {
                        return n;
                    }
                    self.batch_pos += 1;
                    self.now = bt;
                    self.dispatch(bev);
                }
            }
            n += 1;
        }
        // Hot path: whole batches.
        'refill: loop {
            if stop(&self.stats) {
                return n;
            }
            self.batch.clear();
            self.batch_pos = 0;
            if self
                .events
                .drain_batch_until(deadline, &mut self.batch)
                .is_none()
            {
                return n;
            }
            self.batch_stats.batches += 1;
            self.batch_stats.max_batch = self.batch_stats.max_batch.max(self.batch.len() as u64);
            loop {
                let (at, _, ev) = self.batch[self.batch_pos];
                let hinted = self.prefetch_ahead();
                self.batch_stats.lookahead_hints += u64::from(hinted);
                self.batch_pos += 1;
                self.now = at;
                self.dispatch(ev);
                n += 1;
                if self.batch_pos == self.batch.len() {
                    continue 'refill;
                }
                if stop(&self.stats) {
                    return n;
                }
            }
        }
    }

    /// Warms the cache for events further down the batch being dispatched,
    /// and returns whether the second stage issued a hint (counted as
    /// [`BatchStats::lookahead_hints`]).
    ///
    /// At 10k hosts nearly every event's first touch of its link, packet
    /// header or endpoint is a cache miss, and the batch — already drained
    /// into `self.batch` — says which ones are next. Two stages, because
    /// each address of the second is only known once a line of the first
    /// has arrived:
    ///
    /// * [`PREFETCH_AHEAD`] events ahead, the state the event names: the
    ///   link of a `QueueService`; the header of an `Arrive`, plus the
    ///   record line and the endpoint itself — stored in place, every line
    ///   of it — when it is a delivery;
    /// * at half that distance, one hop further, through the header stage
    ///   one fetched: the headers `finish_service` will read for a
    ///   `QueueService`; the egress link for a switch `Arrive`
    ///   ([`Engine::egress_hint`]); the NIC link and, through
    ///   [`Endpoint::prefetch`], the connection table for a delivery.
    ///
    /// Hints only: `&self`, nothing written, no RNG draw, and the state may
    /// change before the event runs — a header is read through the
    /// unchecked [`PacketArena::peek_header`] and may be stale — so a
    /// wrong guess wastes a line and changes nothing else: dispatch order,
    /// and so every output byte, is untouched.
    #[inline]
    fn prefetch_ahead(&self) -> bool {
        if let Some(&(_, _, ev)) = self.batch.get(self.batch_pos + PREFETCH_AHEAD) {
            match ev {
                Event::QueueService { link } => self.prefetch_link(link),
                Event::Arrive { node, pkt } => {
                    self.arena.prefetch_header(pkt);
                    if let NodeRef::Host(h) = node {
                        self.arena.prefetch_body(pkt);
                        let p = self.endpoints.as_ptr().wrapping_add(h.index()).cast::<u8>();
                        let size = std::mem::size_of::<Option<E>>();
                        for offset in (0..size).step_by(64).chain([size - 1]) {
                            prefetch(p.wrapping_add(offset));
                        }
                    }
                }
                _ => {}
            }
        }
        let Some(&(_, _, ev)) = self.batch.get(self.batch_pos + PREFETCH_AHEAD / 2) else {
            return false;
        };
        match ev {
            Event::QueueService { link } => {
                self.links[link.index()].prefetch_service_headers(&self.arena);
            }
            Event::Arrive { node, pkt } => {
                let Some(header) = self.arena.peek_header(pkt) else {
                    return false;
                };
                let egress = match node {
                    NodeRef::Switch(sw) => self.egress_hint(sw, header),
                    NodeRef::Host(h) => {
                        if let Some(ep) = &self.endpoints[h.index()] {
                            ep.prefetch(header);
                        }
                        Some(self.topo.host_up[h.index()])
                    }
                };
                match egress {
                    Some(link) => self.prefetch_link(link),
                    None => return false,
                }
            }
            _ => return false,
        }
        true
    }

    /// Prefetches both lines of `link`.
    #[inline]
    fn prefetch_link(&self, link: LinkId) {
        // A `Link` is line-aligned: its lines are exactly its size over 64
        // (two, pinned in `link::tests`).
        const LINES: usize = std::mem::size_of::<Link>() / 64;
        const { assert!(std::mem::align_of::<Link>() == 64) };
        let p = self.links.as_ptr().wrapping_add(link.index()).cast::<u8>();
        for line in 0..LINES {
            prefetch(p.wrapping_add(64 * line));
        }
    }

    /// The link `arrive_at_switch` will push `header`'s packet onto at
    /// `sw`, as far as it can be known without drawing from the RNG: the
    /// route's down-link, or under [`RoutingMode::EcmpHash`] the hashed
    /// uplink ([`hash_uplink`], the choice routing makes). The failover
    /// filter is skipped — it reads every candidate's link — so the guess
    /// can miss while a withdrawn path is filtered out; `None` for an
    /// adaptive choice, which draws.
    fn egress_hint(&self, sw: SwitchId, header: &Header) -> Option<LinkId> {
        match self.topo.route(sw, header.dst)? {
            RouteChoice::Down(link) => Some(link),
            RouteChoice::Up(candidates) => match self.routing {
                RoutingMode::EcmpHash if !candidates.is_empty() => {
                    let salt = self.topo.switches[sw.index()].salt;
                    Some(hash_uplink(header, salt, candidates.len(), |i| {
                        candidates.at(i)
                    }))
                }
                _ => None,
            },
        }
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len() + (self.batch.len() - self.batch_pos)
    }

    fn dispatch(&mut self, ev: Event) {
        self.events_processed += 1;
        let kinds = &mut self.batch_stats.kinds;
        match ev {
            Event::QueueService { link } => {
                kinds.services += 1;
                self.finish_service(link);
            }
            Event::Arrive { node, pkt } => match node {
                NodeRef::Switch(sw) => {
                    kinds.switch_arrivals += 1;
                    self.arrive_at_switch(sw, pkt);
                }
                NodeRef::Host(h) => {
                    kinds.host_arrivals += 1;
                    self.arrive_at_host(h, pkt);
                }
            },
            Event::Timer { host, token } => {
                kinds.timers += 1;
                self.fire_timer(host, token);
            }
            Event::Control(c) => {
                kinds.controls += 1;
                self.control(c);
            }
        }
    }

    /// Starts serializing the next queued packet, if the link is idle.
    fn start_service(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id.index()];
        if link.busy || !link.up {
            return;
        }
        let side = link.has_side.then(|| &self.link_side[link_id.index()]);
        let Some((pkt, ser)) = link.begin_service(&self.arena, side) else {
            return;
        };
        link.serve(pkt, self.now + ser);
        self.events
            .push(self.now + ser, Event::QueueService { link: link_id });
    }

    /// A serialization completed: deliver the committed packet and chain
    /// straight into the next packet's service *inside the same link
    /// borrow* — the batched service path. A link running at capacity sees
    /// an unbroken train of `QueueService` events; chaining pays one
    /// link-slot lookup and one arena access per packet where the
    /// unbatched completion-then-`start_service` shape paid two of each.
    /// Stale events are no-ops: the link failed meanwhile, or failed and
    /// came back within one serialization and now serves a packet due at
    /// another instant ([`Link::completing`]).
    fn finish_service(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id.index()];
        let Some(pkt) = link.completing(self.now) else {
            return;
        };
        let latency = link.latency;
        let to = link.to;
        let side = link.has_side.then(|| &self.link_side[link_id.index()]);
        let loss = side.map(|s| s.loss);
        // Chain while the link is hot. The link is provably up (a down
        // link is not busy, so we could not get here).
        let next = link.begin_service(&self.arena, side);
        if let Some((npkt, ser)) = next {
            link.serve(npkt, self.now + ser);
            self.batch_stats.chained_services += 1;
        } else {
            link.busy = false;
        }
        let header = self.arena.header(pkt);
        self.stats.on_transmit(
            link_id,
            self.now,
            header.wire_bytes as u64,
            header.is_data(),
        );
        // Causes draw in order until one loses the packet, and a clean
        // cause (0.0) — or a link without side state — draws nothing: a
        // clean link leaves the RNG stream, and every downstream byte,
        // untouched by the loss faults.
        let rng = &mut self.rng;
        let lost = loss.and_then(|loss| {
            LossCause::ALL.into_iter().find(|&c| {
                let p = loss[c as usize];
                p > 0.0 && rng.gen_bool(p)
            })
        });
        if let Some(cause) = lost {
            self.arena.release(pkt);
            self.stats.on_drop(cause.reason());
        } else {
            self.events
                .push(self.now + latency, Event::Arrive { node: to, pkt });
        }
        // Calendar push order assigns seqs: the Arrive above must precede
        // the chained QueueService, exactly as the unbatched path ordered
        // its pushes — this keeps every output byte-identical.
        if let Some((_, ser)) = next {
            self.events
                .push(self.now + ser, Event::QueueService { link: link_id });
        }
    }

    fn arrive_at_switch(&mut self, sw: SwitchId, pkt: PacketRef) {
        if !self.topo.switches[sw.index()].alive {
            self.arena.release(pkt);
            self.stats.on_drop(DropReason::LinkDown);
            return;
        }
        // Disjoint field borrows: the routing view reads `topo`/`links`
        // and the packet header stays in the arena, while selection draws
        // from `rng` and fills the scratch buffer — no packet-path copies
        // or allocations.
        let Engine {
            ref topo,
            ref links,
            ref cfg,
            ref arena,
            ref mut rng,
            ref mut scratch_uplinks,
            ref mut trace,
            now,
            routing,
            ..
        } = *self;
        let header = arena.header(pkt);
        let view = RoutingView {
            topo,
            links,
            now,
            failover: cfg.ecmp_failover,
            mode: routing,
        };
        let out = match topo.route(sw, header.dst) {
            Some(RouteChoice::Down(l)) => Some(l),
            Some(RouteChoice::Up(candidates)) => {
                let salt = topo.switches[sw.index()].salt;
                let link = view.select_uplink(candidates, header, salt, rng, scratch_uplinks);
                trace.emit(TraceEvent::PathChoice {
                    at: now,
                    sw,
                    link,
                    ev: header.ev,
                });
                Some(link)
            }
            None => None,
        };
        match out {
            Some(link) => self.push_link(link, pkt),
            None => {
                self.arena.release(pkt);
                self.stats.on_drop(DropReason::LinkDown);
            }
        }
    }

    /// Enqueues `pkt` on `link`, recording the outcome and scheduling service.
    fn push_link(&mut self, link_id: LinkId, pkt: PacketRef) {
        let link = &mut self.links[link_id.index()];
        let class = &self.link_classes[usize::from(link.class)];
        match link.enqueue(pkt, class, &mut self.arena, &mut self.rng) {
            EnqueueOutcome::Queued { marked } => {
                if marked {
                    self.stats.on_ecn_mark();
                }
            }
            EnqueueOutcome::Trimmed => self.stats.on_trim(),
            EnqueueOutcome::Dropped(reason) => {
                self.stats.on_drop(reason);
                return;
            }
        }
        self.start_service(link_id);
    }

    fn arrive_at_host(&mut self, host: HostId, pkt: PacketRef) {
        let pkt = self.arena.take(pkt);
        self.call_endpoint(host, |ep, ctx| ep.on_packet(pkt, ctx));
    }

    fn fire_timer(&mut self, host: HostId, token: u64) {
        self.call_endpoint(host, |ep, ctx| ep.on_timer(token, ctx));
    }

    fn apply_actions(&mut self, host: HostId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send(pkt) => {
                    let up = self.topo.host_up[host.index()];
                    let pkt = self.arena.insert(pkt);
                    self.push_link(up, pkt);
                }
                Action::Timer { at, token } => {
                    self.events.push(at, Event::Timer { host, token });
                }
                Action::Complete(record) => {
                    self.stats.on_flow_complete(record);
                }
                Action::Timeout => self.stats.counters.timeouts += 1,
                Action::Retransmission => self.stats.counters.retransmissions += 1,
            }
        }
    }

    /// `l`'s rarely set state (faults, fluid background): the default —
    /// a clean, unloaded link — unless a control or the fluid model set it.
    pub fn link_side(&self, l: LinkId) -> LinkSide {
        if self.links[l.index()].has_side {
            self.link_side[l.index()]
        } else {
            LinkSide::default()
        }
    }

    /// Applies `change` to `l`'s side-table state, allocating the table on
    /// first use, and keeps the link's flag in step: set exactly while the
    /// state differs from the default.
    fn update_side(&mut self, l: LinkId, change: impl FnOnce(&mut LinkSide)) {
        if self.link_side.is_empty() {
            self.link_side = vec![LinkSide::default(); self.links.len()];
        }
        let side = &mut self.link_side[l.index()];
        change(side);
        self.links[l.index()].has_side = *side != LinkSide::default();
    }

    /// Attaches a fluid background population and schedules its first
    /// wake. No-op on an empty population.
    pub fn attach_fluid(&mut self, mut fluid: FluidNet) {
        if let Some(t) = fluid.next_event() {
            let at = t.max(self.now);
            fluid.scheduled_wake = at;
            self.events
                .push(at, Event::Control(ControlEvent::FluidWake));
        }
        self.fluid = Some(fluid);
    }

    /// Reports a change of `l`'s `up` or `rate_bps` to the fluid model;
    /// its next resolve re-solves the flows that share capacity with `l`.
    fn fluid_link_changed(&mut self, l: LinkId) {
        if let Some(fluid) = &mut self.fluid {
            fluid.mark_dirty(l);
        }
    }

    /// Re-solves the fluid background model at `now` and folds the new
    /// per-link residual rates into the packet layer. Called on every
    /// capacity-changing control event and on scheduled `FluidWake`s;
    /// between calls the background progresses in closed form, so a stale
    /// wake is just a cheap deterministic re-solve.
    fn fluid_resolve(&mut self) {
        let Some(mut fluid) = self.fluid.take() else {
            return;
        };
        let (active, updated) = fluid.resolve(self.now, &self.links);
        let frame = self.cfg.full_frame_bytes() as u64;
        for &li in fluid.changed() {
            let l = LinkId(li);
            let rate = self.links[l.index()].rate_bps();
            self.update_side(l, |s| s.set_background(rate, fluid.link_bg(l), frame));
        }
        for rec in fluid.drain_completions() {
            self.stats.on_flow_complete(rec);
        }
        self.trace.emit(TraceEvent::FluidResolve {
            at: self.now,
            active,
            updated,
        });
        if let Some(t) = fluid.next_event() {
            let t = t.max(self.now);
            // Dedup: only push a wake if it beats the one already on the
            // calendar (or that one has already fired).
            if fluid.scheduled_wake <= self.now || t < fluid.scheduled_wake {
                fluid.scheduled_wake = t;
                self.events.push(t, Event::Control(ControlEvent::FluidWake));
            }
        }
        self.fluid = Some(fluid);
    }

    /// Takes link `l` down, dropping every packet it holds.
    fn link_down(&mut self, l: LinkId) {
        self.trace.emit(TraceEvent::LinkDown {
            at: self.now,
            link: l,
        });
        let flushed = self.links[l.index()].set_down(self.now, &mut self.arena);
        for _ in 0..flushed {
            self.stats.on_drop(DropReason::LinkDown);
        }
        self.fluid_link_changed(l);
        self.fluid_resolve();
    }

    /// Brings link `l` back up.
    fn link_up(&mut self, l: LinkId) {
        self.trace.emit(TraceEvent::LinkUp {
            at: self.now,
            link: l,
        });
        self.links[l.index()].set_up();
        self.fluid_link_changed(l);
        self.fluid_resolve();
    }

    fn control(&mut self, ev: ControlEvent) {
        match ev {
            ControlEvent::LinkDown(l) => self.link_down(l),
            ControlEvent::LinkUp(l) => self.link_up(l),
            ControlEvent::LinkRate(l, bps) => {
                self.trace.emit(TraceEvent::LinkRate {
                    at: self.now,
                    link: l,
                    bps,
                });
                self.links[l.index()].set_rate(bps);
                self.fluid_link_changed(l);
                self.fluid_resolve();
            }
            ControlEvent::LinkLoss(link, cause, p) => {
                let (at, on) = (self.now, p > 0.0);
                self.trace.emit(match cause {
                    LossCause::BitError => TraceEvent::LinkBer { at, link, on },
                    LossCause::Gray => TraceEvent::LinkGray { at, link, on },
                    LossCause::Corrupt => TraceEvent::LinkCorrupt { at, link, on },
                });
                self.update_side(link, |s| s.loss[cause as usize] = p);
            }
            ControlEvent::SwitchDown(sw) => {
                self.trace.emit(TraceEvent::SwitchDown { at: self.now, sw });
                self.topo.switches[sw.index()].alive = false;
                for l in self.topo.switch_links(sw) {
                    let flushed = self.links[l.index()].set_down(self.now, &mut self.arena);
                    for _ in 0..flushed {
                        self.stats.on_drop(DropReason::LinkDown);
                    }
                    self.fluid_link_changed(l);
                }
                self.fluid_resolve();
            }
            ControlEvent::SwitchUp(sw) => {
                self.trace.emit(TraceEvent::SwitchUp { at: self.now, sw });
                self.topo.switches[sw.index()].alive = true;
                for l in self.topo.switch_links(sw) {
                    self.links[l.index()].set_up();
                    self.fluid_link_changed(l);
                }
                self.fluid_resolve();
            }
            ControlEvent::FluidWake => {
                self.fluid_resolve();
            }
            ControlEvent::StatsSample => {
                // Tracking order: deterministic, and no per-tick Vec.
                for (l, series) in &mut self.stats.tracked {
                    let bytes = self.links[l.index()].queued_bytes;
                    series.queue_samples.push(QueueSample {
                        at: self.now,
                        bytes,
                    });
                }
                if self.now < self.sample_until && self.cfg.sample_period > Time::ZERO {
                    self.events.push(
                        self.now + self.cfg.sample_period,
                        Event::Control(ControlEvent::StatsSample),
                    );
                } else {
                    self.sampling_scheduled = false;
                }
            }
            ControlEvent::HostStart(h) => {
                self.command(h, Command::Custom(0));
            }
            ControlEvent::Custom(_) => {}
            ControlEvent::FlapStep(run, second) => self.flap_step(run as usize, second),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConnId;
    use crate::packet::Body;
    use crate::topology::FatTreeConfig;

    /// Echo endpoint: bounces every data packet back as a 64-byte reply and
    /// records what it saw.
    #[derive(Default)]
    struct Echo {
        seen: Vec<u64>,
        replies: Vec<u64>,
    }

    impl<S: TraceSink> Endpoint<S> for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_, S>) {
            match pkt.body {
                Body::Data { seq, .. } => {
                    self.seen.push(seq);
                    let id = ctx.fresh_packet_id();
                    let reply = Packet::control(
                        id,
                        ctx.host,
                        pkt.src,
                        pkt.conn,
                        pkt.ev,
                        Body::Nack { seq },
                    );
                    ctx.send(reply);
                }
                Body::Nack { seq } => self.replies.push(seq),
                _ => {}
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, S>) {}
        fn on_command(&mut self, cmd: Command, ctx: &mut Ctx<'_, S>) {
            if let Command::StartMessage(spec) = cmd {
                let id = ctx.fresh_packet_id();
                let pkt = Packet::data(
                    id,
                    ctx.host,
                    spec.dst,
                    ConnId(0),
                    (spec.tag & 0xFFFF) as u16,
                    spec.tag,
                    ctx.cfg.mtu_bytes,
                    false,
                );
                ctx.send(pkt);
            }
        }
    }

    fn small_engine(seed: u64) -> Engine {
        let topo = Topology::build(FatTreeConfig::two_tier(16, 1), seed);
        let cfg = SimConfig::paper_default();
        let mut engine = Engine::new(topo, cfg, seed);
        for h in 0..engine.topo.n_hosts {
            engine.set_endpoint(HostId(h), Box::new(Echo::default()));
        }
        engine
    }

    /// Keeps the uplink of the last `PathChoice` it was sent.
    #[derive(Default)]
    struct LastChoice(Option<LinkId>);

    impl TraceSink for LastChoice {
        fn emit(&mut self, event: TraceEvent) {
            if let TraceEvent::PathChoice { link, .. } = event {
                self.0 = Some(link);
            }
        }
    }

    /// Every switch arrival of a fault-free, ECMP-hash, three-tier run of
    /// echoed cross-pod packets, as `(switch, header, link taken)`. The
    /// loop dispatches one event at a time, reading the header just before
    /// the arrival and the link just after: an uplink from the trace's
    /// path choice, a down-link from the route (which has no choice).
    fn switch_arrivals() -> (Engine<LastChoice>, Vec<(SwitchId, Header, LinkId)>) {
        let topo = Topology::build(FatTreeConfig::three_tier(8, 1), 9);
        let mut engine: Engine<LastChoice> =
            Engine::with_trace(topo, SimConfig::paper_default(), 9, LastChoice::default());
        let n = engine.topo.n_hosts;
        for h in 0..n {
            engine.set_endpoint(HostId(h), Box::new(Echo::default()));
        }
        for i in 0..4 * n {
            let spec = MessageSpec {
                flow: FlowId(i),
                dst: HostId((i * 37 + n / 2) % n),
                bytes: 4096,
                tag: u64::from(i) * 7919,
            };
            engine.command(HostId(i % n), Command::StartMessage(spec));
        }
        let mut arrivals = Vec::new();
        while let Some((at, ev)) = engine.events.pop() {
            engine.now = at;
            let arrival = match ev {
                Event::Arrive {
                    node: NodeRef::Switch(sw),
                    pkt,
                } => Some((sw, *engine.arena.header(pkt))),
                _ => None,
            };
            engine.trace.0 = None;
            engine.dispatch(ev);
            if let Some((sw, header)) = arrival {
                let taken = match engine.topo.route(sw, header.dst) {
                    Some(RouteChoice::Down(link)) => link,
                    _ => engine.trace.0.expect("an uplink choice is traced"),
                };
                arrivals.push((sw, header, taken));
            }
        }
        assert_eq!(engine.stats.counters.total_drops(), 0);
        (engine, arrivals)
    }

    /// The look-ahead's egress prediction is the link routing takes.
    #[test]
    fn the_egress_hint_predicts_every_switch_arrival() {
        let (engine, arrivals) = switch_arrivals();
        let ups = arrivals
            .iter()
            .filter(|(sw, h, _)| matches!(engine.topo.route(*sw, h.dst), Some(RouteChoice::Up(_))))
            .count();
        assert!(
            ups >= 1000 && ups < arrivals.len(),
            "{ups} of {}",
            arrivals.len()
        );
        for (sw, header, taken) in &arrivals {
            assert_eq!(
                engine.egress_hint(*sw, header),
                Some(*taken),
                "{sw:?} {header:?}"
            );
        }
    }

    /// The same check fails on a hint hashed with the wrong salt.
    #[test]
    fn the_egress_check_catches_a_wrongly_salted_hint() {
        let (mut engine, arrivals) = switch_arrivals();
        for meta in &mut engine.topo.switches {
            meta.salt ^= 1;
        }
        let wrong = arrivals
            .iter()
            .filter(|(sw, header, taken)| engine.egress_hint(*sw, header) != Some(*taken))
            .count();
        assert!(wrong > arrivals.len() / 8, "{wrong} of {}", arrivals.len());
    }

    /// Adaptive routing draws its choice, so the hint makes none.
    #[test]
    fn the_egress_hint_leaves_adaptive_uplinks_alone() {
        let (mut engine, arrivals) = switch_arrivals();
        engine.routing = RoutingMode::Adaptive;
        for (sw, header, taken) in &arrivals {
            let hint = engine.egress_hint(*sw, header);
            match engine.topo.route(*sw, header.dst) {
                Some(RouteChoice::Up(_)) => assert_eq!(hint, None),
                _ => assert_eq!(hint, Some(*taken)),
            }
        }
    }

    #[test]
    fn packet_crosses_fabric_and_returns() {
        let mut engine = small_engine(1);
        engine.command(
            HostId(0),
            Command::StartMessage(MessageSpec {
                flow: FlowId(0),
                dst: HostId(40),
                bytes: 4096,
                tag: 5,
            }),
        );
        engine.run_until(Time::from_us(100));
        // Cross-rack: 4 hops out (data), 4 hops back (control reply).
        assert_eq!(engine.stats.counters.data_tx, 4);
        assert_eq!(engine.stats.counters.ctrl_tx, 4);
        assert_eq!(engine.stats.counters.total_drops(), 0);
    }

    #[test]
    fn rtt_matches_profile_estimate() {
        let mut engine = small_engine(2);
        // Cross-rack: 4 switch hops each way. The config estimate should be
        // within a microsecond of the observed echo time.
        engine.command(
            HostId(0),
            Command::StartMessage(MessageSpec {
                flow: FlowId(0),
                dst: HostId(40),
                bytes: 4096,
                tag: 1,
            }),
        );
        let processed = engine.run_until(Time::from_us(50));
        assert!(processed > 0);
        // Echo reply arrives: check via counters; exact latency checked by
        // the estimate being sane (serialization + 8 hops of 1us).
        let est = engine.cfg.base_rtt(4);
        assert!(
            est > Time::from_us(8) && est < Time::from_us(12),
            "est={est}"
        );
    }

    #[test]
    fn down_link_blackholes_traffic() {
        let mut engine = small_engine(3);
        // Fail host 40's ToR downlink before sending.
        let down = engine.topo.host_down[40];
        engine.schedule_control(Time::ZERO, ControlEvent::LinkDown(down));
        engine.run_until(Time::from_ns(1));
        engine.command(
            HostId(0),
            Command::StartMessage(MessageSpec {
                flow: FlowId(0),
                dst: HostId(40),
                bytes: 4096,
                tag: 2,
            }),
        );
        engine.run_until(Time::from_us(100));
        assert_eq!(engine.stats.counters.drops_link_down, 1);
        assert_eq!(engine.stats.counters.ctrl_tx, 0, "no reply expected");
    }

    #[test]
    fn switch_failure_blackholes() {
        let mut engine = small_engine(4);
        let t1 = engine.topo.t1_switches()[0];
        engine.schedule_control(Time::ZERO, ControlEvent::SwitchDown(t1));
        engine.run_until(Time::from_ns(1));
        // Spray many packets; those hashed through the dead T1 die.
        for i in 0..64 {
            engine.command(
                HostId(0),
                Command::StartMessage(MessageSpec {
                    flow: FlowId(i),
                    dst: HostId(40),
                    bytes: 4096,
                    tag: i as u64,
                }),
            );
        }
        engine.run_until(Time::from_ms(1));
        assert!(engine.stats.counters.drops_link_down > 0);
        assert!(
            engine.stats.counters.ctrl_tx > 0,
            "healthy paths still work"
        );
    }

    #[test]
    fn adaptive_routing_avoids_loaded_uplink() {
        let mut engine = small_engine(5);
        engine.routing = RoutingMode::Adaptive;
        for i in 0..32 {
            engine.command(
                HostId(0),
                Command::StartMessage(MessageSpec {
                    flow: FlowId(i),
                    dst: HostId(40),
                    bytes: 4096,
                    tag: i as u64,
                }),
            );
        }
        engine.run_until(Time::from_ms(1));
        assert_eq!(engine.stats.counters.total_drops(), 0);
        // 32 cross-rack packets, 4 hops each.
        assert_eq!(engine.stats.counters.data_tx, 32 * 4);
    }

    #[test]
    fn timers_fire_in_order() {
        /// Emits a flow record per timer so the firing order is observable
        /// through the statistics collector.
        struct TimerLog;
        impl Endpoint for TimerLog {
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                ctx.complete_flow(FlowRecord {
                    flow: FlowId(token as u32),
                    src: ctx.host,
                    dst: ctx.host,
                    bytes: 0,
                    start: Time::ZERO,
                    end: ctx.now,
                    retransmissions: 0,
                });
            }
            fn on_command(&mut self, _cmd: Command, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Time::from_us(30), 3);
                ctx.set_timer(Time::from_us(10), 1);
                ctx.set_timer(Time::from_us(20), 2);
            }
        }
        let topo = Topology::build(FatTreeConfig::two_tier(4, 1), 1);
        let mut engine = Engine::new(topo, SimConfig::paper_default(), 1);
        engine.set_endpoint(HostId(0), Box::new(TimerLog));
        engine.command(HostId(0), Command::Custom(1));
        engine.run_until(Time::from_us(100));
        let order: Vec<u32> = engine.stats.flows.iter().map(|f| f.flow.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(engine.stats.flows[0].end, Time::from_us(10));
    }

    #[test]
    fn a_flap_within_one_serialization_does_not_cut_the_next_packet_short() {
        /// Sends one MTU data packet per message start and records each
        /// delivery as a flow ending at its arrival time.
        struct Stamp;
        impl Endpoint for Stamp {
            fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
                ctx.complete_flow(FlowRecord {
                    flow: FlowId(pkt.ev.into()),
                    src: pkt.src,
                    dst: ctx.host,
                    bytes: 0,
                    start: Time::ZERO,
                    end: ctx.now,
                    retransmissions: 0,
                });
            }
            fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
            fn on_command(&mut self, cmd: Command, ctx: &mut Ctx<'_>) {
                if let Command::StartMessage(spec) = cmd {
                    let id = ctx.fresh_packet_id();
                    let ev = spec.flow.0 as u16;
                    let mtu = ctx.cfg.mtu_bytes;
                    ctx.send(Packet::data(
                        id,
                        ctx.host,
                        spec.dst,
                        ConnId(0),
                        ev,
                        0,
                        mtu,
                        false,
                    ));
                }
            }
        }
        let send = |engine: &mut Engine, flow: u32| {
            let spec = MessageSpec {
                flow: FlowId(flow),
                dst: HostId(3),
                bytes: 4096,
                tag: 0,
            };
            engine.command(HostId(0), Command::StartMessage(spec));
        };
        // Packet B's arrival when it is sent at 30 ns, after packet A's
        // serialization on host 0's NIC was cut by a down at 10 ns and an
        // up at 20 ns (`flap`) or never began.
        let arrival_of_b = |flap: bool| {
            let topo = Topology::build(FatTreeConfig::two_tier(4, 1), 1);
            let mut engine = Engine::new(topo, SimConfig::paper_default(), 1);
            for h in 0..engine.topo.n_hosts {
                engine.set_endpoint(HostId(h), Box::new(Stamp));
            }
            if flap {
                send(&mut engine, 1);
                let nic = engine.topo.host_up[0];
                engine.schedule_control(Time::from_ns(10), ControlEvent::LinkDown(nic));
                engine.schedule_control(Time::from_ns(20), ControlEvent::LinkUp(nic));
            }
            // A marker event puts the clock at 30 ns in both runs.
            engine.schedule_control(Time::from_ns(30), ControlEvent::Custom(0));
            engine.run_until(Time::from_ns(30));
            send(&mut engine, 2);
            engine.run_until(Time::from_us(10));
            let flows: Vec<(u32, Time)> = engine
                .stats
                .flows
                .iter()
                .map(|f| (f.flow.0, f.end))
                .collect();
            assert_eq!(
                flows.len(),
                1,
                "A is lost with the flap, B arrives: {flows:?}"
            );
            assert_eq!(flows[0].0, 2);
            flows[0].1
        };
        // A's completion event is still on the calendar when B starts; it
        // must not complete B 30 ns early.
        assert_eq!(arrival_of_b(true), arrival_of_b(false));
    }

    #[test]
    fn enable_sampling_twice_does_not_double_record() {
        let run = |enables: u32| {
            let mut engine = small_engine(7);
            let up = engine.topo.host_up[0];
            engine.stats.track_link(up);
            for _ in 0..enables {
                engine.enable_sampling(Time::from_us(50));
            }
            engine.command(
                HostId(0),
                Command::StartMessage(MessageSpec {
                    flow: FlowId(0),
                    dst: HostId(40),
                    bytes: 4096,
                    tag: 0,
                }),
            );
            engine.run_until(Time::from_us(60));
            engine.stats.link_series(up).unwrap().queue_samples.len()
        };
        let once = run(1);
        let twice = run(2);
        assert!(once >= 50, "sampling must run: {once}");
        assert_eq!(once, twice, "second enable_sampling must not double-record");
    }

    #[test]
    fn sampling_can_be_rearmed_after_the_chain_ends() {
        let mut engine = small_engine(8);
        let up = engine.topo.host_up[0];
        engine.stats.track_link(up);
        engine.enable_sampling(Time::from_us(10));
        engine.run_until(Time::from_us(20));
        let first = engine.stats.link_series(up).unwrap().queue_samples.len();
        assert!(first >= 10, "first chain must sample: {first}");
        // The first chain has expired; re-enabling must start a new one.
        engine.enable_sampling(Time::from_us(40));
        engine.run_until(Time::from_us(50));
        let total = engine.stats.link_series(up).unwrap().queue_samples.len();
        assert!(
            total >= first + 10,
            "re-arm after expiry must sample again: {first} -> {total}"
        );
    }

    #[test]
    fn sampling_records_queue_series() {
        let mut engine = small_engine(7);
        let up = engine.topo.host_up[0];
        engine.stats.track_link(up);
        engine.enable_sampling(Time::from_us(50));
        engine.command(
            HostId(0),
            Command::StartMessage(MessageSpec {
                flow: FlowId(0),
                dst: HostId(40),
                bytes: 4096,
                tag: 0,
            }),
        );
        engine.run_until(Time::from_us(60));
        let series = engine.stats.link_series(up).unwrap();
        assert!(series.queue_samples.len() >= 50);
    }
}
