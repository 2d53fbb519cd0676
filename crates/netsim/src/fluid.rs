//! Fluid (flow-level) background traffic: analytic max-min rate shares
//! coexisting with packet-level foreground flows in one engine.
//!
//! The hybrid-fidelity split: REPS/OPS foreground behavior — the thing the
//! paper measures — stays packet-accurate, while background flows become a
//! fluid model that progresses in *closed form* between control events. A
//! [`FluidNet`] holds the background flow population; on every control
//! event that can change capacity (flow arrival, flow departure, link or
//! switch failure/recovery, rate change) the engine calls
//! [`FluidNet::resolve`], which
//!
//! 1. advances every active flow by `floor(rate · Δt / 8e12)` bytes — one
//!    rate class at a time, see below,
//! 2. completes flows that ran out of bytes (exact: the wake the solver
//!    schedules at `ceil(remaining · 8e12 / rate)` guarantees the floor
//!    progression reaches zero at that instant), in admission order,
//! 3. admits flows whose start time has arrived,
//! 4. re-solves max-min fair shares by integer water-filling — over the
//!    *dirty components* only, see below — and
//! 5. reports the per-link background-rate deltas so the engine can fold
//!    them into each [`Link`](crate::link::Link)'s *effective* service
//!    rate (foreground packets see background load as reduced rate plus a
//!    deterministic queue-delay term — see `Link::set_background`).
//!
//! # Component-local re-solve
//!
//! Max-min shares couple two flows only through a chain of shared links.
//! A persistent link → active-flow index (intrusive per-hop lists, sized
//! once in [`FluidNet::finalize`]) makes that coupling graph walkable, and
//! step 4 re-solves just the connected components that contain a *dirty*
//! link: a link on the path of a flow completed or admitted in this
//! resolve, or one whose `up`/`rate_bps` the engine changed and reported
//! through [`FluidNet::mark_dirty`]. From the dirty links the solver
//! walks link → flows → links to closure and water-fills those flows
//! over those links; everything else keeps the share it has.
//!
//! This is exact, not an approximation. The water-filling takes
//! bottlenecks in the total order on `(share, link)`, and a link's
//! remaining capacity and unfrozen-flow count are written only by flows
//! crossing it — so a solve of the whole population takes, for each
//! component, exactly the bottleneck sequence that component takes when
//! solved alone; the heap merely interleaves the components. And the
//! shares of a component with no dirty link are a pure function of inputs
//! that did not change. The from-scratch solve is the same code with every
//! link dirty ([`FluidNet::mark_all_dirty`]); debug builds run it after
//! every incremental resolve and assert that no rate moves, so a link
//! changed without `mark_dirty` fails loudly instead of leaving a stale
//! share behind.
//!
//! What it buys: under flow churn a resolve admits or completes about one
//! flow, and the component it touches is tiny. On the 10 240-host
//! `dctrace-10pct-40us` cells (~300 active flows, ~19k resolves per cell)
//! a resolve re-solves 0.7 flows on average (at most 16) instead of all
//! 300: the solve step fell from ~70 µs to ~0.3 µs. When every flow
//! arrives at once (a tornado background) or load fuses the fabric into
//! one component, the dirty component is the whole population and a
//! resolve costs what the from-scratch solve did; the `--perf` record's
//! `fluid_flows_resolved` and `fluid_max_component` say which regime a
//! cell ran in.
//!
//! # Rate classes
//!
//! Steps 1–2 and [`FluidNet::next_event`] work per *rate class*, not per
//! flow. Flows at the same rate lose exactly the same
//! `floor(rate · Δt / 8e12)` bytes at every resolve, so the active flows
//! of one rate form a class that keeps one running sum `sent` of those
//! per-step floors — the same [`bytes_sent`] over the same `Δt` sequence a
//! per-flow scan takes. A flow joining a class stores `threshold = sent +
//! remaining`; its remaining bytes are `threshold − sent` from then on,
//! exactly the per-step `saturating_sub`, and it runs out at the first
//! resolve where `sent ≥ threshold`. (One floor over the whole interval
//! since the flow joined would lose the per-step remainders and change
//! result bytes; the running sum does not.) Each class keeps its members
//! in an intrusive pairing heap ordered by `(threshold, flow index)`, so
//! step 1 pops just the members that ran out, and `next_event` reads one
//! root per class. Completions are then emitted in ascending flow index —
//! admission order, which the link lists, the dirty set and every trace
//! record follow.
//!
//! The solve moves a flow between classes only when its share changes: it
//! takes `remaining` out of the old class and re-bases it on the new
//! one's `sent`. A flow whose share did not change keeps its heap entry.
//! Stalled flows (rate 0, path down) form the rate-0 class, which never
//! advances. A churn resolve's progression thus costs O(classes + moved ·
//! log n), not O(active): the `hybrid_churn` cells hold ~300 active flows
//! in about four classes. The `--perf` record's `fluid_rate_classes`
//! (most classes alive at once) and `fluid_rebases` (flows moved; a flow
//! admitted into its first class is not counted) show it: at most seven
//! or eight classes on those cells, where about one re-solved flow in
//! five changes its share and moves. When a whole class runs out at once
//! (a tornado's equal flows), step 1 takes its members by one walk of the
//! heap instead of popping them one by one.
//!
//! Rates are never recomputed per packet, and the solver never touches the
//! allocator in steady state: the link → flow index and the class heaps'
//! nodes are sized up front, and every scratch buffer and the class list
//! retain their high-water capacity across resolves. All
//! arithmetic is integer picoseconds/bytes/bps (`u128` intermediates)
//! — no floats, no RNG — so hybrid cells stay byte-deterministic across
//! `--threads` and `--shard` splits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::hash::ecmp_select;
use crate::ids::{FlowId, HostId, LinkId, NodeRef};
use crate::link::Link;
use crate::stats::FlowRecord;
use crate::time::Time;
use crate::topology::{RouteChoice, Topology};

/// Longest path a fluid flow can take (3-tier: host-up, ToR-up, T1-up,
/// core-down, T1-down, ToR-down).
pub const MAX_PATH: usize = 6;

/// Largest share of a link's rate the background may claim, in parts per
/// million. Keeps the residual rate foreground packets see strictly
/// positive and bounds the queue-delay term's denominator away from zero.
pub const MAX_BG_SHARE_PPM: u64 = 950_000;

/// Picoseconds-per-second times bits-per-byte: the bytes ↔ (bps × ps)
/// conversion constant.
const PS_PER_SEC_BITS: u128 = 8 * 1_000_000_000_000;

/// End-of-list marker of the link → flow index.
const NIL: u32 = u32::MAX;

/// One background flow.
#[derive(Debug, Clone, Copy)]
struct FluidFlow {
    /// Flow id (also the entropy source for its deterministic path).
    id: u32,
    src: HostId,
    dst: HostId,
    /// Message size in bytes.
    bytes: u64,
    /// Arrival instant.
    start: Time,
    /// Current max-min share in bits/s (0 while the path is down). While
    /// the flow is active it is a member of the [`RateClass`] of this rate.
    rate_bps: u64,
    /// The fixed path, chosen once at admission-table build time.
    path: [LinkId; MAX_PATH],
    path_len: u8,
    /// Solver scratch: true once this flow's rate is frozen this solve.
    frozen: bool,
    /// Solver scratch: the last solve whose dirty components held this flow.
    stamp: u32,
}

impl FluidFlow {
    fn path(&self) -> &[LinkId] {
        &self.path[..self.path_len as usize]
    }
}

/// Per-link solver state: what the engine last applied, the head of the
/// link's active-flow list, and the water-filling scratch.
#[derive(Debug, Clone, Copy)]
struct LinkSlot {
    /// Background rate in bps the engine last applied.
    bg: u64,
    /// First node of this link's active-flow list ([`NIL`] when idle).
    head: u32,
    /// Solve generation the scratch below belongs to.
    stamp: u32,
    /// Scratch: flows crossing this link not yet frozen.
    nflows: u32,
    /// Scratch: capacity not yet claimed by frozen flows.
    cap: u64,
    /// Scratch: sum of the frozen flows' shares.
    new_bg: u64,
}

/// The active flows that share one rate. Flows at one rate lose the same
/// `floor(rate · Δt / 8e12)` bytes at every resolve, so the class keeps
/// one running sum of those floors and each member the value of that sum
/// at which it runs out of bytes.
#[derive(Debug, Clone, Copy)]
struct RateClass {
    rate_bps: u64,
    /// Bytes one member moved since the class opened: the sum of
    /// [`bytes_sent`] over the resolves in between.
    sent: u64,
    /// Root of the members' pairing heap ([`NIL`] when empty), ordered by
    /// `(threshold, flow index)`.
    root: u32,
    members: u32,
    /// No member's threshold exceeds this: once `sent` reaches it, every
    /// member is out of bytes.
    bound: u64,
}

/// A flow's node in the pairing heap of its rate class, one per flow,
/// sized once in [`FluidNet::finalize`].
#[derive(Debug, Clone, Copy)]
struct ClassNode {
    /// The class's `sent` at which the flow completes: `sent + remaining`,
    /// both taken when the flow joined. Its remaining bytes are
    /// `threshold - sent`.
    threshold: u64,
    /// First child.
    child: u32,
    /// Next sibling.
    next: u32,
    /// Parent when this is a first child, else the previous sibling;
    /// [`NIL`] for a root.
    prev: u32,
}

/// Counters of the fluid model. `resolves`, `admitted` and
/// `residual_updates` surface through `--diagnostics`; `flows_resolved`,
/// `max_component`, `rate_classes` and `rebases` only through the
/// `--perf` record.
#[derive(Debug, Clone, Copy, Default)]
pub struct FluidCounters {
    /// Solver invocations ([`FluidNet::resolve`] calls).
    pub resolves: u64,
    /// Background flows admitted so far.
    pub admitted: u64,
    /// Background flows completed so far.
    pub completed: u64,
    /// Per-link residual-rate updates applied across all resolves.
    pub residual_updates: u64,
    /// Flows whose share was recomputed, summed over all resolves (the
    /// sizes of the dirty components).
    pub flows_resolved: u64,
    /// Most flows any single resolve recomputed.
    pub max_component: u64,
    /// Most rate classes (distinct rates among active flows) alive at the
    /// end of a resolve.
    pub rate_classes: u64,
    /// Active flows moved from one rate class to another: re-solves that
    /// changed a flow's share (a newly admitted flow joining its first
    /// class is not one).
    pub rebases: u64,
}

/// The background-flow population and its event-driven max-min solver.
#[derive(Debug)]
pub struct FluidNet {
    /// All background flows, sorted by `(start, id)` after [`FluidNet::finalize`].
    flows: Vec<FluidFlow>,
    /// Number of admitted, unfinished flows.
    active: u32,
    /// The rate classes, sorted by rate: every active flow is a member of
    /// the class of its `rate_bps` (stalled flows of the rate-0 class).
    classes: Vec<RateClass>,
    /// The classes' heap nodes, one per flow; sized in [`FluidNet::finalize`].
    nodes: Vec<ClassNode>,
    /// Flows that ran out of bytes in the current resolve (scratch).
    done: Vec<u32>,
    /// First not-yet-admitted index into `flows`.
    next_arrival: usize,
    /// Instant the closed-form progression last ran to.
    last_advance: Time,
    /// Earliest `FluidWake` currently on the engine calendar (dedup so a
    /// burst of control events does not flood the calendar with wakes).
    pub(crate) scheduled_wake: Time,
    /// Per-link state, indexed by link.
    slots: Vec<LinkSlot>,
    /// The link → active-flow index: intrusive doubly-linked lists through
    /// one node per hop. Node `fi * MAX_PATH + hop` is flow `fi` crossing
    /// `path[hop]`; sized once in [`FluidNet::finalize`].
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Links whose inputs (flow set, `up`, `rate_bps`) changed since the
    /// last solve: the seeds of the dirty components.
    dirty: Vec<u32>,
    /// Generation of the current solve (validity marker of the scratch).
    gen: u32,
    /// Links of the dirty components, in discovery order (scratch).
    touched: Vec<u32>,
    /// Lazy min-heap of `(fair_share, link)` candidates; stale entries are
    /// detected by recomputing the share at pop time.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Links whose background rate changed in the last resolve.
    changed: Vec<u32>,
    /// Completions produced by the last resolve, in admission order.
    completions: Vec<FlowRecord>,
    /// Active flows and their rates before the debug audit's
    /// from-scratch solve.
    #[cfg(debug_assertions)]
    audit_rates: Vec<(u32, u64)>,
    /// The debug audit's heap-walk stack.
    #[cfg(debug_assertions)]
    audit_stack: Vec<u32>,
    /// Diagnostics and perf counters.
    pub counters: FluidCounters,
}

impl FluidNet {
    /// An empty background population over a fabric with `n_links` links.
    pub fn new(n_links: usize) -> FluidNet {
        let idle = LinkSlot {
            bg: 0,
            head: NIL,
            stamp: 0,
            nflows: 0,
            cap: 0,
            new_bg: 0,
        };
        FluidNet {
            flows: Vec::new(),
            active: 0,
            classes: Vec::new(),
            nodes: Vec::new(),
            done: Vec::new(),
            next_arrival: 0,
            last_advance: Time::ZERO,
            scheduled_wake: Time::ZERO,
            slots: vec![idle; n_links],
            next: Vec::new(),
            prev: Vec::new(),
            dirty: Vec::new(),
            gen: 0,
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            changed: Vec::new(),
            completions: Vec::new(),
            #[cfg(debug_assertions)]
            audit_rates: Vec::new(),
            #[cfg(debug_assertions)]
            audit_stack: Vec::new(),
            counters: FluidCounters::default(),
        }
    }

    /// Adds a background flow. The path is fixed at add time: the same
    /// up/down walk a packet takes, with the flow id as the entropy value
    /// at every ECMP ascent — deterministic, RNG-free.
    pub fn add_flow(
        &mut self,
        topo: &Topology,
        id: u32,
        src: HostId,
        dst: HostId,
        bytes: u64,
        start: Time,
    ) {
        let (path, path_len) = path_for(topo, src, dst, flow_entropy(id));
        self.flows.push(FluidFlow {
            id,
            src,
            dst,
            bytes,
            start,
            rate_bps: 0,
            path,
            path_len,
            frozen: false,
            stamp: 0,
        });
    }

    /// Sorts the admission table and sizes the link → flow index and the
    /// rate-class heap nodes; must be
    /// called once after the last [`FluidNet::add_flow`] and before the
    /// first [`FluidNet::resolve`].
    pub fn finalize(&mut self) {
        self.flows.sort_by_key(|f| (f.start, f.id));
        self.next_arrival = 0;
        let nodes = self.flows.len() * MAX_PATH;
        assert!(nodes < NIL as usize, "fluid population too large");
        self.next = vec![NIL; nodes];
        self.prev = vec![NIL; nodes];
        let idle = ClassNode {
            threshold: 0,
            child: NIL,
            next: NIL,
            prev: NIL,
        };
        self.nodes = vec![idle; self.flows.len()];
    }

    /// Number of currently active background flows.
    pub fn active_count(&self) -> usize {
        self.active as usize
    }

    /// The next instant the background state changes on its own: the
    /// earliest predicted completion or the next arrival. `None` once the
    /// population is drained.
    pub fn next_event(&self) -> Option<Time> {
        // A class's earliest completion is its heap root's. Only the
        // earliest overall matters, so a class is divided out only when it
        // beats the earliest so far — and that test needs no division:
        // `ceil(need / rate) < best` ⇔ `need <= (best - 1) · rate`.
        let mut best: Option<u64> = None;
        for c in &self.classes {
            if c.rate_bps == 0 || c.root == NIL {
                continue; // paths down; re-predicted on recovery
            }
            let remaining = self.nodes[c.root as usize].threshold - c.sent;
            let need = remaining as u128 * PS_PER_SEC_BITS;
            let rate = c.rate_bps as u128;
            if best.is_some_and(|b| need > b.saturating_sub(1) as u128 * rate) {
                continue;
            }
            best = Some(need.div_ceil(rate) as u64);
        }
        let mut next = best.map(|dt| self.last_advance + Time::from_ps(dt));
        if let Some(f) = self.flows.get(self.next_arrival) {
            let t = f.start;
            next = Some(next.map_or(t, |n: Time| n.min(t)));
        }
        next
    }

    /// Links whose background rate changed in the last resolve.
    pub fn changed(&self) -> &[u32] {
        &self.changed
    }

    /// The background rate currently assigned to `link`.
    pub fn link_bg(&self, link: LinkId) -> u64 {
        self.slots[link.index()].bg
    }

    /// Drains the completions the last resolve produced.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, FlowRecord> {
        self.completions.drain(..)
    }

    /// Tells the solver that `link`'s `up` or `rate_bps` changed, so the
    /// next [`FluidNet::resolve`] re-solves the component it belongs to.
    /// Every such change must be reported: an unreported one leaves that
    /// component's shares stale (debug builds catch it in the audit).
    pub fn mark_dirty(&mut self, link: LinkId) {
        self.dirty.push(link.0);
    }

    /// Marks every link dirty: the next [`FluidNet::resolve`] re-solves
    /// the whole population from scratch. The reference the incremental
    /// solve is checked against (debug audit, equivalence tests).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.clear();
        self.dirty.extend(0..self.slots.len() as u32);
    }

    /// Advances, completes, admits and re-solves at `now`. Returns
    /// `(active_flows, links_updated)` for the trace probe.
    ///
    /// Allocation-free in steady state: every buffer retains capacity.
    pub fn resolve(&mut self, now: Time, links: &[Link]) -> (u32, u32) {
        self.counters.resolves += 1;
        // 1. Closed-form progression since the last control event, one
        //    class at a time: a member is out of bytes once the class's
        //    running sum reaches its threshold, and the heap yields those
        //    members first.
        let dt = (now - self.last_advance).as_ps();
        self.last_advance = now;
        let mut done = std::mem::take(&mut self.done);
        for c in &mut self.classes {
            c.sent += bytes_sent(c.rate_bps, dt);
            if c.bound <= c.sent {
                c.drain(&self.nodes, &mut done); // a tornado's flows finish at once
            }
            while c.root != NIL && self.nodes[c.root as usize].threshold <= c.sent {
                done.push(c.pop(&mut self.nodes));
            }
        }
        // 2. Completions, in admission order (ascending flow index), which
        //    is the order the link lists, the dirty set and every trace
        //    record depend on.
        done.sort_unstable();
        for &fi in &done {
            let f = &self.flows[fi as usize];
            self.completions.push(FlowRecord {
                flow: FlowId(f.id),
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
                start: f.start,
                end: now,
                retransmissions: 0,
            });
            self.counters.completed += 1;
            self.active -= 1;
            self.unlink(fi);
        }
        done.clear();
        self.done = done;
        // 3. Admissions. The solve puts each into the class of its share.
        let admitted_from = self.next_arrival;
        while self
            .flows
            .get(self.next_arrival)
            .is_some_and(|f| f.start <= now)
        {
            let fi = self.next_arrival as u32;
            self.active += 1;
            self.link(fi);
            self.next_arrival += 1;
            self.counters.admitted += 1;
        }
        // 4. Max-min fair shares of the dirty components.
        let resolved = self.solve(links, admitted_from) as u64;
        self.counters.flows_resolved += resolved;
        self.counters.max_component = self.counters.max_component.max(resolved);
        self.classes.retain(|c| c.members > 0);
        self.counters.rate_classes = self.counters.rate_classes.max(self.classes.len() as u64);
        // 5. Per-link deltas for the engine to apply (a link the background
        //    departed from is in its old component with a zero share).
        self.changed.clear();
        for &li in &self.touched {
            let slot = &mut self.slots[li as usize];
            if slot.bg != slot.new_bg {
                slot.bg = slot.new_bg;
                self.changed.push(li);
            }
        }
        self.counters.residual_updates += self.changed.len() as u64;
        #[cfg(debug_assertions)]
        self.audit(links, admitted_from);
        (self.active, self.changed.len() as u32)
    }

    /// Threads newly admitted flow `fi` onto the list of every link of its
    /// path and marks those links dirty.
    fn link(&mut self, fi: u32) {
        let f = &self.flows[fi as usize];
        for (hop, l) in f.path().iter().enumerate() {
            let node = fi as usize * MAX_PATH + hop;
            let head = std::mem::replace(&mut self.slots[l.index()].head, node as u32);
            self.next[node] = head;
            self.prev[node] = NIL;
            if head != NIL {
                self.prev[head as usize] = node as u32;
            }
            self.dirty.push(l.0);
        }
    }

    /// Takes completed flow `fi` off the list of every link of its path
    /// and marks those links dirty.
    fn unlink(&mut self, fi: u32) {
        let f = &self.flows[fi as usize];
        for (hop, l) in f.path().iter().enumerate() {
            let node = fi as usize * MAX_PATH + hop;
            let (prev, next) = (self.prev[node], self.next[node]);
            if prev == NIL {
                self.slots[l.index()].head = next;
            } else {
                self.next[prev as usize] = next;
            }
            if next != NIL {
                self.prev[next as usize] = prev;
            }
            self.dirty.push(l.0);
        }
    }

    /// Re-solves max-min shares over the *dirty components*: the dirty
    /// links, the flows crossing them, those flows' other links, and so on
    /// to closure. Returns the number of flows re-solved and leaves the
    /// components' links in `touched` with their new rates in `new_bg`.
    ///
    /// Within the components this is integer water-filling: repeatedly
    /// take the tightest link (smallest `capacity / unfrozen-flow-count`),
    /// freeze every unfrozen flow that crosses it at that fair share, and
    /// charge the share to the rest of each frozen flow's path. The
    /// bottleneck order comes from a lazy min-heap of `(share, link)`
    /// candidates: freezing a flow re-pushes its other path links with
    /// their updated shares, and entries whose share no longer matches at
    /// pop time are re-pushed corrected, so the effective bottleneck
    /// sequence follows the total order on `(share, link)` whatever stale
    /// entries the heap holds.
    ///
    /// Solving only the dirty components is exact, not an approximation.
    /// A link's `cap`/`nflows` are written only by flows crossing it, so
    /// a solve of the whole population pops, for each component, exactly
    /// the sequence that component pops when solved alone — the heap
    /// merely interleaves them. And a component no dirty link belongs to
    /// has the same flows, link rates and link states as when it was last
    /// solved, so its shares are already what a full solve would compute.
    /// The from-scratch solve is this function with every link dirty.
    ///
    /// A flow whose share changes moves to the class of its new share,
    /// carrying its remaining bytes over; one whose share did not change
    /// keeps its heap entry. Flows from `admitted` on were admitted by this
    /// resolve and join the class of their first share.
    fn solve(&mut self, links: &[Link], admitted: usize) -> u32 {
        self.gen = self.gen.wrapping_add(1);
        let gen = self.gen;
        let FluidNet {
            flows,
            slots,
            next,
            dirty,
            touched,
            heap,
            classes,
            nodes,
            counters,
            ..
        } = self;
        let touch = |slots: &mut [LinkSlot], touched: &mut Vec<u32>, li: u32| {
            let slot = &mut slots[li as usize];
            if slot.stamp != gen {
                *slot = LinkSlot {
                    stamp: gen,
                    nflows: 0,
                    cap: bg_cap(&links[li as usize]),
                    new_bg: 0,
                    ..*slot
                };
                touched.push(li);
            }
        };
        touched.clear();
        for li in dirty.drain(..) {
            touch(slots, touched, li);
        }
        // Closure over link → flows → links; `touched` doubles as the
        // work queue. A link's list is final once it is walked, so its
        // first heap entry goes in right then.
        heap.clear();
        let mut unfrozen = 0u32;
        let mut visited = 0;
        while let Some(&li) = touched.get(visited) {
            visited += 1;
            let mut node = slots[li as usize].head;
            let mut crossing = 0u32;
            while node != NIL {
                crossing += 1;
                let f = &mut flows[node as usize / MAX_PATH];
                node = next[node as usize];
                if f.stamp != gen {
                    f.stamp = gen;
                    f.frozen = false;
                    unfrozen += 1;
                    for l in f.path() {
                        touch(slots, touched, l.0);
                    }
                }
            }
            let slot = &mut slots[li as usize];
            slot.nflows = crossing;
            if crossing > 0 {
                heap.push(Reverse((slot.cap / crossing as u64, li)));
            }
        }
        let resolved = unfrozen;
        while unfrozen > 0 {
            let Some(Reverse((share, li))) = heap.pop() else {
                break; // unreachable: every unfrozen flow's links have entries
            };
            let l = li as usize;
            if slots[l].nflows == 0 {
                continue; // stale: all of its flows froze via other links
            }
            let fair = slots[l].cap / slots[l].nflows as u64;
            if fair != share {
                heap.push(Reverse((fair, li)));
                continue; // stale share: re-queue at the current value
            }
            let mut node = slots[l].head;
            while node != NIL {
                let fi = node as usize / MAX_PATH;
                let f = &mut flows[fi];
                node = next[node as usize];
                if f.frozen {
                    continue;
                }
                f.frozen = true;
                let old = std::mem::replace(&mut f.rate_bps, fair);
                if fi >= admitted {
                    join(classes, nodes, fi as u32, fair, f.bytes);
                } else if old != fair {
                    let remaining = leave(classes, nodes, fi as u32, old);
                    join(classes, nodes, fi as u32, fair, remaining);
                    counters.rebases += 1;
                }
                unfrozen -= 1;
                for pl in f.path() {
                    let slot = &mut slots[pl.index()];
                    slot.cap = slot.cap.saturating_sub(fair);
                    slot.nflows -= 1;
                    slot.new_bg += fair;
                    if pl.0 != li && slot.nflows > 0 {
                        heap.push(Reverse((slot.cap / slot.nflows as u64, pl.0)));
                    }
                }
            }
        }
        resolved
    }

    /// Debug guard of the incremental contract: a from-scratch solve right
    /// after the incremental one must reproduce every flow's rate and
    /// every link's background rate, and no link's background may exceed
    /// its capped line rate. A link changed without
    /// [`FluidNet::mark_dirty`] fails here instead of silently running on
    /// a stale share. It also checks the rate classes: one per rate, in
    /// rate order, every active flow in the class of its rate, member
    /// counts, heap order and links, and no member left with no bytes to
    /// go but one admitted (empty) by this resolve. `O(active)` per call.
    #[cfg(debug_assertions)]
    fn audit(&mut self, links: &[Link], admitted: usize) {
        let mut rates = std::mem::take(&mut self.audit_rates);
        let mut stack = std::mem::take(&mut self.audit_stack);
        rates.clear();
        for (i, c) in self.classes.iter().enumerate() {
            debug_assert!(
                i == 0 || self.classes[i - 1].rate_bps < c.rate_bps,
                "rate class {} out of order",
                c.rate_bps
            );
            let first = rates.len();
            walk(&self.nodes, c.root, &mut stack, |n, parent| {
                let (f, node) = (&self.flows[n as usize], &self.nodes[n as usize]);
                debug_assert_eq!(
                    f.rate_bps, c.rate_bps,
                    "flow {} in another rate's class",
                    f.id
                );
                debug_assert!(
                    node.threshold > c.sent || (n as usize >= admitted && f.bytes == 0),
                    "flow {} is out of bytes but did not complete",
                    f.id
                );
                if parent == NIL {
                    debug_assert_eq!(node.prev, NIL, "class root {} has a parent link", f.id);
                } else {
                    let up = &self.nodes[node.prev as usize];
                    debug_assert!(up.child == n || up.next == n, "flow {}: heap links", f.id);
                    debug_assert!(
                        precedes(&self.nodes, parent, n),
                        "flow {}: heap order",
                        f.id
                    );
                }
                rates.push((n, f.rate_bps));
            });
            debug_assert_eq!(
                rates.len() - first,
                c.members as usize,
                "rate class {}: member count",
                c.rate_bps
            );
        }
        debug_assert_eq!(
            rates.len(),
            self.active as usize,
            "an active flow is in no class"
        );
        self.mark_all_dirty();
        self.solve(links, self.next_arrival);
        for &(fi, rate) in &rates {
            let f = &self.flows[fi as usize];
            debug_assert_eq!(
                f.rate_bps, rate,
                "flow {}: incremental rate differs from the from-scratch solve",
                f.id
            );
        }
        for (li, slot) in self.slots.iter().enumerate() {
            debug_assert_eq!(
                slot.new_bg, slot.bg,
                "link {li}: incremental background differs from the from-scratch solve"
            );
            debug_assert!(
                slot.bg <= bg_cap(&links[li]),
                "link {li}: background {} exceeds its cap",
                slot.bg
            );
        }
        self.audit_rates = rates;
        self.audit_stack = stack;
    }
}

impl RateClass {
    /// Adds flow `fi`, due once `sent` reaches `threshold`.
    fn push(&mut self, nodes: &mut [ClassNode], fi: u32, threshold: u64) {
        nodes[fi as usize] = ClassNode {
            threshold,
            child: NIL,
            next: NIL,
            prev: NIL,
        };
        self.root = meld(nodes, self.root, fi);
        self.members += 1;
        self.bound = self.bound.max(threshold);
    }

    /// Removes every member, appending them to `out` in heap order
    /// (breadth first): cheaper than popping them one by one when all are
    /// due.
    fn drain(&mut self, nodes: &[ClassNode], out: &mut Vec<u32>) {
        let mut next = out.len();
        if self.root != NIL {
            out.push(self.root);
        }
        while let Some(&n) = out.get(next) {
            let mut child = nodes[n as usize].child;
            while child != NIL {
                out.push(child);
                child = nodes[child as usize].next;
            }
            next += 1;
        }
        self.root = NIL;
        self.members = 0;
    }

    /// Removes and returns the member due first.
    fn pop(&mut self, nodes: &mut [ClassNode]) -> u32 {
        let top = self.root;
        self.root = merge_pairs(nodes, nodes[top as usize].child);
        self.members -= 1;
        top
    }

    /// Removes member `fi`, wherever it sits in the heap.
    fn remove(&mut self, nodes: &mut [ClassNode], fi: u32) {
        if fi == self.root {
            self.pop(nodes);
            return;
        }
        let ClassNode {
            child, next, prev, ..
        } = nodes[fi as usize];
        let up = &mut nodes[prev as usize];
        if up.child == fi {
            up.child = next;
        } else {
            up.next = next;
        }
        if next != NIL {
            nodes[next as usize].prev = prev;
        }
        let sub = merge_pairs(nodes, child);
        self.root = meld(nodes, self.root, sub);
        self.members -= 1;
    }
}

/// Puts flow `fi`, `remaining` bytes from done, into the class of
/// `rate_bps`, opening the class if no active flow has that rate.
fn join(
    classes: &mut Vec<RateClass>,
    nodes: &mut [ClassNode],
    fi: u32,
    rate_bps: u64,
    remaining: u64,
) {
    let at = match classes.binary_search_by_key(&rate_bps, |c| c.rate_bps) {
        Ok(at) => at,
        Err(at) => {
            let open = RateClass {
                rate_bps,
                sent: 0,
                root: NIL,
                members: 0,
                bound: 0,
            };
            classes.insert(at, open);
            at
        }
    };
    let c = &mut classes[at];
    c.push(nodes, fi, c.sent.saturating_add(remaining));
}

/// Takes flow `fi` out of the class of `rate_bps`; returns the bytes it
/// has still to go.
fn leave(classes: &mut [RateClass], nodes: &mut [ClassNode], fi: u32, rate_bps: u64) -> u64 {
    let at = classes
        .binary_search_by_key(&rate_bps, |c| c.rate_bps)
        .expect("an active flow is in the class of its rate");
    let c = &mut classes[at];
    c.remove(nodes, fi);
    nodes[fi as usize].threshold - c.sent
}

/// The heap order: `(threshold, flow index)`.
fn precedes(nodes: &[ClassNode], a: u32, b: u32) -> bool {
    (nodes[a as usize].threshold, a) < (nodes[b as usize].threshold, b)
}

/// Links the heaps rooted at `a` and `b` (either [`NIL`]) into one and
/// returns its root, with no sibling or parent link.
fn meld(nodes: &mut [ClassNode], a: u32, b: u32) -> u32 {
    let (top, sub) = match (a, b) {
        (NIL, NIL) => return NIL,
        (r, NIL) | (NIL, r) => (r, NIL),
        _ if precedes(nodes, b, a) => (b, a),
        _ => (a, b),
    };
    if sub != NIL {
        let first = nodes[top as usize].child;
        nodes[sub as usize].next = first;
        nodes[sub as usize].prev = top;
        if first != NIL {
            nodes[first as usize].prev = sub;
        }
        nodes[top as usize].child = sub;
    }
    nodes[top as usize].next = NIL;
    nodes[top as usize].prev = NIL;
    top
}

/// Melds the sibling list that starts at `first` into one heap, in the
/// two passes that give the pairing heap its amortized `O(log n)` pop:
/// neighbours in pairs left to right, then the pairs right to left.
fn merge_pairs(nodes: &mut [ClassNode], mut first: u32) -> u32 {
    let mut pairs = NIL; // stacked through `next`, last pair on top
    while first != NIL {
        let a = first;
        let b = nodes[a as usize].next;
        first = if b == NIL {
            NIL
        } else {
            nodes[b as usize].next
        };
        let m = meld(nodes, a, b);
        nodes[m as usize].next = pairs;
        pairs = m;
    }
    let mut root = NIL;
    while pairs != NIL {
        let m = pairs;
        pairs = nodes[m as usize].next;
        root = meld(nodes, root, m);
    }
    root
}

/// Calls `visit(node, parent)` on every node of the heap rooted at `root`
/// ([`NIL`] for the root's parent), using `stack` as scratch.
#[cfg(any(test, debug_assertions))]
fn walk(nodes: &[ClassNode], root: u32, stack: &mut Vec<u32>, mut visit: impl FnMut(u32, u32)) {
    stack.clear();
    if root != NIL {
        visit(root, NIL);
        stack.push(root);
    }
    while let Some(parent) = stack.pop() {
        let mut n = nodes[parent as usize].child;
        while n != NIL {
            visit(n, parent);
            stack.push(n);
            n = nodes[n as usize].next;
        }
    }
}

/// Bytes a flow at `rate_bps` moves in `dt_ps`: `floor(rate · Δt / 8e12)`.
/// Between two churn resolves the product fits 64 bits (400 Gb/s for up to
/// 46 µs), where the constant divisor compiles to a multiply; the `u128`
/// arm is the same quotient for longer gaps.
fn bytes_sent(rate_bps: u64, dt_ps: u64) -> u64 {
    match rate_bps.checked_mul(dt_ps) {
        Some(bit_ps) => bit_ps / PS_PER_SEC_BITS as u64,
        None => (rate_bps as u128 * dt_ps as u128 / PS_PER_SEC_BITS) as u64,
    }
}

/// The most background a link can carry: [`MAX_BG_SHARE_PPM`] of its
/// rate, nothing while it is down.
fn bg_cap(link: &Link) -> u64 {
    if link.up {
        (link.rate_bps() as u128 * MAX_BG_SHARE_PPM as u128 / 1_000_000) as u64
    } else {
        0
    }
}

/// The entropy value a background flow sprays with: a cheap integer mix of
/// its id so sibling flows spread across ECMP groups.
fn flow_entropy(id: u32) -> u16 {
    (id ^ (id >> 16) ^ (id << 3)) as u16
}

/// The deterministic up/down path from `src` to `dst` under entropy `ev`:
/// exactly the walk a packet with that entropy takes through healthy
/// fabric (per-switch salted ECMP at every ascent).
fn path_for(topo: &Topology, src: HostId, dst: HostId, ev: u16) -> ([LinkId; MAX_PATH], u8) {
    let mut path = [LinkId(0); MAX_PATH];
    let mut len = 0u8;
    let mut link = topo.host_up[src.index()];
    loop {
        path[len as usize] = link;
        len += 1;
        match topo.links[link.index()].to {
            NodeRef::Host(h) => {
                debug_assert_eq!(h, dst, "fluid path must end at the destination");
                return (path, len);
            }
            NodeRef::Switch(sw) => {
                assert!(
                    (len as usize) < MAX_PATH,
                    "fluid path exceeded {MAX_PATH} hops"
                );
                link = match topo.route(sw, dst).expect("well-formed fabric") {
                    RouteChoice::Down(l) => l,
                    RouteChoice::Up(candidates) => {
                        let salt = topo.switches[sw.index()].salt;
                        candidates.at(ecmp_select(src, dst, ev, salt, candidates.len()))
                    }
                };
            }
        }
    }
}

#[cfg(test)]
impl FluidNet {
    /// The active flows in admission order, each with its remaining bytes.
    fn active_flows(&self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for c in &self.classes {
            walk(&self.nodes, c.root, &mut Vec::new(), |n, _| {
                out.push((n, self.nodes[n as usize].threshold - c.sent));
            });
        }
        out.sort_unstable();
        out
    }

    /// Gives active flow `fi` `remaining` bytes to go at `rate_bps`,
    /// moving it to the class of that rate.
    fn set_flow(&mut self, fi: u32, remaining: u64, rate_bps: u64) {
        let old = std::mem::replace(&mut self.flows[fi as usize].rate_bps, rate_bps);
        leave(&mut self.classes, &mut self.nodes, fi, old);
        join(&mut self.classes, &mut self.nodes, fi, rate_bps, remaining);
        self.classes.retain(|c| c.members > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::topology::FatTreeConfig;

    fn links_for(topo: &Topology) -> Vec<Link> {
        let cfg = SimConfig::paper_default();
        topo.links
            .iter()
            .map(|spec| Link::new(spec.to, cfg.link_latency, &cfg))
            .collect()
    }

    fn small() -> (Topology, Vec<Link>) {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 7);
        let links = links_for(&topo);
        (topo, links)
    }

    #[test]
    fn paths_follow_the_packet_walk() {
        let (topo, _) = small();
        let (path, len) = path_for(&topo, HostId(0), HostId(31), 9);
        assert_eq!(len, 4, "cross-rack 2-tier path is 4 links");
        // Path is connected: each link's head is the next link's tail.
        for w in path[..len as usize].windows(2) {
            assert_eq!(topo.links[w[0].index()].to, topo.links[w[1].index()].from);
        }
        assert_eq!(
            topo.links[path[len as usize - 1].index()].to,
            NodeRef::Host(HostId(31))
        );
        // Same-rack: 2 links.
        let (_, len) = path_for(&topo, HostId(0), HostId(1), 9);
        assert_eq!(len, 2);
    }

    #[test]
    fn single_flow_gets_the_capped_share_and_completes_exactly() {
        let (topo, links) = small();
        let mut net = FluidNet::new(links.len());
        // 1 MiB at t=0.
        net.add_flow(&topo, 0, HostId(0), HostId(31), 1 << 20, Time::ZERO);
        net.finalize();
        let (active, updated) = net.resolve(Time::ZERO, &links);
        assert_eq!(active, 1);
        assert_eq!(updated as usize, net.changed().len());
        let rate = (400_000_000_000u128 * MAX_BG_SHARE_PPM as u128 / 1_000_000) as u64;
        // Every link on the path carries the capped share.
        for &li in net.changed() {
            assert_eq!(net.link_bg(LinkId(li)), rate);
        }
        let done = net.next_event().expect("completion pending");
        // Exactly ceil(bytes * 8e12 / rate).
        let want = ((1u128 << 20) * PS_PER_SEC_BITS).div_ceil(rate as u128) as u64;
        assert_eq!(done.as_ps(), want);
        let (active, _) = net.resolve(done, &links);
        assert_eq!(active, 0, "flow must complete at the predicted instant");
        let recs: Vec<FlowRecord> = net.drain_completions().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].bytes, 1 << 20);
        assert_eq!(recs[0].end, done);
        assert_eq!(net.next_event(), None);
    }

    #[test]
    fn two_flows_sharing_a_link_split_it_evenly() {
        let (topo, links) = small();
        let mut net = FluidNet::new(links.len());
        // Two flows from the same host: they share the host's NIC uplink.
        net.add_flow(&topo, 0, HostId(0), HostId(31), 1 << 20, Time::ZERO);
        net.add_flow(&topo, 1, HostId(0), HostId(30), 1 << 20, Time::ZERO);
        net.finalize();
        net.resolve(Time::ZERO, &links);
        let nic = topo.host_up[0];
        let cap = (400_000_000_000u128 * MAX_BG_SHARE_PPM as u128 / 1_000_000) as u64;
        assert_eq!(
            net.link_bg(nic),
            (cap / 2) * 2,
            "even split on the shared NIC"
        );
    }

    #[test]
    fn down_path_stalls_and_recovers() {
        let (topo, mut links) = small();
        let mut net = FluidNet::new(links.len());
        net.add_flow(&topo, 0, HostId(0), HostId(31), 1 << 20, Time::ZERO);
        net.finalize();
        net.resolve(Time::ZERO, &links);
        let first_hop = topo.host_up[0];
        // Cut the first hop: rate drops to 0, no completion predicted.
        let mut arena = crate::arena::PacketArena::new();
        links[first_hop.index()].set_down(Time::from_us(1), &mut arena);
        net.mark_dirty(first_hop);
        net.resolve(Time::from_us(1), &links);
        assert_eq!(net.link_bg(first_hop), 0);
        assert_eq!(net.next_event(), None, "stalled flow predicts nothing");
        // Recovery: share comes back, completion predicted again.
        links[first_hop.index()].set_up();
        net.mark_dirty(first_hop);
        net.resolve(Time::from_us(5), &links);
        assert!(net.link_bg(first_hop) > 0);
        assert!(net.next_event().is_some());
    }

    #[test]
    fn resolve_is_deterministic_and_allocation_stable() {
        let (topo, links) = small();
        let run = || {
            let mut net = FluidNet::new(links.len());
            for i in 0..64u32 {
                net.add_flow(
                    &topo,
                    i,
                    HostId(i % 32),
                    HostId((i + 17) % 32),
                    64 << 10,
                    Time::from_us((i % 7) as u64),
                );
            }
            net.finalize();
            let mut log = Vec::new();
            let mut now = Time::ZERO;
            for _ in 0..200 {
                let (active, updated) = net.resolve(now, &links);
                log.push((now.as_ps(), active, updated));
                match net.next_event() {
                    Some(t) => now = t,
                    None => break,
                }
            }
            (log, net.counters.completed)
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b, "resolve schedule must be deterministic");
        assert_eq!(ca, 64, "all flows complete");
        assert_eq!(ca, cb);
    }

    #[test]
    fn next_event_is_the_earliest_divided_out_completion() {
        // The division-free skip test against the plain minimum over
        // every flow's `ceil(remaining · 8e12 / rate)`, at each step of a
        // churning population (unequal sizes, staggered starts, instants
        // that fall between predictions so remainders are ragged).
        let (topo, links) = small();
        let mut rng = crate::rng::Rng64::new(11);
        let mut net = FluidNet::new(links.len());
        for i in 0..96u32 {
            let src = rng.gen_range(32) as u32;
            let dst = (src + 1 + rng.gen_range(31) as u32) % 32;
            let bytes = 1 + rng.gen_range(4 << 20);
            let start = Time::from_ps(rng.gen_range(20_000_000));
            net.add_flow(&topo, i, HostId(src), HostId(dst), bytes, start);
        }
        net.finalize();
        let mut now = Time::ZERO;
        let mut checked = 0;
        while net.counters.completed < 96 {
            net.resolve(now, &links);
            let plain = net
                .active_flows()
                .into_iter()
                .map(|(fi, remaining)| (remaining, net.flows[fi as usize].rate_bps))
                .filter(|&(_, rate_bps)| rate_bps > 0)
                .map(|(remaining, rate_bps)| {
                    let need = remaining as u128 * PS_PER_SEC_BITS;
                    net.last_advance + Time::from_ps(need.div_ceil(rate_bps as u128) as u64)
                })
                .chain(net.flows.get(net.next_arrival).map(|f| f.start))
                .min();
            assert_eq!(net.next_event(), plain, "at {now:?}");
            checked += 1;
            let Some(next) = plain else { break };
            // Every third step stops short of the prediction.
            let gap = (next - now).as_ps();
            now = if checked % 3 == 0 && gap > 1 {
                now + Time::from_ps(1 + rng.gen_range(gap - 1))
            } else {
                next
            };
        }
        assert_eq!(net.counters.completed, 96);
        assert!(checked > 96, "one resolve per arrival and completion");
    }

    #[test]
    fn next_event_takes_a_completion_one_picosecond_earlier() {
        // The boundary of the skip test: a later flow due exactly one
        // picosecond before the earliest so far — with and without a
        // remainder under the `ceil` — must replace it; one due at the
        // same picosecond or later must not move it.
        let (topo, links) = small();
        let byte_per_ps = PS_PER_SEC_BITS as u64;
        let due = |flows: &[(u64, u64)]| {
            let mut net = FluidNet::new(links.len());
            for i in 0..flows.len() as u32 {
                net.add_flow(&topo, i, HostId(i), HostId(31 - i), 1 << 20, Time::ZERO);
            }
            net.finalize();
            net.resolve(Time::ZERO, &links);
            for (fi, &(remaining, rate_bps)) in flows.iter().enumerate() {
                net.set_flow(fi as u32, remaining, rate_bps);
            }
            net.next_event().expect("flows pending").as_ps()
        };
        assert_eq!(due(&[(1000, byte_per_ps), (999, byte_per_ps)]), 999);
        assert_eq!(due(&[(999, byte_per_ps), (1000, byte_per_ps)]), 999);
        assert_eq!(due(&[(1000, byte_per_ps), (1997, 2 * byte_per_ps)]), 999);
        assert_eq!(due(&[(1000, byte_per_ps), (1999, 2 * byte_per_ps)]), 1000);
        assert_eq!(due(&[(1000, byte_per_ps), (0, 1), (5, byte_per_ps)]), 0);
        assert_eq!(due(&[(7, 0), (1000, byte_per_ps), (3, 0)]), 1000);
    }

    #[test]
    fn bytes_sent_is_the_wide_quotient_on_both_arms() {
        let wide = |rate: u64, dt: u64| (rate as u128 * dt as u128 / PS_PER_SEC_BITS) as u64;
        let rate = 380_000_000_000u64;
        // Last product that fits 64 bits, and its neighbours on the u128 arm.
        let edge = u64::MAX / rate;
        for dt in [0, 1, 262_144, edge - 1, edge, edge + 1, 2 * edge, 1 << 50] {
            for r in [0, 1, 7, rate / 3, rate, rate + 1] {
                assert_eq!(bytes_sent(r, dt), wide(r, dt), "rate {r} dt {dt}");
            }
        }
        assert!(rate.checked_mul(edge + 1).is_none(), "u128 arm exercised");
    }

    #[test]
    fn arrivals_are_admitted_in_start_order() {
        let (topo, links) = small();
        let mut net = FluidNet::new(links.len());
        net.add_flow(&topo, 1, HostId(2), HostId(9), 4096, Time::from_us(10));
        net.add_flow(&topo, 0, HostId(1), HostId(8), 4096, Time::from_us(2));
        net.finalize();
        net.resolve(Time::ZERO, &links);
        assert_eq!(net.active_count(), 0);
        assert_eq!(net.next_event(), Some(Time::from_us(2)));
        net.resolve(Time::from_us(2), &links);
        assert_eq!(net.active_count(), 1);
        net.resolve(Time::from_us(10), &links);
        assert_eq!(net.counters.admitted, 2);
    }

    proptest::proptest! {
        /// The class progression against an eager per-flow reference: every
        /// live flow loses `floor(rate · Δt / 8e12)` at every resolve and
        /// completes when that reaches zero, and the next event is the
        /// earliest `ceil(remaining · 8e12 / rate)` or the next arrival.
        /// Rates come from the solver, which both sides share. Wakes fall
        /// on, short of and past the predicted instant, between random
        /// link downs, ups and rate changes, so classes open, empty and
        /// trade members, and a resolve can complete flows of several
        /// classes at once.
        #[test]
        fn class_progression_equals_the_per_flow_reference(
            table in proptest::collection::vec(proptest::prelude::any::<(u16, u16, u32)>(), 1..120),
            ops in proptest::collection::vec(proptest::prelude::any::<(u8, u16, u8)>(), 0..40),
            wakes in proptest::collection::vec(proptest::prelude::any::<(u8, u32)>(), 1..32),
        ) {
            let (topo, mut links) = small();
            let mut net = FluidNet::new(links.len());
            for (id, &(src, dst, raw)) in table.iter().enumerate() {
                let src = src as u32 % 32;
                let dst = (src + 1 + dst as u32 % 31) % 32;
                // Mice and elephants (1 B .. 8 MiB) arriving over ~80 us.
                let bytes = (1 + (raw & 0xffff) as u64) << (raw >> 16 & 7);
                let start = Time::from_ns((raw >> 20) as u64 * 20);
                net.add_flow(&topo, id as u32, HostId(src), HostId(dst), bytes, start);
            }
            net.finalize();
            let flows = net.flows.clone();
            // The reference: remaining bytes of the live flows, by index.
            let mut live: Vec<(u32, u64)> = Vec::new();
            let mut arrived = 0;
            let (mut now, mut last) = (Time::ZERO, Time::ZERO);
            let mut ops = ops.into_iter().peekable();
            let mut next_op = Time::ZERO;
            for step in 0..20_000usize {
                // Reference step: progression, completions, admissions.
                let dt = (now - last).as_ps();
                last = now;
                let mut want_done = Vec::new();
                live.retain_mut(|(fi, remaining)| {
                    let rate_bps = net.flows[*fi as usize].rate_bps;
                    *remaining = remaining.saturating_sub(bytes_sent(rate_bps, dt));
                    if *remaining == 0 {
                        want_done.push((flows[*fi as usize].id, now));
                    }
                    *remaining > 0
                });
                while flows.get(arrived).is_some_and(|f| f.start <= now) {
                    live.push((arrived as u32, flows[arrived].bytes));
                    arrived += 1;
                }
                let (active, _) = net.resolve(now, &links);
                let done: Vec<(u32, Time)> =
                    net.drain_completions().map(|r| (r.flow.0, r.end)).collect();
                proptest::prelude::prop_assert_eq!(done, want_done, "completions at {:?}", now);
                proptest::prelude::prop_assert_eq!(active as usize, live.len(), "active at {:?}", now);
                proptest::prelude::prop_assert_eq!(net.active_flows(), live.clone(), "remaining at {:?}", now);
                let want_next = live
                    .iter()
                    .map(|&(fi, remaining)| (remaining, net.flows[fi as usize].rate_bps))
                    .filter(|&(_, rate_bps)| rate_bps > 0)
                    .map(|(remaining, rate_bps)| {
                        let need = remaining as u128 * PS_PER_SEC_BITS;
                        now + Time::from_ps(need.div_ceil(rate_bps as u128) as u64)
                    })
                    .chain(flows.get(arrived).map(|f| f.start))
                    .min();
                proptest::prelude::prop_assert_eq!(net.next_event(), want_next, "next event at {:?}", now);
                // Next instant: the earlier of the next op and the wake,
                // the wake taken exactly, short of it or past it.
                let op_due = ops
                    .peek()
                    .map(|&(_, _, gap)| next_op + Time::from_ns(gap as u64 * 20));
                let (shape, jitter) = wakes[step % wakes.len()];
                let wake = want_next.map(|w| match shape % 4 {
                    0 if w > now => now + Time::from_ps(1 + jitter as u64 % (w - now).as_ps()),
                    1 => w + Time::from_ps(jitter as u64 % 2_000_000),
                    _ => w,
                });
                now = match (wake, op_due) {
                    (None, None) => break,
                    (Some(w), Some(o)) => w.min(o),
                    (Some(t), None) | (None, Some(t)) => t,
                }
                .max(now);
                if op_due.is_some_and(|o| o <= now) {
                    let (kind, target, _) = ops.next().expect("peeked");
                    next_op = now;
                    let l = target as usize % links.len();
                    match kind % 3 {
                        0 => links[l].up = false,
                        1 => links[l].up = true,
                        _ => links[l].set_rate([100, 200, 400, 800][kind as usize / 3 % 4] * 1_000_000_000),
                    }
                    net.mark_dirty(LinkId(l as u32));
                }
            }
        }
    }
}
