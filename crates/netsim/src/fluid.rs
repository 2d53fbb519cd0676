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
//! 1. advances every active flow by `floor(rate · Δt / 8e12)` bytes,
//! 2. completes flows that ran out of bytes (exact: the wake the solver
//!    schedules at `ceil(remaining · 8e12 / rate)` guarantees the floor
//!    progression reaches zero at that instant),
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
//! 300: the solve step fell from ~70 µs to ~0.3 µs and the whole resolve
//! from 73–96 µs to 3–4 µs (`microbench`'s `hybrid/fluid_churn10k`, two
//! runs on a drifting 2-vCPU host). What is left is steps 1–2 and
//! [`FluidNet::next_event`], two scans of the active set; making those
//! lazy would change the per-step `floor` and with it the result bytes,
//! so they stay scans and shed their divisions instead: step 1 takes its
//! quotient in 64 bits whenever the product fits (`bytes_sent`) and
//! completes flows in the same pass, and `next_event` divides out only
//! the flows that beat the earliest completion so far — same values,
//! about a third off a churn cell.
//! When every flow arrives at once (a tornado
//! background) or load fuses the fabric into one component, the dirty
//! component is the whole population and a resolve costs what the
//! from-scratch solve did; the `--perf` record's `fluid_flows_resolved`
//! and `fluid_max_component` say which regime a cell ran in.
//!
//! Rates are never recomputed per packet, and the solver never touches the
//! allocator in steady state: the index is sized up front and every
//! scratch buffer retains its high-water capacity across resolves. All
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
    /// Bytes still to transfer.
    remaining: u64,
    /// Current max-min share in bits/s (0 while the path is down).
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

/// Counters of the fluid model. `resolves`, `admitted` and
/// `residual_updates` surface through `--diagnostics`; `flows_resolved`
/// and `max_component` only through the `--perf` record.
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
}

/// The background-flow population and its event-driven max-min solver.
#[derive(Debug)]
pub struct FluidNet {
    /// All background flows, sorted by `(start, id)` after [`FluidNet::finalize`].
    flows: Vec<FluidFlow>,
    /// Indices into `flows` of admitted, unfinished flows.
    active: Vec<u32>,
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
    /// Per-flow rates before the debug audit's from-scratch solve.
    #[cfg(debug_assertions)]
    audit_rates: Vec<u64>,
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
            active: Vec::new(),
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
            remaining: bytes,
            rate_bps: 0,
            path,
            path_len,
            frozen: false,
            stamp: 0,
        });
    }

    /// Sorts the admission table and sizes the link → flow index; must be
    /// called once after the last [`FluidNet::add_flow`] and before the
    /// first [`FluidNet::resolve`].
    pub fn finalize(&mut self) {
        self.flows.sort_by_key(|f| (f.start, f.id));
        self.next_arrival = 0;
        let nodes = self.flows.len() * MAX_PATH;
        assert!(nodes < NIL as usize, "fluid population too large");
        self.next = vec![NIL; nodes];
        self.prev = vec![NIL; nodes];
    }

    /// Number of flows in the admission table.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of currently active background flows.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The next instant the background state changes on its own: the
    /// earliest predicted completion or the next arrival. `None` once the
    /// population is drained.
    pub fn next_event(&self) -> Option<Time> {
        // Only the earliest completion matters, so a flow is divided out
        // only when it beats the earliest so far — and that test needs no
        // division: `ceil(need / rate) < best` ⇔ `need <= (best - 1) · rate`.
        let mut best: Option<u64> = None;
        for &fi in &self.active {
            let f = &self.flows[fi as usize];
            if f.rate_bps == 0 {
                continue; // path down; re-predicted on recovery
            }
            let need = f.remaining as u128 * PS_PER_SEC_BITS;
            let rate = f.rate_bps as u128;
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
        // 1–2. Closed-form progression since the last control event and,
        //      in the same pass, completions (in admission order —
        //      `active` keeps it: survivors are compacted in place).
        let dt = (now - self.last_advance).as_ps();
        self.last_advance = now;
        let mut active = std::mem::take(&mut self.active);
        let mut kept = 0;
        for i in 0..active.len() {
            let fi = active[i];
            let f = &mut self.flows[fi as usize];
            f.remaining = f.remaining.saturating_sub(bytes_sent(f.rate_bps, dt));
            if f.remaining > 0 {
                active[kept] = fi;
                kept += 1;
                continue;
            }
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
            self.unlink(fi);
        }
        active.truncate(kept);
        self.active = active;
        // 3. Admissions.
        while self
            .flows
            .get(self.next_arrival)
            .is_some_and(|f| f.start <= now)
        {
            let fi = self.next_arrival as u32;
            self.active.push(fi);
            self.link(fi);
            self.next_arrival += 1;
            self.counters.admitted += 1;
        }
        // 4. Max-min fair shares of the dirty components.
        let resolved = self.solve(links) as u64;
        self.counters.flows_resolved += resolved;
        self.counters.max_component = self.counters.max_component.max(resolved);
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
        self.audit(links);
        (self.active.len() as u32, self.changed.len() as u32)
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
    fn solve(&mut self, links: &[Link]) -> u32 {
        self.gen = self.gen.wrapping_add(1);
        let gen = self.gen;
        let FluidNet {
            flows,
            slots,
            next,
            dirty,
            touched,
            heap,
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
                    f.rate_bps = 0;
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
                let f = &mut flows[node as usize / MAX_PATH];
                node = next[node as usize];
                if f.frozen {
                    continue;
                }
                f.frozen = true;
                f.rate_bps = fair;
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
    /// a stale share.
    #[cfg(debug_assertions)]
    fn audit(&mut self, links: &[Link]) {
        let mut rates = std::mem::take(&mut self.audit_rates);
        rates.clear();
        rates.extend(
            self.active
                .iter()
                .map(|&fi| self.flows[fi as usize].rate_bps),
        );
        self.mark_all_dirty();
        self.solve(links);
        for (&fi, &rate) in self.active.iter().zip(&rates) {
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
                .active
                .iter()
                .map(|&fi| &net.flows[fi as usize])
                .filter(|f| f.rate_bps > 0)
                .map(|f| {
                    let need = f.remaining as u128 * PS_PER_SEC_BITS;
                    net.last_advance + Time::from_ps(need.div_ceil(f.rate_bps as u128) as u64)
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
            for (f, &(remaining, rate_bps)) in net.flows.iter_mut().zip(flows) {
                (f.remaining, f.rate_bps) = (remaining, rate_bps);
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
}
