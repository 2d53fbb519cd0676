//! Property-based tests for the simulator substrate: topology/routing
//! invariants, tracker correctness, hash uniformity — plus the
//! zero-allocation refactor's equivalence proofs: the borrowed routing
//! tables and the indexed uplink selection must make bit-identical
//! choices to the pre-refactor `Vec`-based implementations (preserved
//! below as test-local references), and the arena's 16-byte header must
//! carry a packet through marks and trims exactly as by-value mutation of
//! the packet would, and `SmallList` must hold what a `Vec` holds.

use proptest::prelude::*;

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use netsim::arena::{Header, PacketArena, PacketRef};
use netsim::config::SimConfig;
use netsim::engine::{RoutingMode, RoutingView};
use netsim::hash::ecmp_select;
use netsim::ids::{ConnId, HostId, LinkId, NodeRef};
use netsim::link::{DropReason, EnqueueOutcome, Link, LinkClass};
use netsim::packet::{Ack, Body, EchoList, EvEcho, Packet, SeqList, SmallList, HEADER_BYTES};
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, RouteChoice, Topology};

/// Walks a packet from `src` to `dst`, taking the hash choice on every
/// ECMP ascent; returns hop count on success.
fn walk(topo: &Topology, src: HostId, dst: HostId, ev: u16) -> Option<usize> {
    let mut at = topo.links[topo.host_up[src.index()].index()].to;
    for hops in 1..=16 {
        match at {
            NodeRef::Host(h) => return (h == dst).then_some(hops),
            NodeRef::Switch(sw) => {
                let link = match topo.route(sw, dst)? {
                    RouteChoice::Down(l) => l,
                    RouteChoice::Up(c) => {
                        let salt = topo.switches[sw.index()].salt;
                        c.at(ecmp_select(src, dst, ev, salt, c.len()))
                    }
                };
                at = topo.links[link.index()].to;
            }
        }
    }
    None
}

/// The routing decision as the pre-refactor `Topology::route` returned it
/// (an owned uplink list instead of a borrowed table).
#[derive(Debug, Clone, PartialEq)]
enum RefChoice {
    Down(LinkId),
    Up(Vec<LinkId>),
}

/// Verbatim port of the pre-refactor `Topology::route` (allocating). The
/// per-switch tables it indexed are materialized from the compact
/// descriptors — `topology_tables_match_link_scan` (in `netsim::topology`)
/// separately proves the descriptors match a raw scan of the links vec.
fn ref_route(topo: &Topology, sw: netsim::ids::SwitchId, dst: HostId) -> Option<RefChoice> {
    use netsim::topology::Tier;
    let meta = &topo.switches[sw.index()];
    let up_links: Vec<LinkId> = meta.up_links.iter().collect();
    let down_links: Vec<LinkId> = meta.down_links.iter().collect();
    let cfg = &topo.cfg;
    let dst_tor_global = dst.0 / cfg.hosts_per_tor;
    match meta.tier {
        Tier::T0 => {
            let my_tor_global = meta.pod * cfg.tors + meta.idx;
            if dst_tor_global == my_tor_global {
                let slot = (dst.0 % cfg.hosts_per_tor) as usize;
                Some(RefChoice::Down(down_links[slot]))
            } else {
                Some(RefChoice::Up(up_links))
            }
        }
        Tier::T1 => {
            let dst_pod = dst_tor_global / cfg.tors;
            if cfg.tiers == 2 || dst_pod == meta.pod {
                let slot = (dst_tor_global % cfg.tors) as usize;
                Some(RefChoice::Down(down_links[slot]))
            } else {
                Some(RefChoice::Up(up_links))
            }
        }
        Tier::T2 => {
            let dst_pod = (dst_tor_global / cfg.tors) as usize;
            Some(RefChoice::Down(down_links[dst_pod]))
        }
    }
}

/// Verbatim port of the pre-refactor `Engine::failover_usable`.
fn ref_failover_usable(
    topo: &Topology,
    links: &[Link],
    now: Time,
    link: LinkId,
    dst: HostId,
    delay: Time,
) -> bool {
    let l = &links[link.index()];
    if !l.up && now >= l.down_since() + delay {
        return false;
    }
    if let NodeRef::Switch(peer) = l.to() {
        if let Some(RefChoice::Down(down)) = ref_route(topo, peer, dst) {
            let d = &links[down.index()];
            if !d.up && now >= d.down_since() + delay {
                return false;
            }
        }
    }
    true
}

/// Verbatim port of the pre-refactor `Engine::select_uplink`
/// (`Vec`-based failover filter and adaptive tie-break).
#[allow(clippy::too_many_arguments)]
fn ref_select_uplink(
    topo: &Topology,
    links: &[Link],
    now: Time,
    failover: Option<Time>,
    mode: RoutingMode,
    salt: u64,
    pkt: &Packet,
    candidates: Vec<LinkId>,
    rng: &mut Rng64,
) -> LinkId {
    let usable: Vec<LinkId> = match failover {
        Some(delay) => {
            let filtered: Vec<LinkId> = candidates
                .iter()
                .copied()
                .filter(|&l| ref_failover_usable(topo, links, now, l, pkt.dst, delay))
                .collect();
            if filtered.is_empty() {
                candidates
            } else {
                filtered
            }
        }
        None => candidates,
    };
    match mode {
        RoutingMode::EcmpHash => {
            let i = ecmp_select(pkt.src, pkt.dst, pkt.ev, salt, usable.len());
            usable[i]
        }
        RoutingMode::Adaptive => {
            let min = usable
                .iter()
                .map(|l| links[l.index()].queued_bytes)
                .min()
                .expect("non-empty");
            let least: Vec<LinkId> = usable
                .iter()
                .copied()
                .filter(|l| links[l.index()].queued_bytes == min)
                .collect();
            *rng.choose(&least)
        }
    }
}

/// Builds the engine's link arena for a topology and applies a random
/// failure/congestion state drawn from `seed`.
fn random_link_state(topo: &Topology, seed: u64) -> (Vec<Link>, Time) {
    let cfg = SimConfig::paper_default();
    let mut rng = Rng64::new(seed);
    let mut arena = PacketArena::new();
    let mut links: Vec<Link> = topo
        .links
        .iter()
        .map(|spec| Link::new(spec.to, cfg.link_latency, &cfg))
        .collect();
    let now = Time::from_us(rng.gen_range(200));
    for link in &mut links {
        link.queued_bytes = rng.gen_range(1 << 18);
        // ~20% of links failed at some instant before `now`.
        if rng.gen_bool(0.2) {
            let at = Time::from_us(rng.gen_range(200)).min(now);
            link.set_down(at, &mut arena);
        }
    }
    (links, now)
}

proptest! {
    /// The borrowed `route` returns exactly what the pre-refactor
    /// allocating version returned, across random fabrics.
    #[test]
    fn borrowed_route_matches_reference(
        two_tier in any::<bool>(),
        radix_half in 2u32..7,
        oversub in 1u32..4,
        seed in any::<u64>(),
        pick in any::<(u32, u32)>(),
    ) {
        let cfg = if two_tier {
            FatTreeConfig::two_tier(radix_half * (oversub + 1), oversub)
        } else {
            FatTreeConfig::three_tier(radix_half * 2, 1)
        };
        let topo = Topology::build(cfg, seed);
        let sw = netsim::ids::SwitchId(pick.0 % topo.switches.len() as u32);
        let dst = HostId(pick.1 % topo.n_hosts);
        match (topo.route(sw, dst), ref_route(&topo, sw, dst)) {
            (Some(RouteChoice::Down(a)), Some(RefChoice::Down(b))) => prop_assert_eq!(a, b),
            (Some(RouteChoice::Up(a)), Some(RefChoice::Up(b))) => {
                prop_assert_eq!(a.iter().collect::<Vec<_>>(), b)
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "shape mismatch: {a:?} vs {b:?}"),
        }
    }

    /// The indexed, scratch-buffer uplink selection picks bit-identical
    /// links — and leaves the RNG in the same state — as the pre-refactor
    /// `Vec`-based selection, across random fabrics, destinations,
    /// failure sets, failover delays and both routing modes.
    #[test]
    fn indexed_select_uplink_matches_reference(
        radix_half in 2u32..7,
        seed in any::<u64>(),
        state_seed in any::<u64>(),
        pick in any::<(u32, u32, u16)>(),
        failover_us in prop_oneof![Just(None), (0u64..100).prop_map(Some)],
        adaptive in any::<bool>(),
    ) {
        let topo = Topology::build(FatTreeConfig::two_tier(radix_half * 2, 1), seed);
        let (links, now) = random_link_state(&topo, state_seed);
        let n = topo.n_hosts;
        let src = HostId(pick.0 % n);
        let dst = HostId(pick.1 % n);
        // Select at the source ToR; only meaningful for Up routes.
        let tor = topo.tor_of(src);
        prop_assume!(topo.tor_of(dst) != tor);
        let candidates = match topo.route(tor, dst).expect("route") {
            RouteChoice::Up(c) => c,
            RouteChoice::Down(_) => unreachable!("cross-rack must ascend"),
        };
        let salt = topo.switches[tor.index()].salt;
        let pkt = Packet::data(1, src, dst, ConnId(0), pick.2, 0, 4096, false);
        let failover = failover_us.map(Time::from_us);
        let mode = if adaptive { RoutingMode::Adaptive } else { RoutingMode::EcmpHash };

        let view = RoutingView { topo: &topo, links: &links, now, failover, mode };
        let mut rng_new = Rng64::new(seed ^ 0xABCD);
        let mut rng_ref = rng_new.clone();
        let mut scratch = Vec::new();
        let header = Header::of(&pkt);
        let got = view.select_uplink(candidates, &header, salt, &mut rng_new, &mut scratch);
        let want = ref_select_uplink(
            &topo, &links, now, failover, mode, salt, &pkt,
            candidates.iter().collect(), &mut rng_ref,
        );
        prop_assert_eq!(got, want, "selected link diverged");
        prop_assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "RNG stream diverged");
    }
}

/// A packet with any body variant (ACK lists inline or spilled), any
/// flags and any wire size.
fn arbitrary_packet(rng: &mut Rng64, id: u64) -> Packet {
    let body = match rng.gen_range(5) {
        0 | 1 => Body::Data {
            seq: rng.next_u64(),
            msg: rng.next_u64() as u32,
            msg_seq: rng.next_u64() as u32,
            msg_pkts: rng.next_u64() as u32,
            tag: rng.next_u64(),
            payload: rng.gen_range(9000) as u32,
            retx: rng.gen_bool(0.5),
            pending: rng.next_u64(),
        },
        2 => {
            // 0..=7 elements: both sides of SeqList's 3 and EchoList's 5.
            let n = rng.gen_range(8) as usize;
            let echo = |i: usize| EvEcho {
                ev: i as u16,
                ecn: i & 1 == 0,
            };
            Body::Ack(Ack {
                cum_ack: rng.next_u64(),
                sacked: (0..n as u64).collect::<SeqList>(),
                echoes: (0..n).map(echo).collect::<EchoList>(),
                covered: n as u32,
                marked: rng.gen_range(8) as u32,
                reuse: 1 + rng.gen_range(8) as u32,
            })
        }
        3 => Body::Nack {
            seq: rng.next_u64(),
        },
        _ => Body::Credit {
            bytes: rng.next_u64(),
        },
    };
    Packet {
        id,
        src: HostId(rng.next_u64() as u32),
        dst: HostId(rng.next_u64() as u32),
        conn: ConnId(rng.next_u64() as u32),
        ev: rng.next_u64() as u16,
        wire_bytes: 64 + rng.gen_range(9000) as u32,
        ecn_ce: rng.gen_bool(0.2),
        trimmed: rng.gen_bool(0.1),
        body,
    }
}

/// Every header access through a dead ref must panic.
fn assert_dead(arena: &mut PacketArena, r: PacketRef) {
    assert!(catch_unwind(AssertUnwindSafe(|| arena.header(r).ev)).is_err());
    assert!(catch_unwind(AssertUnwindSafe(|| arena.take(r))).is_err());
    assert!(catch_unwind(AssertUnwindSafe(|| arena.release(r))).is_err());
}

#[test]
fn arena_header_is_sixteen_bytes() {
    // Four headers to a cache line is the point of the header/body split;
    // a field creeping in would silently halve that.
    assert_eq!(std::mem::size_of::<Header>(), 16);
}

proptest! {
    /// The header is the packet: whatever sequence of admissions, RED
    /// marks, trims, drops and flushes a packet meets on its way through
    /// `Link::enqueue`, `take` returns byte for byte what by-value
    /// mutation (`p.ecn_ce = true`, `p.trim()`) of the same packet gives,
    /// the service path times it by its current wire size, slots recycle,
    /// and a ref is dead the moment its packet leaves the arena.
    #[test]
    fn arena_header_is_the_packet(seed in any::<u64>(), steps in 20usize..200) {
        let mut rng = Rng64::new(seed);
        let mut cfg = SimConfig::paper_default();
        cfg.queue_capacity_bytes = 24_000;
        let tail_drop = LinkClass::fabric(&cfg);
        cfg.trimming = true;
        let trimming = LinkClass::fabric(&cfg);
        // K_min 0 / K_max 1: RED marks every data packet that finds the
        // queue non-empty.
        let marking = LinkClass { kmin_bytes: 0, kmax_bytes: 1, ..trimming };
        let classes = [tail_drop, trimming, marking];
        let mut links = classes.map(|_| Link::new(NodeRef::Host(HostId(0)), cfg.link_latency, &cfg));

        let mut arena = PacketArena::new();
        // ref -> (by-value model, index of the link queue holding it).
        let mut model: BTreeMap<u32, (Packet, Option<usize>)> = BTreeMap::new();
        let mut peak_live = 0;
        let nth_where = |model: &BTreeMap<u32, (Packet, Option<usize>)>, rng: &mut Rng64, queued: bool| {
            let idle: Vec<u32> = model
                .iter()
                .filter(|(_, (_, at))| at.is_some() == queued)
                .map(|(&r, _)| r)
                .collect();
            (!idle.is_empty()).then(|| idle[rng.gen_index(idle.len())])
        };
        for step in 0..steps {
            match rng.gen_range(6) {
                // A host hands a packet to the fabric.
                0 | 1 => {
                    let pkt = arbitrary_packet(&mut rng, step as u64);
                    let r = arena.insert(pkt.clone());
                    prop_assert_eq!(*arena.header(r), Header::of(&pkt));
                    prop_assert!(model.insert(r.0, (pkt, None)).is_none(), "live slot handed out twice");
                }
                // A hop: offer an idle packet to some link.
                2 | 3 => {
                    let Some(r) = nth_where(&model, &mut rng, false) else { continue };
                    let li = rng.gen_index(links.len());
                    let (pkt, at) = model.get_mut(&r).expect("picked from the model");
                    let was_data = pkt.is_data();
                    match links[li].enqueue(PacketRef(r), &classes[li], &mut arena, &mut rng) {
                        EnqueueOutcome::Queued { marked } => {
                            prop_assert!(!marked || was_data, "only data packets are marked");
                            pkt.ecn_ce |= marked;
                            *at = Some(li);
                        }
                        EnqueueOutcome::Trimmed => {
                            prop_assert!(was_data, "only data packets are trimmed");
                            pkt.trim();
                            *at = Some(li);
                        }
                        EnqueueOutcome::Dropped(_) => {
                            model.remove(&r);
                            assert_dead(&mut arena, PacketRef(r));
                        }
                    }
                }
                // A link serializes its next packet.
                4 => {
                    let li = rng.gen_index(links.len());
                    let Some((r, ser)) = links[li].begin_service(&arena, None) else { continue };
                    let (pkt, at) = model.get_mut(&r.0).expect("served packet is modelled");
                    prop_assert_eq!(*at, Some(li));
                    prop_assert_eq!(ser, Time::serialization(pkt.wire_bytes as u64, cfg.link_bps));
                    prop_assert_eq!(arena.header(r).is_data(), pkt.is_data());
                    *at = None;
                }
                // Delivery, or a cable cut flushing a whole queue.
                _ => {
                    if rng.gen_bool(0.8) {
                        let Some(r) = nth_where(&model, &mut rng, false) else { continue };
                        let (want, _) = model.remove(&r).expect("picked from the model");
                        prop_assert_eq!(arena.take(PacketRef(r)), want);
                        assert_dead(&mut arena, PacketRef(r));
                    } else {
                        let li = rng.gen_index(links.len());
                        let flushed: Vec<u32> = model
                            .iter()
                            .filter(|(_, (_, at))| *at == Some(li))
                            .map(|(&r, _)| r)
                            .collect();
                        prop_assert_eq!(links[li].set_down(Time::ZERO, &mut arena), flushed.len());
                        links[li].set_up();
                        for r in flushed {
                            model.remove(&r);
                            assert_dead(&mut arena, PacketRef(r));
                        }
                    }
                }
            }
            prop_assert_eq!(arena.live(), model.len());
            peak_live = peak_live.max(model.len());
            prop_assert_eq!(arena.high_water(), peak_live, "slots must recycle before the arena grows");
        }
        // Whatever is left comes out intact, queued or not.
        for (r, (want, _)) in model {
            prop_assert_eq!(arena.take(PacketRef(r)), want);
        }
        prop_assert_eq!(arena.live(), 0);
    }
}

/// A link's queue as the bands were before they moved into the arena: one
/// `VecDeque` per band, plus the packet in service and the up state.
#[derive(Default)]
struct ModelLink {
    ctrl: VecDeque<u32>,
    data: VecDeque<u32>,
    in_service: Option<(u32, Time)>,
    down: bool,
}

proptest! {
    /// The link bands — FIFOs threaded through the arena's successor
    /// array — against a two-`VecDeque`-per-link reference. Several links
    /// share one arena, so their bands interleave in one array; packets
    /// enter at capacity (tail drop or trim), are served, complete, are
    /// flushed by a cable cut, and slots are recycled through
    /// `take`/`release` between stints in a queue, so a reused slot still
    /// carries a successor from its last band.
    #[test]
    fn link_bands_are_the_deque_model(seed in any::<u64>(), steps in 20usize..300) {
        let mut rng = Rng64::new(seed);
        let mut cfg = SimConfig::paper_default();
        cfg.queue_capacity_bytes = 20_000;
        let tail_drop = LinkClass::fabric(&cfg);
        cfg.trimming = true;
        let trimming = LinkClass::fabric(&cfg);
        let classes = [tail_drop, trimming, tail_drop, trimming];
        let mut links = classes.map(|_| Link::new(NodeRef::Host(HostId(0)), cfg.link_latency, &cfg));
        let mut model: [ModelLink; 4] = Default::default();
        let mut arena = PacketArena::new();
        // Parked, in no queue: the packets a hop may offer or a delivery take.
        let mut idle: Vec<(u32, Packet)> = Vec::new();
        // Wire bytes of every queued packet, as admitted (trimmed or not).
        let mut wire: BTreeMap<u32, u64> = BTreeMap::new();
        for step in 0..steps {
            let now = Time::from_ns(step as u64);
            let li = rng.gen_index(links.len());
            let (link, m) = (&mut links[li], &mut model[li]);
            match rng.gen_range(8) {
                0 | 1 => {
                    let pkt = arbitrary_packet(&mut rng, step as u64);
                    idle.push((arena.insert(pkt.clone()).0, pkt));
                }
                // Offer a parked packet to the link.
                2 | 3 => {
                    if idle.is_empty() {
                        continue;
                    }
                    let (r, pkt) = idle.swap_remove(rng.gen_index(idle.len()));
                    let queued: u64 = m.ctrl.iter().chain(&m.data).map(|r| wire[r]).sum();
                    let bytes = pkt.wire_bytes as u64;
                    let outcome = link.enqueue(PacketRef(r), &classes[li], &mut arena, &mut rng);
                    if m.down {
                        prop_assert_eq!(outcome, EnqueueOutcome::Dropped(DropReason::LinkDown));
                    } else if queued + bytes > classes[li].capacity_bytes {
                        if classes[li].trimming && pkt.is_data() {
                            prop_assert_eq!(outcome, EnqueueOutcome::Trimmed);
                            m.ctrl.push_back(r);
                            wire.insert(r, HEADER_BYTES as u64);
                        } else {
                            prop_assert_eq!(outcome, EnqueueOutcome::Dropped(DropReason::QueueFull));
                        }
                    } else {
                        prop_assert!(matches!(outcome, EnqueueOutcome::Queued { .. }), "{:?}", outcome);
                        let band = if pkt.is_data() { &mut m.data } else { &mut m.ctrl };
                        band.push_back(r);
                        wire.insert(r, bytes);
                    }
                    if matches!(outcome, EnqueueOutcome::Dropped(_)) {
                        assert_dead(&mut arena, PacketRef(r));
                    }
                }
                // An idle, up link starts serializing its next packet.
                4 => {
                    if m.down || m.in_service.is_some() {
                        continue;
                    }
                    let want = m.ctrl.pop_front().or_else(|| m.data.pop_front());
                    let got = link.begin_service(&arena, None);
                    prop_assert_eq!(got.map(|(r, _)| r.0), want);
                    if let Some((r, ser)) = got {
                        prop_assert_eq!(ser, Time::serialization(wire[&r.0], cfg.link_bps));
                        wire.remove(&r.0);
                        link.serve(r, now + ser);
                        m.in_service = Some((r.0, now + ser));
                    }
                }
                // Its serialization completes; the packet is delivered or lost.
                5 => {
                    let Some((r, due)) = m.in_service.take() else { continue };
                    prop_assert_eq!(link.completing(due), Some(PacketRef(r)));
                    link.busy = false;
                    if rng.gen_bool(0.5) {
                        arena.take(PacketRef(r));
                    } else {
                        arena.release(PacketRef(r));
                    }
                }
                // A parked packet leaves the arena, freeing its slot.
                6 => {
                    if idle.is_empty() {
                        continue;
                    }
                    let (r, pkt) = idle.swap_remove(rng.gen_index(idle.len()));
                    if rng.gen_bool(0.5) {
                        prop_assert_eq!(arena.take(PacketRef(r)), pkt);
                    } else {
                        arena.release(PacketRef(r));
                    }
                }
                // A cable cut flushes the bands and the frame on the wire,
                // or the cable comes back.
                _ if m.down => {
                    link.set_up();
                    m.down = false;
                }
                _ => {
                    let flushed: Vec<u32> = (m.ctrl.drain(..).chain(m.data.drain(..)))
                        .chain(m.in_service.take().map(|(r, _)| r))
                        .collect();
                    prop_assert_eq!(link.set_down(now, &mut arena), flushed.len());
                    prop_assert_eq!(link.down_since(), now);
                    for r in flushed {
                        wire.remove(&r);
                        assert_dead(&mut arena, PacketRef(r));
                    }
                    m.down = true;
                }
            }
            for (link, m) in links.iter().zip(&model) {
                let queued: u64 = m.ctrl.iter().chain(&m.data).map(|r| wire[r]).sum();
                prop_assert_eq!(link.queued_bytes, queued);
                prop_assert_eq!(link.up, !m.down);
                prop_assert_eq!(link.busy, m.in_service.is_some());
            }
            let in_service = model.iter().filter(|m| m.in_service.is_some()).count();
            prop_assert_eq!(arena.live(), idle.len() + wire.len() + in_service);
        }
        // Every band serves exactly its model's order, control first.
        for (link, m) in links.iter_mut().zip(&mut model) {
            if let Some((r, _)) = m.in_service.take() {
                link.busy = false;
                arena.release(PacketRef(r));
            }
            for want in m.ctrl.drain(..).chain(m.data.drain(..)) {
                let got = link.begin_service(&arena, None).map(|(r, _)| r.0);
                prop_assert_eq!(got, Some(want));
                arena.release(PacketRef(want));
            }
            prop_assert!(link.begin_service(&arena, None).is_none(), "a band outlived its model");
        }
    }
}

/// Drives a `SmallList<u64, N>` and a `Vec<u64>` through the same `steps`
/// random calls — pushes, resizes, reservations, truncations, clears,
/// front drops and writes — with lengths wandering across `N` both ways,
/// checking after each that they hold the same elements. An inline list
/// spills to a block of exactly the length it needs (or reserves); a
/// spilled one stays spilled, as a `Vec` keeps its block when it shrinks.
fn small_list_tracks_vec<const N: usize>(seed: u64, steps: usize) {
    let mut rng = Rng64::new(seed);
    let mut list: SmallList<u64, N> = SmallList::new();
    let mut model: Vec<u64> = Vec::new();
    for step in 0..steps as u64 {
        let was_inline = matches!(list, SmallList::Inline { .. });
        let len = model.len();
        let mut reserved = 0;
        match rng.gen_range(8) {
            0 | 1 => {
                list.push(step);
                model.push(step);
            }
            2 => {
                // Up to twice the inline capacity, so both directions occur.
                let new_len = rng.gen_index(2 * N + 2);
                list.resize(new_len, step);
                model.resize(new_len, step);
            }
            3 => {
                let n = rng.gen_index(len + 2);
                list.drop_front(n);
                model.drain(..n.min(len));
            }
            4 if len > 0 => {
                let i = rng.gen_index(len);
                list[i] = !step;
                model[i] = !step;
            }
            5 => {
                let new_len = rng.gen_index(2 * N + 2);
                list.truncate(new_len);
                model.truncate(new_len);
            }
            6 => {
                reserved = rng.gen_index(2 * N + 2);
                list.reserve(reserved);
                assert!(list.capacity() >= len + reserved, "step {step}");
            }
            _ => {
                if rng.gen_bool(0.3) {
                    list.clear();
                    model.clear();
                }
            }
        }
        assert_eq!(list.as_slice(), &model[..], "step {step}");
        assert_eq!(list, SmallList::from_slice(&model));
        assert!(list.capacity() >= list.len());
        match (&list, was_inline) {
            (SmallList::Inline { .. }, true) => assert!(model.len() <= N),
            (SmallList::Spill(v), true) => {
                assert_eq!(v.capacity(), model.len() + reserved, "spills exactly")
            }
            (SmallList::Inline { .. }, false) => panic!("a spilled list went back inline"),
            (SmallList::Spill(_), false) => {}
        }
    }
}

proptest! {
    /// `SmallList` behaves as a `Vec` at the inline capacities the
    /// simulator uses (a connection's first message or bitmap word, an
    /// ACK's three SACKs and five echoes), inline, spilled and across.
    #[test]
    fn small_list_matches_vec(seed in any::<u64>(), steps in 1usize..300) {
        small_list_tracks_vec::<1>(seed, steps);
        small_list_tracks_vec::<3>(seed, steps);
        small_list_tracks_vec::<5>(seed, steps);
    }
}

proptest! {
    /// Any host pair is connected under any entropy in any 2-tier fabric.
    #[test]
    fn two_tier_universal_reachability(
        radix_half in 2u32..9,
        oversub in 1u32..4,
        seed in any::<u64>(),
        ev in any::<u16>(),
        pair in any::<(u32, u32)>(),
    ) {
        let k = radix_half * (oversub + 1);
        let cfg = FatTreeConfig::two_tier(k, oversub);
        let topo = Topology::build(cfg, seed);
        let n = topo.n_hosts;
        let src = HostId(pair.0 % n);
        let dst = HostId(pair.1 % n);
        prop_assume!(src != dst);
        let hops = walk(&topo, src, dst, ev);
        prop_assert!(hops.is_some(), "{src} -> {dst} unreachable");
        prop_assert!(hops.unwrap() <= 4);
    }

    /// Any host pair is connected under any entropy in any 3-tier fabric.
    #[test]
    fn three_tier_universal_reachability(
        k_half in 1u32..5,
        seed in any::<u64>(),
        ev in any::<u16>(),
        pair in any::<(u32, u32)>(),
    ) {
        let cfg = FatTreeConfig::three_tier(k_half * 2, 1);
        let topo = Topology::build(cfg, seed);
        let n = topo.n_hosts;
        let src = HostId(pair.0 % n);
        let dst = HostId(pair.1 % n);
        prop_assume!(src != dst);
        let hops = walk(&topo, src, dst, ev);
        prop_assert!(hops.is_some(), "{src} -> {dst} unreachable");
        prop_assert!(hops.unwrap() <= 6);
    }

    /// Every cable pair is mutually inverse.
    #[test]
    fn cable_pairs_are_inverse(radix_half in 2u32..8, seed in any::<u64>()) {
        let topo = Topology::build(FatTreeConfig::two_tier(radix_half * 2, 1), seed);
        for (up, down) in topo.cable_pairs() {
            let u = &topo.links[up.index()];
            let d = &topo.links[down.index()];
            prop_assert_eq!(u.from, d.to);
            prop_assert_eq!(u.to, d.from);
        }
    }

    /// ECMP selection is always in range and deterministic.
    #[test]
    fn ecmp_select_in_range_and_stable(
        src in any::<u32>(),
        dst in any::<u32>(),
        ev in any::<u16>(),
        salt in any::<u64>(),
        n in 1usize..64,
    ) {
        let a = ecmp_select(HostId(src), HostId(dst), ev, salt, n);
        let b = ecmp_select(HostId(src), HostId(dst), ev, salt, n);
        prop_assert!(a < n);
        prop_assert_eq!(a, b);
    }

    /// RED marking probability is monotone in occupancy and clamped.
    #[test]
    fn red_probability_monotone(
        kmin in 1u64..1_000_000,
        span in 1u64..1_000_000,
        occ_a in any::<u64>(),
        occ_b in any::<u64>(),
    ) {
        let kmax = kmin + span;
        let a = occ_a % (2 * kmax);
        let b = occ_b % (2 * kmax);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p_lo = netsim::link::red_mark_probability(lo, kmin, kmax);
        let p_hi = netsim::link::red_mark_probability(hi, kmin, kmax);
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_lo <= p_hi);
    }
}
