//! Equivalence proof for the fluid solver's component-local re-solve.
//!
//! `FluidNet::resolve` re-runs max-min water-filling only over the flows
//! that (transitively) share a link with what changed: the paths of the
//! flows completed or admitted, and the links reported through
//! `mark_dirty`. The claim is that this is *exact* — every rate, every
//! per-link background, every wake equals what a from-scratch solve of
//! the whole population computes. The property drives an incremental
//! `FluidNet` and a twin that marks everything dirty before each resolve
//! through random admission tables interleaved with random link and
//! switch failures, recoveries and rate changes, and compares them at
//! every step. The unit cases pin how far a re-solve reaches: across a
//! component a departure splits or an arrival merges, nowhere for a flap
//! on an idle link, and over every link of a failed switch.

use proptest::prelude::*;

use netsim::config::SimConfig;
use netsim::engine::Engine;
use netsim::event::ControlEvent;
use netsim::fluid::FluidNet;
use netsim::ids::{HostId, LinkId, NodeRef, SwitchId};
use netsim::link::Link;
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, Topology};

fn fabric(cfg: FatTreeConfig) -> (Topology, Vec<Link>) {
    let engine = Engine::new(Topology::build(cfg, 7), SimConfig::paper_default(), 7);
    (engine.topo, engine.links)
}

/// Applies one random capacity change to `links`, reporting every link it
/// touched to `net` the way the engine's control arms do.
fn apply_op(topo: &Topology, links: &mut [Link], net: &mut FluidNet, kind: u8, target: u16) {
    let l = target as usize % links.len();
    let sw = SwitchId(target as u32 % topo.switches.len() as u32);
    match kind % 8 {
        0 | 1 => links[l].up = false,
        2 | 3 => links[l].up = true,
        4 | 5 => links[l].set_rate([100, 200, 400, 800][kind as usize / 8 % 4] * 1_000_000_000),
        k => {
            for sl in topo.switch_links(sw) {
                links[sl.index()].up = k == 7;
                net.mark_dirty(sl);
            }
            return;
        }
    }
    net.mark_dirty(LinkId(l as u32));
}

proptest! {
    /// Wake to wake, under failures: the incremental solver and the
    /// everything-dirty twin agree on all they expose.
    #[test]
    fn incremental_resolve_equals_the_from_scratch_solve(
        three_tier in any::<bool>(),
        flows in proptest::collection::vec(any::<(u16, u16, u32)>(), 1..160),
        ops in proptest::collection::vec(any::<(u8, u16, u8)>(), 0..48),
    ) {
        let (topo, mut links) = fabric(if three_tier {
            FatTreeConfig::three_tier(4, 1)
        } else {
            FatTreeConfig::two_tier(8, 1)
        });
        let mut inc = FluidNet::new(links.len());
        let mut twin = FluidNet::new(links.len());
        for (id, &(src, dst, raw)) in flows.iter().enumerate() {
            let src = src as u32 % topo.n_hosts;
            let dst = (src + 1 + dst as u32 % (topo.n_hosts - 1)) % topo.n_hosts;
            // Mice and elephants (1 B .. 8 MiB) arriving over ~80 us.
            let bytes = (1 + (raw & 0xffff) as u64) << (raw >> 16 & 7);
            let start = Time::from_ns((raw >> 20) as u64 * 20);
            for net in [&mut inc, &mut twin] {
                net.add_flow(&topo, id as u32, HostId(src), HostId(dst), bytes, start);
            }
        }
        inc.finalize();
        twin.finalize();

        // Ops fire up to 5 us apart, so they land between, on and after
        // the population's own wakes.
        let mut ops = ops.into_iter().peekable();
        let mut next_op = Time::ZERO;
        let mut now = Time::ZERO;
        loop {
            let wake = inc.next_event();
            prop_assert_eq!(wake, twin.next_event(), "wake diverged at {now:?}");
            let op_due = ops.peek().map(|&(_, _, gap)| next_op + Time::from_ns(gap as u64 * 20));
            let at = match (wake, op_due) {
                (None, None) => break,
                (Some(w), Some(o)) => w.min(o),
                (Some(t), None) | (None, Some(t)) => t,
            };
            now = now.max(at);
            if op_due.is_some_and(|o| o <= now) {
                let (kind, target, _) = ops.next().expect("peeked");
                next_op = now;
                apply_op(&topo, &mut links, &mut inc, kind, target);
            }
            twin.mark_all_dirty();
            let got = inc.resolve(now, &links);
            let want = twin.resolve(now, &links);
            prop_assert_eq!(got, want, "(active, updated) diverged at {now:?}");
            let sorted = |net: &FluidNet| {
                let mut c = net.changed().to_vec();
                c.sort_unstable();
                c
            };
            prop_assert_eq!(sorted(&inc), sorted(&twin), "changed set diverged at {now:?}");
            for li in 0..links.len() as u32 {
                prop_assert_eq!(
                    inc.link_bg(LinkId(li)),
                    twin.link_bg(LinkId(li)),
                    "link {li} background diverged at {now:?}"
                );
            }
            let done = |net: &mut FluidNet| -> Vec<(u32, u64, Time, Time)> {
                net.drain_completions()
                    .map(|r| (r.flow.0, r.bytes, r.start, r.end))
                    .collect()
            };
            prop_assert_eq!(done(&mut inc), done(&mut twin), "completions diverged at {now:?}");
        }
        prop_assert_eq!(inc.counters.admitted, twin.counters.admitted);
        prop_assert_eq!(inc.counters.completed, twin.counters.completed);
        prop_assert_eq!(inc.counters.residual_updates, twin.counters.residual_updates);
        prop_assert!(inc.counters.flows_resolved <= twin.counters.flows_resolved);
    }
}

/// Flows re-solved by `resolve(now)` after reporting `dirty`.
fn resolved(net: &mut FluidNet, links: &[Link], now: Time, dirty: &[LinkId]) -> u64 {
    let before = net.counters.flows_resolved;
    for &l in dirty {
        net.mark_dirty(l);
    }
    net.resolve(now, links);
    net.counters.flows_resolved - before
}

/// Three flows on `two_tier(8, 1)` (4 hosts per ToR) that can only be
/// chained through the middle one: `a` (h0 → h9) and `b` (h0 → h17) share
/// h0's NIC uplink, `b` and `c` (h20 → h17) share h17's NIC downlink, and
/// `a` and `c` have no ToR in common.
fn chain(b_bytes: u64, b_start: Time) -> (Topology, Vec<Link>, FluidNet) {
    let (topo, links) = fabric(FatTreeConfig::two_tier(8, 1));
    let mut net = FluidNet::new(links.len());
    net.add_flow(&topo, 0, HostId(0), HostId(9), 1 << 30, Time::ZERO);
    net.add_flow(&topo, 1, HostId(0), HostId(17), b_bytes, b_start);
    net.add_flow(&topo, 2, HostId(20), HostId(17), 1 << 30, Time::ZERO);
    net.finalize();
    (topo, links, net)
}

#[test]
fn a_departure_splits_its_component() {
    let (topo, links, mut net) = chain(4096, Time::ZERO);
    let a_nic = topo.host_up[0];
    assert_eq!(resolved(&mut net, &links, Time::ZERO, &[]), 3);
    // One component: touching `a`'s NIC reaches `c` through `b`.
    assert_eq!(resolved(&mut net, &links, Time::from_ns(1), &[a_nic]), 3);
    // `b` completes: both neighbours are re-solved, each now alone.
    let done = net.next_event().expect("b's completion");
    assert_eq!(resolved(&mut net, &links, done, &[]), 2);
    assert_eq!(net.drain_completions().count(), 1);
    assert_eq!(resolved(&mut net, &links, done, &[a_nic]), 1);
    assert_eq!(net.counters.max_component, 3);
}

#[test]
fn an_arrival_merges_two_components() {
    let (topo, links, mut net) = chain(1 << 30, Time::from_us(1));
    let a_nic = topo.host_up[0];
    assert_eq!(resolved(&mut net, &links, Time::ZERO, &[]), 2);
    assert_eq!(resolved(&mut net, &links, Time::from_ns(1), &[a_nic]), 1);
    // `b` arrives and bridges `a` and `c`.
    assert_eq!(resolved(&mut net, &links, Time::from_us(1), &[]), 3);
    assert_eq!(resolved(&mut net, &links, Time::from_us(2), &[a_nic]), 3);
}

#[test]
fn a_flap_on_an_idle_link_resolves_nothing() {
    let (topo, mut links, mut net) = chain(1 << 30, Time::ZERO);
    net.resolve(Time::ZERO, &links);
    let idle = topo.host_up[30];
    for (ns, up) in [(10, false), (20, true)] {
        links[idle.index()].up = up;
        assert_eq!(resolved(&mut net, &links, Time::from_ns(ns), &[idle]), 0);
        assert!(
            net.changed().is_empty(),
            "an idle link's flap changed a rate"
        );
    }
}

#[test]
fn switch_down_dirties_every_link_of_the_switch() {
    let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 7);
    let mut engine = Engine::new(topo, SimConfig::paper_default(), 7);
    let mut fluid = FluidNet::new(engine.links.len());
    // Every host of ToR 0 sends out of the rack, every host of ToR 1 sends
    // into it, and one flow (h20 → h24) stays clear of it.
    for h in 0..4u32 {
        fluid.add_flow(
            &engine.topo,
            h,
            HostId(h),
            HostId(8 + h),
            1 << 30,
            Time::ZERO,
        );
        fluid.add_flow(
            &engine.topo,
            4 + h,
            HostId(4 + h),
            HostId(h),
            1 << 30,
            Time::ZERO,
        );
    }
    fluid.add_flow(&engine.topo, 8, HostId(20), HostId(24), 1 << 30, Time::ZERO);
    fluid.finalize();
    engine.attach_fluid(fluid);
    let tor = match engine.topo.links[engine.topo.host_up[0].index()].to {
        NodeRef::Switch(sw) => sw,
        NodeRef::Host(_) => unreachable!("a host uplink ends at its ToR"),
    };
    let tor_links = engine.topo.switch_links(tor);
    let bystander = engine.topo.host_up[20];
    engine.schedule_control(Time::from_us(1), ControlEvent::SwitchDown(tor));
    engine.schedule_control(Time::from_us(3), ControlEvent::SwitchUp(tor));

    engine.run_until(Time::from_ns(500));
    let fluid = engine.fluid.as_ref().expect("attached");
    let share = fluid.link_bg(bystander);
    assert!(tor_links.iter().any(|&l| fluid.link_bg(l) > 0));

    engine.run_until(Time::from_us(2));
    let fluid = engine.fluid.as_ref().expect("attached");
    for &l in &tor_links {
        assert_eq!(
            fluid.link_bg(l),
            0,
            "{l:?} kept background on a dead switch"
        );
    }
    assert_eq!(fluid.link_bg(bystander), share);
    // All eight flows through the ToR were re-solved (to zero), once.
    assert_eq!(fluid.counters.flows_resolved, 9 + 8);

    engine.run_until(Time::from_us(4));
    let fluid = engine.fluid.as_ref().expect("attached");
    for h in 0..4 {
        assert!(
            fluid.link_bg(engine.topo.host_up[h]) > 0,
            "h{h} stayed stalled"
        );
    }
    assert_eq!(fluid.counters.flows_resolved, 9 + 8 + 8);
}
