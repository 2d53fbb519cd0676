//! Allocation accounting for the hybrid-fidelity residual-capacity path.
//!
//! The fluid background model touches the packet hot path in exactly one
//! place: [`Link::begin_service`] now serves at the *effective* rate
//! (line rate minus the background share) and adds a precomputed
//! queue-wait term. The contract: with no fluid model attached —
//! `fidelity=pkt`, every cell that existed before the axis — that path
//! must cost **zero** additional heap allocations in steady state, and
//! even with an active fluid background the per-packet work is integer
//! arithmetic against two cached fields, never an allocation. A counting
//! global allocator pins both, so a regression (a per-packet rate lookup
//! table, a boxed residual state) fails immediately.
//!
//! The last phase pins the solver's own promise under *churn*: with flows
//! arriving and completing at every wake, `FluidNet::resolve` —
//! admission, completion, the link → flow index, the dirty-component
//! walk, the water-filling heap — allocates nothing once its buffers
//! reached their high-water marks. The index is sized in `finalize`, so
//! a per-link `Vec` growing on first use would fail here.
//!
//! This file intentionally contains a single test: the counter is
//! process-global, and a sibling test running on another thread would
//! add its own allocations to the measurement.

use netsim::config::SimConfig;
use netsim::engine::{Command, Ctx, Endpoint, Engine, RoutingMode};
use netsim::fluid::FluidNet;
use netsim::ids::{ConnId, HostId, LinkId};
use netsim::packet::Packet;
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, Topology};

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

/// Sends a burst of cross-rack data packets on every `Custom` command;
/// receivers are plain sinks (same harness as `tests/alloc.rs`).
struct Spray {
    burst: u32,
    next_ev: u16,
}

impl Endpoint for Spray {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    fn on_command(&mut self, _cmd: Command, ctx: &mut Ctx<'_>) {
        for i in 0..self.burst {
            let id = ctx.fresh_packet_id();
            let dst = HostId(16 + (i % 16));
            self.next_ev = self.next_ev.wrapping_add(7);
            let pkt = Packet::data(
                id,
                ctx.host,
                dst,
                ConnId(0),
                self.next_ev,
                i as u64,
                ctx.cfg.mtu_bytes,
                false,
            );
            ctx.send(pkt);
        }
    }
}

fn spray(engine: &mut Engine, burst: u32, until: Time) {
    engine.set_endpoint(HostId(0), Box::new(Spray { burst, next_ev: 1 }));
    engine.command(HostId(0), Command::Custom(0));
    engine.run_until(until);
}

#[test]
fn fluid_residual_path_is_allocation_free_after_warmup() {
    // Phase 1: no fluid model — `fidelity=pkt`, the baseline every
    // pre-fidelity-axis cell runs with. Phase 2: long-lived fluid
    // background flows crossing the same uplinks the sprayed packets use,
    // so every measured `begin_service` takes the reduced-effective-rate
    // branch with a nonzero queue-wait term.
    for (name, with_fluid) in [("fidelity=pkt", false), ("fluid active", true)] {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 7);
        let mut engine = Engine::new(topo, SimConfig::paper_default(), 7);
        engine.routing = RoutingMode::EcmpHash;
        if with_fluid {
            // Background flows large enough to outlive the run: the
            // residual stays pinned on the links for every measured
            // packet, and no completion records are produced mid-measure.
            let mut fluid = FluidNet::new(engine.links.len());
            for (i, src) in (1u32..5).enumerate() {
                fluid.add_flow(
                    &engine.topo,
                    i as u32,
                    HostId(src),
                    HostId(20 + i as u32),
                    1 << 34,
                    Time::ZERO,
                );
            }
            fluid.finalize();
            engine.attach_fluid(fluid);
        }
        // Warm-up grows the arena, calendar, deques and scratch buffers
        // to their high-water marks and runs the first fluid resolve.
        // With fluid attached, one far-future completion wake stays
        // legitimately pending — the flows are sized to outlive the run.
        let residue = usize::from(with_fluid);
        spray(&mut engine, 2048, Time::from_ms(1));
        // A second warm-up pass with the measured burst shape: the
        // background-shifted event timing packs calendar buckets
        // differently than the big burst, so the exact measured workload
        // must run once for every container to hit its high-water mark.
        spray(&mut engine, 512, Time::from_ms(2));
        assert_eq!(
            engine.pending_events(),
            residue,
            "[{name}] warm-up must drain"
        );
        if with_fluid {
            assert!(
                (0..engine.links.len() as u32).any(|l| engine.link_side(LinkId(l)).bg_bps > 0),
                "[{name}] fluid background never reached the links"
            );
        }

        let before = tinybench::alloc::allocs();
        spray(&mut engine, 512, Time::from_ms(3));
        let during = tinybench::alloc::allocs() - before;

        assert_eq!(
            engine.pending_events(),
            residue,
            "[{name}] measured phase must drain"
        );
        // The only allocation permitted is the boxed endpoint the harness
        // itself installs in `spray` (1 Box + its fields rounding).
        assert!(
            during <= 1,
            "[{name}] residual path allocated {during} times for 512 packets"
        );
        assert!(
            engine.stats.counters.data_tx >= 3 * (2048 + 512 + 512),
            "[{name}] traffic did not cross the fabric: {:?}",
            engine.stats.counters
        );
    }
    solver_is_allocation_free_under_churn();
}

/// Two identical bursts of 2000 background flows (64–320 KiB, arriving
/// 500 ns apart, a handful active at any instant and sharing NICs and
/// uplinks), so every wake admits or completes a flow and components keep
/// merging and splitting. Walked wake to wake the way the engine does. The
/// first burst drains before the second starts and the solver is
/// time-shift invariant, so the second — the measured one — replays the
/// first exactly: every buffer has already seen its high-water mark.
fn solver_is_allocation_free_under_churn() {
    const BURST: u32 = 2000;
    let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 7);
    let engine = Engine::new(topo, SimConfig::paper_default(), 7);
    let mut fluid = FluidNet::new(engine.links.len());
    let second = Time::from_ms(2);
    for offset in [Time::ZERO, second] {
        // Same ids in both bursts: the id picks the path.
        for i in 0..BURST {
            let src = i % 32;
            let dst = (src + 1 + i * 7 % 31) % 32;
            let bytes = (1 + i as u64 % 5) * (64 << 10);
            let start = offset + Time::from_ns(500 * i as u64);
            fluid.add_flow(&engine.topo, i, HostId(src), HostId(dst), bytes, start);
        }
    }
    fluid.finalize();
    let walk = |fluid: &mut FluidNet, until: Time| {
        let mut resolves = 0u32;
        while let Some(at) = fluid.next_event().filter(|&at| at < until) {
            fluid.resolve(at, &engine.links);
            fluid.drain_completions().for_each(drop);
            resolves += 1;
        }
        resolves
    };
    let warmup = walk(&mut fluid, second);
    assert!(warmup > BURST, "warm-up saw no churn: {warmup} resolves");
    assert_eq!(
        fluid.counters.completed, BURST as u64,
        "first burst must drain"
    );
    let before = tinybench::alloc::allocs();
    let resolves = walk(&mut fluid, Time::MAX);
    let during = tinybench::alloc::allocs() - before;
    assert_eq!(resolves, warmup, "the second burst must replay the first");
    assert_eq!(fluid.counters.completed, 2 * BURST as u64);
    assert!(
        fluid.counters.max_component > 1,
        "flows never shared a link: {:?}",
        fluid.counters
    );
    assert_eq!(
        during, 0,
        "solver allocated {during} times over {resolves} resolves under churn"
    );
}
