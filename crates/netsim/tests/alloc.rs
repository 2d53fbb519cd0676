//! Allocation pins for netsim's hot paths.
//!
//! Every buffer the simulator owns — arena slots (and with them the link
//! bands), calendar lanes and heap, scratch buffers, the fluid solver's
//! tables — grows
//! to a high-water mark during warm-up and is then reused, so steady
//! traffic allocates **zero** times. A counting global allocator makes
//! any regression — a cloned route table, a filter `Vec`, a boxed drop
//! reason, a per-packet rate lookup, an event buffered before a trace
//! sink's `enabled()` check — fail here immediately. The pins:
//!
//! * the switch path (`route → select_uplink → push_link`) with the
//!   arena and calendar, under ECMP, adaptive routing and ECMP failover;
//! * the fault checks: no fault (`fault=none`), an active gray fault and
//!   a flapping cable, whose toggle pairs reuse the slots the fired pair
//!   left;
//! * the hybrid-fidelity residual-capacity path with and without a fluid
//!   background, and the fluid solver itself under flow churn;
//! * the flight recorder's probes with the default `NoTrace` sink, after
//!   a `Recorder` run proves they sit on the measured path;
//! * the event queue alone (no engine, no links) under a hold model,
//!   lock-step burst→drain cycles and link-shaped lane traffic;
//! * an arena built after another was dropped on the same thread: it
//!   grows on the dropped one's blocks, so a worker's second cell
//!   allocates no arena block.
//!
//! Each pin counts through `tinybench::alloc::measure`, which sees only
//! the measuring thread's allocations, so the tests of this binary may
//! run side by side without adding to each other's counts.

use netsim::arena::{PacketArena, PacketRef};
use netsim::config::SimConfig;
use netsim::engine::{Command, Ctx, Endpoint, Engine, RoutingMode};
use netsim::event::{ControlEvent, Event, EventQueue};
use netsim::failures::{self, Failure};
use netsim::fluid::FluidNet;
use netsim::ids::{ConnId, HostId, LinkId, NodeRef, SwitchId};
use netsim::link::LossCause;
use netsim::packet::Packet;
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, Topology};
use netsim::trace::{NoTrace, Recorder, TraceEvent, TraceSink};

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

/// Sends a burst of cross-rack data packets on every `Custom` command.
/// Receivers are plain sinks, so all traffic exercises exactly the fabric
/// path under test and nothing else. Generic over the trace sink, so the
/// same endpoint drives recorded and untraced engines.
struct Spray {
    burst: u32,
    next_ev: u16,
}

impl<S: TraceSink> Endpoint<S> for Spray {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_, S>) {}
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, S>) {}
    fn on_command(&mut self, _cmd: Command, ctx: &mut Ctx<'_, S>) {
        for i in 0..self.burst {
            let id = ctx.fresh_packet_id();
            // Rotate destinations across the remote racks so downlinks do
            // not overflow, and rotate EVs so every uplink gets exercised.
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

/// 32 hosts: 8 ToRs x 4 hosts, 4 T1s. Host 0 sprays to hosts 16..32, so
/// every packet crosses an uplink.
fn fabric<S: TraceSink>(cfg: SimConfig, routing: RoutingMode, trace: S) -> Engine<S> {
    let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 7);
    let mut engine = Engine::with_trace(topo, cfg, 7, trace);
    engine.routing = routing;
    engine
}

/// Installs a fresh `Spray` with the desired burst (simpler than a
/// downcast) and runs the engine until `until`.
fn spray<S: TraceSink>(engine: &mut Engine<S>, burst: u32, until: Time) {
    engine.set_endpoint(HostId(0), Box::new(Spray { burst, next_ev: 1 }));
    engine.command(HostId(0), Command::Custom(0));
    engine.run_until(until);
}

#[test]
fn switch_path_is_allocation_free_after_warmup() {
    let configs: [(&str, SimConfig, RoutingMode); 3] = [
        ("ecmp", SimConfig::paper_default(), RoutingMode::EcmpHash),
        (
            "adaptive",
            SimConfig::paper_default(),
            RoutingMode::Adaptive,
        ),
        (
            "ecmp+failover",
            {
                let mut c = SimConfig::paper_default();
                c.ecmp_failover = Some(Time::from_us(5));
                c
            },
            RoutingMode::EcmpHash,
        ),
    ];
    for (name, cfg, routing) in configs {
        let mut engine = fabric(cfg, routing, NoTrace);
        // Warm-up: a burst strictly larger than the measured phase grows
        // the arena, calendar and scratch buffers to their
        // high-water marks.
        spray(&mut engine, 2048, Time::from_ms(1));
        assert_eq!(engine.pending_events(), 0, "warm-up must drain");

        let ((), during) = tinybench::alloc::measure(|| spray(&mut engine, 512, Time::from_ms(2)));

        assert_eq!(engine.pending_events(), 0, "measured phase must drain");
        // The only allocation permitted is the boxed endpoint the harness
        // itself installs in `spray` (1 Box + its fields rounding).
        assert!(
            during <= 1,
            "[{name}] switch path allocated {during} times for 512 packets"
        );
        // Every packet crosses at least 3 hops (the last hop may tail-drop
        // under the deliberately bursty load).
        assert!(
            engine.stats.counters.data_tx >= 3 * (2048 + 512),
            "[{name}] traffic did not cross the fabric: {:?}",
            engine.stats.counters
        );
    }
}

#[test]
fn fault_checks_are_allocation_free_after_warmup() {
    // Phase 1: healthy fabric — the `fault=none` baseline every
    // pre-fault-axis cell runs with. Phase 2: a gray fault active on
    // every uplink of ToR 0, so the measured packets actually take the
    // gray branch (RNG draw + occasional counted drop). Phase 3: one of
    // ToR 0's cables flaps every 20 us until the end of the measured
    // phase, so it toggles throughout.
    let phases = [
        ("fault=none", 0.0, false),
        ("gray active", 0.02, false),
        ("flapping cable", 0.0, true),
    ];
    for (name, gray_p, flap) in phases {
        let mut engine = fabric(SimConfig::paper_default(), RoutingMode::EcmpHash, NoTrace);
        if gray_p > 0.0 {
            // ToR 0's uplinks are the first links out of the source rack;
            // flag a handful so sprayed traffic crosses at least one.
            for l in 0..8 {
                let gray = ControlEvent::LinkLoss(LinkId(l), LossCause::Gray, gray_p);
                engine.schedule_control(Time::ZERO, gray);
            }
        }
        if flap {
            let pair = engine.topo.cable_pairs()[0];
            let flap = Failure::Flap {
                pair,
                at: Time::ZERO,
                period: Time::from_us(20),
                up_time: Time::from_us(10),
                until: Time::from_ms(2),
            };
            failures::install(&[flap], &mut engine);
        }
        // Warm-up grows the arena, calendar, deques and scratch buffers
        // to their high-water marks; a flap keeps its next toggle pair.
        spray(&mut engine, 2048, Time::from_ms(1));
        let flap_pending = if flap { 2 } else { 0 };
        assert_eq!(
            engine.pending_events(),
            flap_pending,
            "[{name}] warm-up must drain"
        );

        let controls = engine.batch_stats.kinds.controls;
        let ((), during) = tinybench::alloc::measure(|| spray(&mut engine, 512, Time::from_ms(2)));
        let toggles = engine.batch_stats.kinds.controls - controls;

        assert_eq!(
            engine.pending_events(),
            0,
            "[{name}] measured phase must drain"
        );
        // The only allocation permitted is the boxed endpoint the harness
        // itself installs in `spray` (1 Box + its fields rounding).
        assert!(
            during <= 1,
            "[{name}] fault checks allocated {during} times for 512 packets"
        );
        // (1 ms, 2 ms) holds 49 downs and 50 ups, two toggles each.
        let want = if flap { 198 } else { 0 };
        assert_eq!(toggles, want, "[{name}] toggles in the measured phase");
        assert!(
            engine.stats.counters.data_tx >= 3 * (2048 + 512),
            "[{name}] traffic did not cross the fabric: {:?}",
            engine.stats.counters
        );
        if gray_p > 0.0 {
            assert!(
                engine.stats.counters.drops_gray > 0,
                "gray branch never taken: {:?}",
                engine.stats.counters
            );
        }
    }
}

#[test]
fn fluid_residual_path_is_allocation_free_after_warmup() {
    // Phase 1: no fluid model — `fidelity=pkt`, the baseline every
    // pre-fidelity-axis cell runs with. Phase 2: long-lived fluid
    // background flows crossing the same uplinks the sprayed packets use,
    // so every measured `begin_service` takes the reduced-effective-rate
    // branch with a nonzero queue-wait term.
    for (name, with_fluid) in [("fidelity=pkt", false), ("fluid active", true)] {
        let mut engine = fabric(SimConfig::paper_default(), RoutingMode::EcmpHash, NoTrace);
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

        let ((), during) = tinybench::alloc::measure(|| spray(&mut engine, 512, Time::from_ms(3)));

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
    let engine = fabric(SimConfig::paper_default(), RoutingMode::EcmpHash, NoTrace);
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
    let (resolves, during) = tinybench::alloc::measure(|| walk(&mut fluid, Time::MAX));
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

#[test]
fn trace_probes_cost_nothing_when_tracing_is_off() {
    // First, the probe must actually be on this path: the identical
    // traffic through a recording engine captures one PathChoice per
    // uplink traversal.
    let mut recorded = fabric(
        SimConfig::paper_default(),
        RoutingMode::Adaptive,
        Recorder::new(),
    );
    spray(&mut recorded, 512, Time::from_ms(1));
    assert_eq!(recorded.pending_events(), 0, "recorded phase must drain");
    let path_choices = recorded
        .trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PathChoice { .. }))
        .count();
    assert!(
        path_choices >= 512,
        "probe not on the measured path: {path_choices} path choices"
    );

    // Now the untraced engine: after warm-up has grown every buffer,
    // the same traffic must allocate exactly zero times beyond the one
    // boxed endpoint the harness itself installs.
    let mut engine = fabric(SimConfig::paper_default(), RoutingMode::Adaptive, NoTrace);
    spray(&mut engine, 2048, Time::from_ms(2));
    assert_eq!(engine.pending_events(), 0, "warm-up must drain");

    let ((), during) = tinybench::alloc::measure(|| spray(&mut engine, 512, Time::from_ms(3)));

    assert_eq!(engine.pending_events(), 0, "measured phase must drain");
    assert!(
        during <= 1,
        "NoTrace engine allocated {during} times for 512 packets"
    );
    assert!(
        engine.stats.counters.data_tx >= 3 * (2048 + 512),
        "traffic did not cross the fabric: {:?}",
        engine.stats.counters
    );
}

/// Fills `arena` to 4096 packets, frees every third and refills those
/// slots, recording every ref handed out in `refs` (whose capacity the
/// caller reserves, so only the arena can allocate).
fn churn_arena(arena: &mut PacketArena, refs: &mut Vec<PacketRef>) {
    let pkt = |i: u64| Packet::data(i, HostId(0), HostId(1), ConnId(0), 0, i, 4096, false);
    refs.clear();
    refs.extend((0..4096).map(|i| arena.insert(pkt(i))));
    for i in (0..4096).step_by(3) {
        arena.release(refs[i]);
    }
    refs.extend((0..4096u64).step_by(3).map(|i| arena.insert(pkt(i))));
}

#[test]
fn a_rebuilt_arena_allocates_no_block() {
    // Its own thread: the spare an arena leaves is per thread, and this
    // one starts with none.
    std::thread::spawn(|| {
        let mut refs = Vec::with_capacity(8192);
        let mut first = PacketArena::new();
        let ((), grown) = tinybench::alloc::measure(|| churn_arena(&mut first, &mut refs));
        assert!(grown > 0, "a first arena grows its blocks");
        let first_refs = refs.clone();
        drop(first);
        // `holder` takes the spare, so `small` starts from nothing; dropped
        // after `holder` gave the spare back, the smaller set is discarded.
        let holder = PacketArena::new();
        let mut small = PacketArena::new();
        small.insert(Packet::data(
            0,
            HostId(0),
            HostId(1),
            ConnId(0),
            0,
            0,
            64,
            false,
        ));
        drop(holder);
        drop(small);

        let (second, allocs) = tinybench::alloc::measure(|| {
            let mut second = PacketArena::new();
            churn_arena(&mut second, &mut refs);
            second
        });
        assert_eq!(allocs, 0, "the second arena allocated {allocs} times");
        assert_eq!(
            refs, first_refs,
            "a reused arena hands out the slots a fresh one does"
        );
        assert_eq!(second.high_water(), 4096);
    })
    .join()
    .expect("arena thread");
}

/// One hold-model step: drain the head batch (ties pop together), then
/// refile one event per drained slot at a jittered future time. Every
/// 64th refile goes far-future, and every 16th is an exact tie with the
/// previous push.
fn step(q: &mut EventQueue, batch: &mut Vec<(Time, u64, Event)>, rng: &mut Rng64, i: u64) {
    batch.clear();
    let t = q
        .drain_batch_into(batch)
        .expect("hold model never drains the queue");
    let mut last = t;
    for (k, (_, _, ev)) in batch.drain(..).enumerate() {
        let at = match (i + k as u64) % 64 {
            0 => t + Time::from_us(50 + rng.gen_range(1 << 10)),
            n if n % 16 == 1 => last,
            _ => t + Time::from_ns(1 + rng.gen_range(1 << 12)),
        };
        last = at;
        q.push(at, ev);
    }
}

/// One lock-step cycle starting at `base`: a burst of tied runs lands
/// before anything pops (16 runs 2.6 ns apart), then the queue drains
/// to empty with every event taking three more hops — an ACK and an MTU
/// serialization at 400 Gbps, then a link traversal.
fn lockstep_cycle(q: &mut EventQueue, batch: &mut Vec<(Time, u64, Event)>, base: Time, burst: u64) {
    const HOPS_PS: [u64; 3] = [1_300, 83_200, 600_000];
    for token in 0..burst {
        q.push(
            base + Time::from_ps(token * 16 / burst * 2_600),
            Event::Timer {
                host: HostId(0),
                token: 0,
            },
        );
    }
    while let Some(t) = q.drain_batch_into(batch) {
        for (_, _, ev) in batch.drain(..) {
            let Event::Timer { host, token: hop } = ev else {
                unreachable!("the cycle only pushes timers");
            };
            if let Some(&delta) = HOPS_PS.get(hop as usize) {
                q.push(
                    t + Time::from_ps(delta),
                    Event::Timer {
                        host,
                        token: hop + 1,
                    },
                );
            }
        }
    }
}

/// One link-shaped step: drain the head batch, then schedule for each
/// member what the packet path would — a service completion's arrival a
/// hop ahead and the link's next serialization, an arrival's enqueue
/// behind an ACK-sized or an MTU-sized frame — so the four constants
/// interleave in every batch. Each member has exactly one successor: the
/// hold stays what the lock-step start loaded. One RTO-like timer rides
/// along on the heap level, so batches merge both levels.
fn link_step(q: &mut EventQueue, batch: &mut Vec<(Time, u64, Event)>, i: u64) {
    /// Header and MTU serialization at 400 Gb/s, host-bound and
    /// switch-bound hop.
    const DELTAS_PS: [u64; 4] = [1_280, 83_200, 500_000, 1_000_000];
    let t = q
        .drain_batch_into(batch)
        .expect("hold model never drains the queue");
    for (k, (_, _, ev)) in batch.drain(..).enumerate() {
        let delta = Time::from_ps(DELTAS_PS[(i as usize + k) % 4]);
        let next = match ev {
            Event::QueueService { link } => Event::Arrive {
                node: NodeRef::Switch(SwitchId(0)),
                pkt: PacketRef(link.0),
            },
            Event::Arrive { pkt, .. } => Event::QueueService {
                link: LinkId(pkt.0),
            },
            Event::Timer { .. } => {
                q.push(t + Time::from_us(25), ev);
                continue;
            }
            Event::Control(_) => unreachable!("the load pushes no controls"),
        };
        q.push(t + delta, next);
    }
}

#[test]
fn calendar_steady_state_allocates_nothing() {
    #[cfg(not(miri))]
    const HELD: u64 = 4096;
    #[cfg(not(miri))]
    const WARMUP: u64 = 1 << 16;
    #[cfg(not(miri))]
    const MEASURED: u64 = 1 << 13;
    // Miri runs the same model at a fraction of the iteration count —
    // still enough to grow the heap and wrap the lane rings, but small
    // enough to finish in CI minutes.
    #[cfg(miri)]
    const HELD: u64 = 128;
    #[cfg(miri)]
    const WARMUP: u64 = 1 << 9;
    #[cfg(miri)]
    const MEASURED: u64 = 1 << 6;

    let mut q = EventQueue::new();
    let mut rng = Rng64::new(7);
    let mut batch: Vec<(Time, u64, Event)> = Vec::new();
    for token in 0..HELD {
        q.push(
            Time::from_ns(rng.gen_range(1 << 16)),
            Event::Timer {
                host: HostId(0),
                token,
            },
        );
    }

    // Warm-up: long enough for the heap and the timer slab to reach
    // their high-water marks.
    for i in 0..WARMUP {
        step(&mut q, &mut batch, &mut rng, i);
    }

    let ((), during) = tinybench::alloc::measure(|| {
        for i in 0..MEASURED {
            step(&mut q, &mut batch, &mut rng, WARMUP + i);
        }
    });

    assert_eq!(
        q.len(),
        HELD as usize,
        "hold model must conserve its events"
    );
    // The zero-alloc pin is native-only: miri's short warm-up does not
    // settle the high-water mark, and there the test's job is checking
    // the queue's pointer discipline, not its allocator behaviour.
    #[cfg(not(miri))]
    assert_eq!(
        during, 0,
        "calendar steady state must not allocate: {during} allocations \
         across {MEASURED} batch cycles"
    );
    #[cfg(miri)]
    let _ = during;

    // Second load: lock-step burst→drain cycles on a fresh queue.
    #[cfg(not(miri))]
    const BURST: u64 = 4096;
    #[cfg(not(miri))]
    const CYCLES: u64 = 48;
    #[cfg(miri)]
    const BURST: u64 = 256;
    #[cfg(miri)]
    const CYCLES: u64 = 6;
    let mut q = EventQueue::new();
    let period = Time::from_ps(1 << 26);
    for cycle in 0..CYCLES {
        lockstep_cycle(
            &mut q,
            &mut batch,
            Time::from_ps(period.as_ps() * cycle),
            BURST,
        );
    }
    let ((), during) = tinybench::alloc::measure(|| {
        for cycle in CYCLES..CYCLES + 8 {
            lockstep_cycle(
                &mut q,
                &mut batch,
                Time::from_ps(period.as_ps() * cycle),
                BURST,
            );
        }
    });
    assert!(q.is_empty(), "every cycle drains the queue");
    #[cfg(not(miri))]
    assert_eq!(
        during,
        0,
        "lock-step burst→drain cycles must not allocate after warm-up: \
         {during} allocations across 8 cycles ({:?})",
        q.stats()
    );
    #[cfg(miri)]
    let _ = during;

    // Third load: link-shaped traffic on a fresh queue — every NIC starts
    // serializing at t = 0, and the lanes take every packet-path push.
    let mut q = EventQueue::new();
    q.push(
        Time::from_us(25),
        Event::Timer {
            host: HostId(0),
            token: 0,
        },
    );
    for link in 0..HELD as u32 {
        q.push(
            Time::from_ps(83_200),
            Event::QueueService { link: LinkId(link) },
        );
    }
    for i in 0..WARMUP {
        link_step(&mut q, &mut batch, i);
    }
    let warm = q.stats();
    let ((), during) = tinybench::alloc::measure(|| {
        for i in 0..MEASURED {
            link_step(&mut q, &mut batch, WARMUP + i);
        }
    });
    assert_eq!(q.len(), HELD as usize + 1, "the load conserves its events");
    let stats = q.stats();
    assert!(
        stats.lane_pushes > warm.lane_pushes
            && stats.lane_misfits == 0
            && (2..=4).contains(&stats.lanes_open),
        "four constants from a clock that never goes back take lanes, all of them: {stats:?}"
    );
    #[cfg(not(miri))]
    assert_eq!(
        during, 0,
        "lanes must keep their high-water capacity: {during} allocations \
         across {MEASURED} batches ({stats:?})"
    );
    #[cfg(miri)]
    let _ = during;
}
