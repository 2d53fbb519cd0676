//! Allocation accounting for the adversarial-fault drop checks.
//!
//! The fault axis put two extra per-packet checks on the hot path
//! (gray-loss and corruption probabilities, right after the bit-error
//! check). The contract: with no fault installed — `fault=none`, every
//! cell that existed before the axis — those checks must cost **zero**
//! heap allocations and zero RNG draws in steady state, and even with an
//! active gray fault the per-packet work is an inline RNG draw and a
//! counter bump, never an allocation. A counting global allocator pins
//! both, so a regression (a boxed reason, a per-drop `Vec`, a formatted
//! label) fails immediately. The same holds for a flapping cable: each
//! toggle pair pushes the next into the slots and heap capacity the
//! fired pair left, so once warm its toggles allocate nothing.
//!
//! The pins count through `tinybench::alloc::measure`, which sees only
//! the measuring thread's allocations, so a sibling test running on
//! another thread cannot add to them.

use netsim::config::SimConfig;
use netsim::engine::{Command, Ctx, Endpoint, Engine, RoutingMode};
use netsim::event::ControlEvent;
use netsim::failures::{Failure, FailurePlan};
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
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 7);
        let mut engine = Engine::new(topo, SimConfig::paper_default(), 7);
        engine.routing = RoutingMode::EcmpHash;
        if gray_p > 0.0 {
            // ToR 0's uplinks are the first links out of the source rack;
            // flag a handful so sprayed traffic crosses at least one.
            for l in 0..8 {
                engine.schedule_control(Time::ZERO, ControlEvent::LinkGray(LinkId(l), gray_p));
            }
        }
        if flap {
            let pair = engine.topo.cable_pairs()[0];
            FailurePlan::none()
                .with(Failure::Flap {
                    pair,
                    at: Time::ZERO,
                    period: Time::from_us(20),
                    up_time: Time::from_us(10),
                    until: Time::from_ms(2),
                })
                .install(&mut engine);
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
