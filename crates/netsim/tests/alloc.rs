//! Allocation accounting for the per-packet hot path.
//!
//! Pins the zero-allocation contract of the switch path
//! (`route → select_uplink → push_link`) plus the calendar and arena:
//! after a warm-up phase has grown every buffer to its high-water mark
//! (arena slots, calendar heap, link deques, scratch buffers), pushing
//! more traffic through the fabric must perform **zero** heap
//! allocations. A counting global allocator makes any regression — a
//! cloned route table, a filter `Vec`, a packet moved back inline — fail
//! this test immediately.
//!
//! The pins count through `tinybench::alloc::measure`, which sees only
//! the measuring thread's allocations, so a sibling test running on
//! another thread cannot add to them.

use netsim::config::SimConfig;
use netsim::engine::{Command, Ctx, Endpoint, Engine, RoutingMode};
use netsim::ids::{ConnId, HostId};
use netsim::packet::Packet;
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, Topology};

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

/// Sends a burst of cross-rack data packets on every `Custom` command.
/// Receivers are plain sinks, so all traffic exercises exactly the fabric
/// path under test and nothing else.
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

fn spray_engine(cfg: SimConfig, routing: RoutingMode) -> Engine {
    // 32 hosts: 8 ToRs x 4 hosts, 4 T1s. Host 0 sprays to hosts 16..32.
    let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 7);
    let mut engine = Engine::new(topo, cfg, 7);
    engine.routing = routing;
    engine.set_endpoint(
        HostId(0),
        Box::new(Spray {
            burst: 0,
            next_ev: 0,
        }),
    );
    engine
}

fn spray(engine: &mut Engine, burst: u32, until: Time) {
    // Reach into the endpoint via a fresh one: simpler to re-install with
    // the desired burst than to downcast.
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
        let mut engine = spray_engine(cfg, routing);
        // Warm-up: a burst strictly larger than the measured phase grows
        // the arena, calendar, link deques and scratch buffers to their
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
