//! Zero-overhead contract of the flight recorder when tracing is off.
//!
//! The engine's hot path carries trace probes (`trace.emit(PathChoice)`
//! on every uplink selection); with the default [`NoTrace`] sink those
//! calls must monomorphize to nothing. This test first proves the probe
//! really sits on the measured path — the same traffic through a
//! [`Recorder`]-instrumented engine captures path-choice events — and
//! then pins that the untraced engine performs **zero** heap allocations
//! for that traffic after warm-up. Any accidental cost added behind the
//! probe (a formatted label, an event buffered before the `enabled()`
//! check) fails here immediately.
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
use netsim::trace::{Recorder, TraceEvent, TraceSink};

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

/// Sends a burst of cross-rack data packets on every `Custom` command,
/// exactly as in `alloc.rs` — but generic over the trace sink so the
/// same endpoint drives both the recorded and the untraced engine.
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

fn spray_engine<S: TraceSink>(trace: S) -> Engine<S> {
    // 32 hosts: 8 ToRs x 4 hosts, 4 T1s. Host 0 sprays to hosts 16..32,
    // so every packet crosses an uplink and hits the PathChoice probe.
    let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 7);
    let mut engine = Engine::with_trace(topo, SimConfig::paper_default(), 7, trace);
    engine.routing = RoutingMode::Adaptive;
    engine
}

fn spray<S: TraceSink>(engine: &mut Engine<S>, burst: u32, until: Time) {
    engine.set_endpoint(HostId(0), Box::new(Spray { burst, next_ev: 1 }));
    engine.command(HostId(0), Command::Custom(0));
    engine.run_until(until);
}

#[test]
fn trace_probes_cost_nothing_when_tracing_is_off() {
    // First, the probe must actually be on this path: the identical
    // traffic through a recording engine captures one PathChoice per
    // uplink traversal.
    let mut recorded = spray_engine(Recorder::new());
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
    let mut engine = spray_engine(netsim::trace::NoTrace);
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
