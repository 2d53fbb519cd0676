//! Allocation accounting for the transport-side per-packet hot path.
//!
//! The sibling test in `netsim/tests/alloc.rs` pins the switch path
//! (route → select → push) at zero steady-state allocations; this one
//! extends the contract up the stack to the full transport loop — data
//! out, ACKs back, congestion control, load-balancer feedback. The last
//! per-packet allocation source was the ACK bodies' `Vec`s (~0.14
//! allocs/event): every acknowledged packet paid two heap allocations in
//! `ReceiverConn::flush`. With inline SACK/echo lists
//! ([`netsim::packet::SmallList`]) and endpoint-owned sweep scratch, a
//! warmed steady state performs a small *per-message* bookkeeping cost
//! (flow records, completion tags) and nothing per packet: the bound here
//! is ~0.4% of the packet count, where the per-ACK `Vec`s alone used to
//! cost ~200%.
//!
//! Connections themselves allocate a fixed number of blocks each when
//! they open, pinned below: three, the sender's slot in its host's table
//! and its in-flight window and the receiver's slot in its host's table.
//! Every other buffer a connection owns keeps its first entries inline
//! and spills to the heap only past them. The ACK scratch is one buffer
//! per host, shared by its senders.
//!
//! The pins count through `tinybench::alloc::measure`, which sees only
//! the measuring thread's allocations, so a sibling test running on
//! another thread cannot add to them.

use baselines::kind::LbKind;
use netsim::config::SimConfig;
use netsim::engine::{Command, Engine, MessageSpec};
use netsim::ids::{ConnId, FlowId, HostId};
use netsim::packet::{Body, Packet};
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, Topology};
use transport::config::{CoalesceConfig, CoalesceVariant, TransportConfig};
use transport::conn::ReceiverConn;
use transport::endpoint::HostEndpoint;

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

/// One round of 8 concurrent cross-rack messages of `bytes` each, on a
/// 32-host two-tier fabric: the `i`-th goes from `pair(i).0` to
/// `pair(i).1`. Runs to completion and returns the allocations it made.
fn round(
    engine: &mut Engine,
    tag: u64,
    pair: impl Fn(u32) -> (u32, u32),
    bytes: u64,
    deadline: Time,
) -> u64 {
    let ((), allocs) = tinybench::alloc::measure(|| {
        engine.stats.expected_flows += 8;
        for i in 0..8u32 {
            let (src, dst) = pair(i);
            engine.command(
                HostId(src),
                Command::StartMessage(MessageSpec {
                    flow: FlowId(tag as u32 * 8 + i),
                    dst: HostId(dst),
                    bytes,
                    tag: tag * 8 + i as u64,
                }),
            );
        }
        assert!(
            engine.run_to_completion(deadline),
            "round {tag} did not complete"
        );
    });
    allocs
}

#[test]
fn transport_ack_path_is_allocation_free_after_warmup() {
    let sim = SimConfig::paper_default();
    let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 11);
    let n = topo.n_hosts;
    let mut engine = Engine::new(topo, sim, 11);
    let tcfg = TransportConfig::from_sim(&engine.cfg, 4, LbKind::Ops { evs_size: 1 << 16 });
    for h in 0..n {
        let ep = HostEndpoint::new(HostId(h), n, engine.cfg.link_bps, tcfg.clone());
        engine.set_endpoint(HostId(h), Box::new(ep));
    }
    // Completion records are the engine's, not the transport's.
    engine.stats.flows.reserve(64);

    // Warm-up: grow every buffer (arena, calendar, connection tables, OOO
    // trackers, pending-ACK buffers, sweep scratch) to its high-water
    // mark with a round strictly larger than the measured one.
    round(&mut engine, 0, |i| (i, 16 + i), 4 << 20, Time::from_ms(10));

    let before_events = engine.events_processed;
    let during = round(&mut engine, 1, |i| (i, 16 + i), 1 << 20, Time::from_ms(20));
    let events = engine.events_processed - before_events;

    // 8 flows × 1 MiB at 4 KiB MTU = 2048 data packets, each ACKed
    // per-packet: the old per-ACK `Vec` pair alone would be >4000
    // allocations. What remains is per-*message* bookkeeping (flow
    // records, completion-tag lists, message-queue growth): a handful per
    // flow, independent of packet count.
    assert!(events > 8_000, "round unexpectedly small: {events} events");
    assert!(
        during <= 64,
        "transport path allocated {during} times over {events} events \
         (per-packet allocation has crept back in)"
    );

    // Opening a connection. Turn the traffic around (host 16+i opens its
    // first sender, host i its first receiver), long enough to warm every
    // link queue on those paths; then open one more connection from each
    // of those senders with a one-packet message. Each allocates 3 blocks:
    // the sender's slot in its host's table and its in-flight window, and
    // the receiver's slot in its host's table. The message lists, both
    // bitmaps and the pending SACK and echo lists hold their first entries
    // inline, the scratch for newly ACKed sequences is the host's,
    // allocated with its first sender's first ACK, and the balancer is
    // inline in the sender.
    const PER_CONNECTION: u64 = 3;
    round(&mut engine, 2, |i| (16 + i, i), 1 << 20, Time::from_ms(30));
    assert_eq!(
        round(
            &mut engine,
            3,
            |i| (16 + i, (i + 1) % 8),
            1,
            Time::from_ms(40)
        ),
        8 * PER_CONNECTION,
        "allocations opening 8 connections"
    );
}

/// A coalesced ACK wider than its inline lists costs one heap block per
/// list: the pending SACK and echo lists spill once, with room for the
/// whole batch, and the flush hands both blocks to the ACK.
#[test]
fn a_wide_coalesced_ack_allocates_one_block_per_list() {
    let coalesce = CoalesceConfig::ratio(16, CoalesceVariant::CarryEvs);
    let packets: Vec<Packet> = (0..64u64)
        .map(|seq| {
            let body = Body::Data {
                seq,
                msg: 0,
                msg_seq: seq as u32,
                msg_pkts: 1000,
                tag: 0,
                payload: 4096,
                retx: false,
                pending: 0,
            };
            Packet::control(seq, HostId(0), HostId(1), ConnId(0), seq as u16, body)
        })
        .collect();
    let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
    let mut acks = Vec::with_capacity(packets.len());
    let ((), allocs) = tinybench::alloc::measure(|| {
        for pkt in &packets {
            acks.extend(rx.on_data(pkt, coalesce, Time::ZERO).ack);
        }
    });
    assert_eq!(acks.len(), 4);
    for ack in &acks {
        assert_eq!((ack.sacked.len(), ack.echoes.len()), (16, 16));
    }
    assert_eq!(allocs, 2 * acks.len() as u64, "allocations over 4 ACKs");
}
