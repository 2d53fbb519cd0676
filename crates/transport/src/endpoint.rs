//! The per-host transport endpoint.
//!
//! `HostEndpoint` implements [`netsim::engine::Endpoint`]: it demultiplexes
//! packets to per-peer sender/receiver connections, runs the retransmission
//! and delayed-ACK sweeps, paces EQDS credit grants, schedules workload
//! message starts, and fires dependency triggers when messages complete
//! (the mechanism the AI-collective workloads are built on).
//!
//! A host talks to a handful of peers, so its connections live in two
//! `Vec`s kept sorted by key and found by binary search. Table order *is*
//! key order: every pass whose effects reach the shared RNG or the wire —
//! the RTO sweep, the delayed-ACK flush, the EQDS round-robin, the
//! diagnostics sum — walks a table front to back and is deterministic
//! without sorting anything.
//!
//! Every host of a cell shares one [`TransportConfig`] through an `Rc`,
//! and one scratch buffer serves all of a host's senders' ACK processing.

use std::rc::Rc;

use netsim::arena::{prefetch, Header};
use netsim::engine::{Command, Ctx, Endpoint, MessageSpec};
use netsim::hash::FxHashMap;
use netsim::ids::{ConnId, HostId};
use netsim::packet::{Ack, Body, Packet};
use netsim::time::Time;
use netsim::trace::{TraceEvent, TraceSink};
use reps::reps::RepsCounters;

use crate::cc::Cc;
use crate::config::TransportConfig;
use crate::conn::{ReceiverConn, SenderConn, SenderEnv};

/// Timer token: periodic RTO / delayed-ACK sweep.
const TOKEN_SWEEP: u64 = 1;
/// Timer token: EQDS credit pacer tick.
const TOKEN_EQDS: u64 = 2;
/// Timer token: scheduled message starts.
const TOKEN_SCHEDULE: u64 = 3;
/// Packets (MTUs) an EQDS pacer tick grants.
const EQDS_QUANTUM_PKTS: u64 = 4;

/// The longest connection table, in bytes, that [`HostEndpoint`]'s
/// look-ahead hint prefetches whole: two senders (a host's foreground and
/// background class, or one each to two peers) or four receivers (608 of
/// its 640 bytes). A longer table is binary-searched, and the hint does
/// not guess which of its entries the search will touch.
const HINT_BYTES: usize = 2 * std::mem::size_of::<SenderConn>();

/// Prefetches every line `table` spans, if it is at most [`HINT_BYTES`]
/// long.
fn prefetch_table<T>(table: &[T]) {
    let bytes = std::mem::size_of_val(table);
    if bytes == 0 || bytes > HINT_BYTES {
        return;
    }
    let p = table.as_ptr().cast::<u8>();
    for offset in (0..bytes).step_by(64).chain([bytes - 1]) {
        prefetch(p.wrapping_add(offset));
    }
}

/// A host's transport stack.
pub struct HostEndpoint {
    /// This host's id (fixed at construction).
    pub host: HostId,
    /// The cell's transport parameters, shared by every host.
    cfg: Rc<TransportConfig>,
    /// Link rate, for pacing credit grants.
    link_bps: u64,
    /// Total hosts (connection-id derivation).
    n_hosts: u32,
    /// Senders sorted by `(destination, background class)`: `dst` and bit
    /// 0 of `conn`.
    senders: Vec<SenderConn>,
    /// Receivers sorted by connection id. At a fixed receiver the id
    /// `(peer·n + host)·2 + class` rises with `(peer, class)`, so this is
    /// also peer order.
    receivers: Vec<ReceiverConn>,
    /// Scratch for the sequences an ACK newly confirms
    /// ([`SenderConn::on_ack`]), shared by this host's senders.
    newly_acked: Vec<u64>,
    /// The REPS decision counters of this host's senders.
    reps: RepsCounters,
    /// Messages to start at fixed times, sorted by time ascending.
    schedule: Vec<(Time, MessageSpec)>,
    schedule_next: usize,
    /// tag → messages to start when a message with that tag is *received*.
    on_receive: FxHashMap<u64, Vec<MessageSpec>>,
    /// tag → messages to start when our *send* with that tag completes.
    on_send_complete: FxHashMap<u64, Vec<MessageSpec>>,
    sweep_armed: bool,
    eqds_armed: bool,
    /// Round-robin cursor over demanding peers (EQDS pacer fairness).
    eqds_rr: usize,
}

impl HostEndpoint {
    /// Creates the endpoint for `host` in a fabric of `n_hosts`. Pass an
    /// `Rc` to share one configuration among a cell's hosts.
    pub fn new(
        host: HostId,
        n_hosts: u32,
        link_bps: u64,
        cfg: impl Into<Rc<TransportConfig>>,
    ) -> HostEndpoint {
        HostEndpoint {
            host,
            cfg: cfg.into(),
            link_bps,
            n_hosts,
            senders: Vec::new(),
            receivers: Vec::new(),
            newly_acked: Vec::new(),
            reps: RepsCounters::default(),
            schedule: Vec::new(),
            schedule_next: 0,
            on_receive: FxHashMap::default(),
            on_send_complete: FxHashMap::default(),
            sweep_armed: false,
            eqds_armed: false,
            eqds_rr: 0,
        }
    }

    /// Schedules a message to start at an absolute time.
    ///
    /// Must be called before the engine delivers `HostStart` (time zero).
    pub fn schedule_message(&mut self, at: Time, spec: MessageSpec) {
        // After every earlier-or-equal start: time order, FIFO among ties.
        let pos = self.schedule.partition_point(|(t, _)| *t <= at);
        crate::reserve_doubling(&mut self.schedule, 1);
        self.schedule.insert(pos, (at, spec));
    }

    /// Starts `spec` when a message tagged `tag` is fully received.
    pub fn trigger_on_receive(&mut self, tag: u64, spec: MessageSpec) {
        self.on_receive.entry(tag).or_default().push(spec);
    }

    /// Starts `spec` when our own send tagged `tag` completes.
    pub fn trigger_on_send_complete(&mut self, tag: u64, spec: MessageSpec) {
        self.on_send_complete.entry(tag).or_default().push(spec);
    }

    /// Accumulates every sender's load-balancer decision counters into
    /// `out`, summing values that share a name. Deterministic: senders are
    /// visited in key order, and names keep first-appearance order. The
    /// host's REPS counters go with its first REPS sender.
    pub fn lb_diagnostics(&self, out: &mut Vec<(&'static str, u64)>) {
        let mut scratch = Vec::new();
        let mut reps = self.reps;
        for tx in &self.senders {
            scratch.clear();
            tx.lb.diagnostics(&reps, &mut scratch);
            if matches!(tx.lb, baselines::kind::Lb::Reps(_)) {
                reps = RepsCounters::default();
            }
            for &(name, v) in &scratch {
                match out.iter_mut().find(|(n, _)| *n == name) {
                    Some(entry) => entry.1 += v,
                    None => out.push((name, v)),
                }
            }
        }
    }

    fn conn_id(&self, src: HostId, dst: HostId, bg: bool) -> ConnId {
        ConnId((src.0 * self.n_hosts + dst.0) * 2 + bg as u32)
    }

    /// The slot of the sender to `dst` in class `bg`, or where it belongs.
    fn sender_slot(&self, dst: HostId, bg: bool) -> Result<usize, usize> {
        self.senders
            .binary_search_by_key(&(dst, bg), |tx| (tx.dst, tx.conn.0 & 1 == 1))
    }

    /// The sender table, beside what the host drives its senders with.
    fn senders_env(&mut self) -> (&mut [SenderConn], SenderEnv<'_>) {
        let env = SenderEnv {
            cfg: &self.cfg,
            reps: &mut self.reps,
            newly_acked: &mut self.newly_acked,
        };
        (&mut self.senders, env)
    }

    /// The sender an ACK, NACK or credit on `conn` from `peer` is for, with
    /// what it is driven with.
    fn sender_for(
        &mut self,
        peer: HostId,
        conn: ConnId,
    ) -> Option<(&mut SenderConn, SenderEnv<'_>)> {
        let slot = self.sender_slot(peer, conn.0 & 1 == 1).ok()?;
        let (senders, env) = self.senders_env();
        Some((&mut senders[slot], env))
    }

    fn arm_sweep<S: TraceSink>(&mut self, ctx: &mut Ctx<'_, S>) {
        if !self.sweep_armed {
            self.sweep_armed = true;
            ctx.set_timer(ctx.cfg.rto / 4, TOKEN_SWEEP);
        }
    }

    fn arm_eqds<S: TraceSink>(&mut self, ctx: &mut Ctx<'_, S>) {
        if !self.eqds_armed {
            self.eqds_armed = true;
            let quantum = EQDS_QUANTUM_PKTS * u64::from(ctx.cfg.mtu_bytes);
            let tick = Time::serialization(quantum, self.link_bps);
            ctx.set_timer(tick, TOKEN_EQDS);
        }
    }

    fn start_message<S: TraceSink>(&mut self, spec: MessageSpec, ctx: &mut Ctx<'_, S>) {
        let bg = spec.tag & crate::config::BACKGROUND_BIT != 0;
        let slot = match self.sender_slot(spec.dst, bg) {
            Ok(slot) => slot,
            Err(slot) => {
                let cfg = &self.cfg;
                let lb = cfg.lb_for(bg).build(ctx.rng);
                let cc = Cc::build(cfg.cc, cfg.cc_params);
                let conn = self.conn_id(self.host, spec.dst, bg);
                let tx = SenderConn::new(conn, spec.dst, lb, cc, cfg);
                crate::reserve_doubling(&mut self.senders, 1);
                self.senders.insert(slot, tx);
                slot
            }
        };
        let (senders, mut env) = self.senders_env();
        let tx = &mut senders[slot];
        tx.enqueue(spec.flow, spec.tag, spec.bytes, ctx.cfg.mtu_bytes, ctx.now);
        tx.pump(&mut env, ctx);
        self.arm_sweep(ctx);
    }

    fn send_ack<S: TraceSink>(
        host: HostId,
        peer: HostId,
        conn: ConnId,
        ack: Ack,
        ctx: &mut Ctx<'_, S>,
    ) {
        // ACKs reuse the newest echoed EV for their own routing (§3.1): no
        // extra header space, and the reverse path reflects the data path.
        let ev = ack.echoes.last().map(|e| e.ev).unwrap_or(0);
        let pkt = Packet::control(ctx.fresh_packet_id(), host, peer, conn, ev, Body::Ack(ack));
        ctx.send(pkt);
    }

    fn fire_receive_triggers<S: TraceSink>(&mut self, tag: u64, ctx: &mut Ctx<'_, S>) {
        if let Some(specs) = self.on_receive.remove(&tag) {
            for spec in specs {
                self.start_message(spec, ctx);
            }
        }
    }

    fn fire_send_triggers<S: TraceSink>(&mut self, tags: &[u64], ctx: &mut Ctx<'_, S>) {
        for tag in tags {
            if let Some(specs) = self.on_send_complete.remove(tag) {
                for spec in specs {
                    self.start_message(spec, ctx);
                }
            }
        }
    }

    fn on_sweep<S: TraceSink>(&mut self, ctx: &mut Ctx<'_, S>) {
        self.sweep_armed = false;
        let rto = ctx.cfg.rto;
        // Each timeout draws from the shared RNG and each stale ACK takes a
        // packet id, so both passes run in table order.
        let (senders, mut env) = self.senders_env();
        for tx in senders {
            tx.check_timeouts(&mut env, ctx);
        }
        // Delayed-ACK flush: release observations older than a quarter RTO.
        let cutoff = ctx.now.saturating_sub(rto / 4);
        for rx in &mut self.receivers {
            if let Some(ack) = rx.flush_stale(cutoff, self.cfg.coalesce) {
                Self::send_ack(self.host, rx.peer, rx.conn, ack, ctx);
            }
        }
        let busy =
            self.senders.iter().any(|tx| !tx.idle()) || self.schedule_next < self.schedule.len();
        if busy {
            self.arm_sweep(ctx);
        }
    }

    fn on_eqds_tick<S: TraceSink>(&mut self, ctx: &mut Ctx<'_, S>) {
        self.eqds_armed = false;
        let demanding = self
            .receivers
            .iter()
            .filter(|rx| rx.demand_bytes > 0)
            .count();
        if demanding == 0 {
            return;
        }
        // Round-robin over the demanding receivers in table (`conn`) order.
        let nth = self.eqds_rr % demanding;
        self.eqds_rr = self.eqds_rr.wrapping_add(1);
        let quantum = EQDS_QUANTUM_PKTS * u64::from(ctx.cfg.mtu_bytes);
        let rx = self
            .receivers
            .iter_mut()
            .filter(|rx| rx.demand_bytes > 0)
            .nth(nth)
            .expect("counted");
        let grant = rx.demand_bytes.min(quantum);
        rx.demand_bytes -= grant;
        let pkt = Packet::control(
            ctx.fresh_packet_id(),
            self.host,
            rx.peer,
            rx.conn,
            ctx.rng.gen_range(1 << 16) as u16,
            Body::Credit { bytes: grant },
        );
        ctx.send(pkt);
        self.arm_eqds(ctx);
    }

    fn run_schedule<S: TraceSink>(&mut self, ctx: &mut Ctx<'_, S>) {
        while self.schedule_next < self.schedule.len()
            && self.schedule[self.schedule_next].0 <= ctx.now
        {
            let spec = self.schedule[self.schedule_next].1;
            self.schedule_next += 1;
            self.start_message(spec, ctx);
        }
        if self.schedule_next < self.schedule.len() {
            let next_at = self.schedule[self.schedule_next].0;
            ctx.set_timer(next_at.saturating_sub(ctx.now), TOKEN_SCHEDULE);
        }
    }
}

impl<S: TraceSink> Endpoint<S> for HostEndpoint {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_, S>) {
        match &pkt.body {
            Body::Data { .. } => {
                let peer = pkt.src;
                let conn = pkt.conn;
                let slot = match self.receivers.binary_search_by_key(&conn, |rx| rx.conn) {
                    Ok(slot) => slot,
                    Err(slot) => {
                        let rx = ReceiverConn::new(peer, conn);
                        crate::reserve_doubling(&mut self.receivers, 1);
                        self.receivers.insert(slot, rx);
                        slot
                    }
                };
                let rx = &mut self.receivers[slot];
                let out = rx.on_data(&pkt, self.cfg.coalesce, ctx.now);
                if ctx.trace.enabled() {
                    // Only out-of-order states are recorded, so a perfectly
                    // ordered flow contributes no reorder events.
                    let depth = rx.out_of_order_count();
                    if depth > 0 {
                        ctx.trace.emit(TraceEvent::Reorder {
                            at: ctx.now,
                            host: self.host,
                            conn: conn.0,
                            depth,
                        });
                    }
                }
                let demand = rx.demand_bytes;
                if let Some(seq) = out.nack_seq {
                    let nack = Packet::control(
                        ctx.fresh_packet_id(),
                        self.host,
                        peer,
                        conn,
                        pkt.ev,
                        Body::Nack { seq },
                    );
                    ctx.send(nack);
                }
                if let Some(ack) = out.ack {
                    Self::send_ack(self.host, peer, conn, ack, ctx);
                }
                if let Some(tag) = out.completed_tag {
                    self.fire_receive_triggers(tag, ctx);
                }
                if matches!(self.cfg.cc, crate::cc::CcKind::Eqds) && demand > 0 {
                    self.arm_eqds(ctx);
                }
            }
            Body::Ack(ack) => {
                if let Some((tx, mut env)) = self.sender_for(pkt.src, pkt.conn) {
                    let completed_tags = tx.on_ack(ack, &mut env, ctx);
                    self.fire_send_triggers(&completed_tags, ctx);
                }
            }
            Body::Nack { seq } => {
                if let Some((tx, mut env)) = self.sender_for(pkt.src, pkt.conn) {
                    tx.on_nack(*seq, &mut env, ctx);
                }
            }
            Body::Credit { bytes } => {
                if let Some((tx, mut env)) = self.sender_for(pkt.src, pkt.conn) {
                    if let Some(eqds) = tx.cc.as_eqds_mut() {
                        eqds.grant(*bytes);
                    }
                    tx.pump(&mut env, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, S>) {
        match token {
            TOKEN_SWEEP => self.on_sweep(ctx),
            TOKEN_EQDS => self.on_eqds_tick(ctx),
            TOKEN_SCHEDULE => self.run_schedule(ctx),
            _ => {}
        }
    }

    fn on_command(&mut self, cmd: Command, ctx: &mut Ctx<'_, S>) {
        match cmd {
            Command::StartMessage(spec) => self.start_message(spec, ctx),
            Command::Custom(_) => {
                // HostStart: begin executing the static schedule.
                self.run_schedule(ctx);
                self.arm_sweep(ctx);
            }
        }
    }

    /// Prefetches the table `on_packet` will search for `header`'s
    /// packet: data goes to a receiver, everything else to a sender.
    fn prefetch(&self, header: &Header) {
        if header.carries_data() {
            prefetch_table(&self.receivers);
        } else {
            prefetch_table(&self.senders);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::kind::LbKind;
    use netsim::config::SimConfig;
    use netsim::engine::Engine;
    use netsim::event::ControlEvent;
    use netsim::ids::FlowId;
    use netsim::topology::{FatTreeConfig, Topology};
    use netsim::trace::NoTrace;
    use reps::reps::RepsConfig;

    use crate::config::CoalesceConfig;

    const OPS: LbKind = LbKind::Ops { evs_size: 1 << 16 };

    /// The cell's transport with `lb` and every other parameter default.
    fn tcfg(lb: LbKind) -> TransportConfig {
        TransportConfig::from_sim(&SimConfig::paper_default(), 4, lb)
    }

    /// A two-tier fabric of `k`-port switches whose every host runs
    /// `tcfg`'s transport.
    fn engine_with<S: TraceSink>(
        k: u32,
        seed: u64,
        tcfg: TransportConfig,
        trace: S,
    ) -> Engine<S, HostEndpoint> {
        let topo = Topology::build(FatTreeConfig::two_tier(k, 1), seed);
        let n = topo.n_hosts;
        let mut engine = Engine::with_trace(topo, SimConfig::paper_default(), seed, trace);
        let tcfg = Rc::new(tcfg);
        for h in 0..n {
            let ep = HostEndpoint::new(HostId(h), n, engine.cfg.link_bps, Rc::clone(&tcfg));
            engine.set_endpoint(HostId(h), ep);
        }
        engine
    }

    fn build_engine(lb: LbKind, seed: u64) -> Engine<NoTrace, HostEndpoint> {
        engine_with(16, seed, tcfg(lb), NoTrace)
    }

    fn start<S: TraceSink, E: Endpoint<S>>(
        engine: &mut Engine<S, E>,
        flow: u32,
        src: u32,
        dst: u32,
        bytes: u64,
    ) {
        engine.command(
            HostId(src),
            Command::StartMessage(MessageSpec {
                flow: FlowId(flow),
                dst: HostId(dst),
                bytes,
                tag: flow as u64,
            }),
        );
    }

    /// A transport endpoint that logs the ACKs and credits it receives as
    /// `(packet id, conn, is credit)`. Packet ids are handed out in send
    /// order fabric-wide, so sorting by id recovers the order the remote
    /// endpoint sent them in; one timer callback's sends take consecutive
    /// ids.
    struct Tap {
        inner: HostEndpoint,
        seen: Vec<(u64, u32, bool)>,
    }

    impl<S: TraceSink> Endpoint<S> for Tap {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_, S>) {
            match pkt.body {
                Body::Ack(_) => self.seen.push((pkt.id, pkt.conn.0, false)),
                Body::Credit { .. } => self.seen.push((pkt.id, pkt.conn.0, true)),
                _ => {}
            }
            self.inner.on_packet(pkt, ctx);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, S>) {
            self.inner.on_timer(token, ctx);
        }
        fn on_command(&mut self, cmd: Command, ctx: &mut Ctx<'_, S>) {
            self.inner.on_command(cmd, ctx);
        }
    }

    /// Host 0 opens foreground and background senders to three hosts of a
    /// rack whose uplinks are all down, and receives from three peers in
    /// three other racks, everything started in descending key order. No
    /// pass sorts, so every order below comes from the tables' slot order.
    #[test]
    fn connections_are_visited_in_key_order_without_sorting() {
        use netsim::trace::Recorder;
        const SUBJECT: u32 = 0;
        let (dead, peers) = ([30u32, 29, 28], [20u32, 12, 8]);
        let sim = SimConfig::paper_default();
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 12);
        let n = topo.n_hosts;
        let mut engine = Engine::with_trace(topo, sim, 12, Recorder::new());
        // EQDS, and ACKs held back past any window so that only the
        // delayed-ACK sweep releases them.
        let tcfg = tcfg(OPS)
            .with_cc(crate::cc::CcKind::Eqds)
            .with_coalesce(CoalesceConfig::ratio(
                1024,
                crate::config::CoalesceVariant::Plain,
            ));
        for h in 0..n {
            let tap = Tap {
                inner: HostEndpoint::new(HostId(h), n, engine.cfg.link_bps, tcfg.clone()),
                seen: Vec::new(),
            };
            engine.set_endpoint(HostId(h), tap);
        }
        for (up, down) in engine
            .topo
            .tor_uplink_pairs(engine.topo.tor_of(HostId(dead[0])))
        {
            engine.schedule_control(Time::ZERO, ControlEvent::LinkDown(up));
            engine.schedule_control(Time::ZERO, ControlEvent::LinkDown(down));
        }
        let bg = crate::config::BACKGROUND_BIT;
        let starts = dead
            .iter()
            .flat_map(|&d| [(SUBJECT, d, bg), (SUBJECT, d, 0)])
            .chain(peers.iter().map(|&p| (p, SUBJECT, 0)));
        for (flow, (src, dst, tag)) in starts.enumerate() {
            engine.command(
                HostId(src),
                Command::StartMessage(MessageSpec {
                    flow: FlowId(flow as u32),
                    dst: HostId(dst),
                    bytes: 8 << 20,
                    tag,
                }),
            );
        }
        engine.run_until(engine.cfg.rto * 4);

        // The tables come out sorted.
        let ep = &engine.endpoint(HostId(SUBJECT)).unwrap().inner;
        let sender_keys: Vec<(u32, bool)> = ep
            .senders
            .iter()
            .map(|tx| (tx.dst.0, tx.conn.0 & 1 == 1))
            .collect();
        let mut want: Vec<(u32, bool)> =
            dead.iter().flat_map(|&d| [(d, false), (d, true)]).collect();
        want.sort_unstable();
        assert_eq!(sender_keys, want, "senders by (dst, class)");
        let receiver_peers: Vec<u32> = ep.receivers.iter().map(|rx| rx.peer.0).collect();
        assert_eq!(receiver_peers, [8, 12, 20], "receivers by conn");

        // One RTO sweep expires every sender, in (dst, class) order: the
        // sender-side conn id rises with (dst, class).
        let timeouts: Vec<(Time, u32)> = engine
            .trace
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Timeout { at, host, conn, .. } if host.0 == SUBJECT => Some((at, conn)),
                _ => None,
            })
            .collect();
        let sender_conns: Vec<u32> = ep.senders.iter().map(|tx| tx.conn.0).collect();
        let first_sweep: Vec<u32> = timeouts
            .iter()
            .filter(|(at, _)| *at == timeouts[0].0)
            .map(|&(_, conn)| conn)
            .collect();
        assert_eq!(first_sweep, sender_conns, "timeouts in (dst, class) order");

        // What the subject sent the three peers, in send order.
        let mut seen: Vec<(u64, u32, bool)> = peers
            .iter()
            .flat_map(|&p| engine.endpoint(HostId(p)).unwrap().seen.clone())
            .collect();
        seen.sort_unstable();
        let receiver_conns: Vec<u32> = ep.receivers.iter().map(|rx| rx.conn.0).collect();

        // Stale-ACK flushes: one sweep's ACKs take consecutive ids, and
        // leave in (peer, conn) order.
        let acks: Vec<(u64, u32)> = seen
            .iter()
            .filter(|s| !s.2)
            .map(|&(id, conn, _)| (id, conn))
            .collect();
        let flushes: Vec<Vec<u32>> = acks
            .chunk_by(|a, b| b.0 == a.0 + 1)
            .map(|run| run.iter().map(|&(_, conn)| conn).collect())
            .collect();
        assert!(flushes.len() >= 3, "too few sweeps flushed: {flushes:?}");
        for flush in &flushes {
            assert_eq!(flush, &receiver_conns, "stale ACKs in (peer, conn) order");
        }

        // EQDS credits: every grant goes to the next demanding receiver
        // after the previous one in conn order, wrapping around.
        let credits: Vec<u32> = seen.iter().filter(|s| s.2).map(|s| s.1).collect();
        assert!(credits.len() > 100, "too few credits: {}", credits.len());
        let next = |conn: u32| {
            let i = receiver_conns.iter().position(|&c| c == conn).unwrap();
            receiver_conns[(i + 1) % receiver_conns.len()]
        };
        for pair in credits.windows(2) {
            assert_eq!(pair[1], next(pair[0]), "credits round-robin in conn order");
        }
    }

    /// Per-host and per-connection memory at 10k hosts is these sizes
    /// times the host count: a sender holds its balancer inline (`Lb`,
    /// 64 bytes) beside its congestion controller (`Cc`, 40) and 216
    /// bytes of message list (its first message inline), in-flight
    /// window, retransmission queue and ACK bitmap (its first word
    /// inline); a receiver its bitmap, message counts and pending SACK
    /// and echo lists, each with its first entries inline. Neither copies
    /// the cell's parameters; a host holds its tables, triggers, its
    /// senders' REPS counters and one `Rc` to the cell's shared
    /// `TransportConfig`.
    #[test]
    fn connection_state_sizes_are_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<SenderConn>(), 320);
        assert_eq!(size_of::<baselines::kind::Lb>(), 64);
        assert_eq!(size_of::<Cc>(), 40);
        assert_eq!(size_of::<ReceiverConn>(), 152);
        assert_eq!(size_of::<HostEndpoint>(), 248);
        // The look-ahead hint takes a table of up to four receivers whole.
        assert_eq!(HINT_BYTES / size_of::<ReceiverConn>(), 4);
        // Stored by value in the engine: no bigger as an endpoint slot.
        assert_eq!(size_of::<Option<HostEndpoint>>(), size_of::<HostEndpoint>());
    }

    #[test]
    fn connection_tables_start_at_their_length_and_double() {
        let mut engine = build_engine(LbKind::Ecmp, 13);
        let (mut senders, mut receivers) = (Vec::new(), Vec::new());
        for (i, peer) in (20..25).rev().enumerate() {
            start(&mut engine, 2 * i as u32, 0, peer, 1);
            start(&mut engine, 2 * i as u32 + 1, peer, 0, 1);
            engine.stats.expected_flows += 2;
            assert!(engine.run_to_completion(Time::from_ms(1)));
            let ep = engine.endpoint(HostId(0)).unwrap();
            assert_eq!((ep.senders.len(), ep.receivers.len()), (i + 1, i + 1));
            senders.push(ep.senders.capacity());
            receivers.push(ep.receivers.capacity());
        }
        // Exactly the length at one and two entries, doubling after that.
        assert_eq!(senders, [1, 2, 4, 4, 8]);
        assert_eq!(receivers, [1, 2, 4, 4, 8]);

        let link_bps = SimConfig::paper_default().link_bps;
        let mut ep = HostEndpoint::new(HostId(0), 64, link_bps, tcfg(LbKind::Ecmp));
        let schedule: Vec<usize> = [30, 10, 20]
            .into_iter()
            .map(|us| {
                let spec = MessageSpec {
                    flow: FlowId(0),
                    dst: HostId(16),
                    bytes: 1,
                    tag: 0,
                };
                ep.schedule_message(Time::from_us(us), spec);
                ep.schedule.capacity()
            })
            .collect();
        assert_eq!(schedule, [1, 2, 4]);
    }

    #[test]
    fn single_message_completes_with_correct_fct_shape() {
        let mut engine = build_engine(OPS, 1);
        engine.stats.expected_flows = 1;
        start(&mut engine, 0, 0, 64, 1 << 20); // 1 MiB cross-rack.
        assert!(engine.run_to_completion(Time::from_ms(10)));
        let rec = &engine.stats.flows[0];
        assert_eq!(rec.bytes, 1 << 20);
        // 1 MiB at 400 Gbps is ~21 us serialization; with RTT and ramp-up the
        // FCT must land between that and a loose upper bound.
        let fct_us = rec.fct().as_us();
        assert!(fct_us >= 21, "FCT {fct_us}us impossibly fast");
        assert!(fct_us < 200, "FCT {fct_us}us unreasonably slow");
        assert_eq!(engine.stats.counters.total_drops(), 0);
    }

    #[test]
    fn reps_transport_completes_and_recycles() {
        let mut engine = build_engine(LbKind::Reps(RepsConfig::default()), 2);
        engine.stats.expected_flows = 1;
        start(&mut engine, 0, 3, 90, 4 << 20);
        assert!(engine.run_to_completion(Time::from_ms(10)));
        assert_eq!(engine.stats.counters.retransmissions, 0);
    }

    #[test]
    fn several_concurrent_flows_all_complete() {
        let mut engine = build_engine(OPS, 3);
        engine.stats.expected_flows = 8;
        for i in 0..8 {
            start(&mut engine, i, i, 64 + i, 256 << 10);
        }
        assert!(engine.run_to_completion(Time::from_ms(10)));
        assert_eq!(engine.stats.flows.len(), 8);
    }

    #[test]
    fn incast_completes_under_congestion() {
        let mut engine = build_engine(OPS, 4);
        engine.stats.expected_flows = 8;
        // 8:1 incast into host 0.
        for i in 0..8 {
            start(&mut engine, i, 16 + i, 0, 1 << 20);
        }
        assert!(engine.run_to_completion(Time::from_ms(50)));
        // The receiver downlink is the bottleneck: ECN marks must appear.
        assert!(engine.stats.counters.ecn_marks > 0);
    }

    #[test]
    fn link_failure_triggers_timeouts_and_retransmissions() {
        let mut engine = build_engine(OPS, 5);
        engine.stats.expected_flows = 1;
        // Fail one ToR uplink pair 20 us in, forever.
        let pairs = engine.topo.tor_uplink_pairs(netsim::ids::SwitchId(0));
        let (up, down) = pairs[0];
        engine.schedule_control(Time::from_us(20), ControlEvent::LinkDown(up));
        engine.schedule_control(Time::from_us(20), ControlEvent::LinkDown(down));
        start(&mut engine, 0, 0, 64, 8 << 20);
        assert!(
            engine.run_to_completion(Time::from_ms(100)),
            "flow must survive a single uplink failure"
        );
        assert!(engine.stats.counters.drops_link_down > 0);
        assert!(engine.stats.counters.retransmissions > 0);
        assert!(engine.stats.counters.timeouts > 0);
    }

    #[test]
    fn reps_loses_fewer_packets_than_ops_under_failure() {
        // The paper's headline failure claim, in miniature: with a mid-run
        // uplink failure, REPS (freezing) must suffer far fewer blackhole
        // drops than OPS.
        let mut drops = Vec::new();
        for lb in [OPS, LbKind::Reps(RepsConfig::default())] {
            let mut engine = build_engine(lb, 6);
            engine.stats.expected_flows = 1;
            let pairs = engine.topo.tor_uplink_pairs(netsim::ids::SwitchId(0));
            let (up, down) = pairs[0];
            engine.schedule_control(Time::from_us(30), ControlEvent::LinkDown(up));
            engine.schedule_control(Time::from_us(30), ControlEvent::LinkDown(down));
            start(&mut engine, 0, 0, 64, 16 << 20);
            assert!(engine.run_to_completion(Time::from_ms(100)));
            drops.push(engine.stats.counters.drops_link_down);
        }
        assert!(
            drops[1] * 2 < drops[0],
            "REPS drops {} not well below OPS drops {}",
            drops[1],
            drops[0]
        );
    }

    #[test]
    fn traced_run_records_the_failure_reaction_story() {
        use netsim::trace::{EvDecision, Recorder, TraceEvent as TE};
        let reps = tcfg(LbKind::Reps(RepsConfig::default()));
        let mut engine = engine_with(16, 6, reps, Recorder::new());
        engine.stats.expected_flows = 1;
        let pairs = engine.topo.tor_uplink_pairs(netsim::ids::SwitchId(0));
        let (up, down) = pairs[0];
        engine.schedule_control(Time::from_us(30), ControlEvent::LinkDown(up));
        engine.schedule_control(Time::from_us(30), ControlEvent::LinkDown(down));
        start(&mut engine, 0, 0, 64, 16 << 20);
        assert!(engine.run_to_completion(Time::from_ms(100)));
        let events = &engine.trace.events;
        let has = |f: &dyn Fn(&TE) -> bool| events.iter().any(f);
        assert!(has(&|e| matches!(e, TE::PathChoice { .. })));
        assert!(has(&|e| matches!(
            e,
            TE::EvChoice {
                decision: EvDecision::Recycled,
                ..
            }
        )));
        assert!(has(&|e| matches!(e, TE::LinkDown { .. })));
        assert!(has(&|e| matches!(e, TE::Timeout { .. })));
        assert!(has(&|e| matches!(e, TE::Freeze { .. })));
        assert!(has(&|e| matches!(e, TE::Retransmit { .. })));
        assert!(has(&|e| matches!(e, TE::Reorder { .. })));
        // Emission order is simulation order.
        assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
        // And the decision counters agree with the recorded choices.
        let ep = engine.endpoint(HostId(0)).unwrap();
        let mut diag = Vec::new();
        ep.lb_diagnostics(&mut diag);
        let recycled = diag
            .iter()
            .find(|(n, _)| *n == "reps_recycled_draws")
            .map(|(_, v)| *v)
            .unwrap();
        let recorded = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TE::EvChoice {
                        decision: EvDecision::Recycled,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(recycled, recorded);
    }

    #[test]
    fn eqds_credit_flow_completes() {
        let eqds = tcfg(OPS).with_cc(crate::cc::CcKind::Eqds);
        let mut engine = engine_with(16, 7, eqds, NoTrace);
        engine.stats.expected_flows = 1;
        start(&mut engine, 0, 0, 64, 4 << 20);
        assert!(
            engine.run_to_completion(Time::from_ms(20)),
            "EQDS flow stalled: speculative window or credits broken"
        );
    }

    #[test]
    fn coalesced_acks_reduce_control_traffic() {
        let mut ctrl = Vec::new();
        for ratio in [1u32, 8] {
            let plain = crate::config::CoalesceVariant::Plain;
            let coalesced = tcfg(OPS).with_coalesce(CoalesceConfig::ratio(ratio, plain));
            let mut engine = engine_with(16, 8, coalesced, NoTrace);
            engine.stats.expected_flows = 1;
            start(&mut engine, 0, 0, 64, 4 << 20);
            assert!(engine.run_to_completion(Time::from_ms(20)));
            ctrl.push(engine.stats.counters.ctrl_tx);
        }
        assert!(
            ctrl[1] * 4 < ctrl[0],
            "8:1 coalescing sent {} control packets vs {} at 1:1",
            ctrl[1],
            ctrl[0]
        );
    }

    #[test]
    fn scheduled_messages_keep_time_order_and_fifo_among_equal_starts() {
        let link_bps = SimConfig::paper_default().link_bps;
        let mut ep = HostEndpoint::new(HostId(0), 64, link_bps, tcfg(LbKind::Ecmp));
        // (start in us, flow): out of time order, with three-way ties.
        let calls = [
            (30, 0),
            (10, 1),
            (30, 2),
            (20, 3),
            (10, 4),
            (30, 5),
            (10, 6),
        ];
        for (us, flow) in calls {
            ep.schedule_message(
                Time::from_us(us),
                MessageSpec {
                    flow: FlowId(flow),
                    dst: HostId(16),
                    bytes: 1,
                    tag: 0,
                },
            );
        }
        let order: Vec<(u64, u32)> = ep
            .schedule
            .iter()
            .map(|(t, spec)| (t.as_ps() / 1_000_000, spec.flow.0))
            .collect();
        assert_eq!(
            order,
            [
                (10, 1),
                (10, 4),
                (10, 6),
                (20, 3),
                (30, 0),
                (30, 2),
                (30, 5)
            ],
            "starts in time order, call order among equal times"
        );
    }

    #[test]
    fn scheduled_messages_start_at_their_times() {
        let mut engine = engine_with(8, 9, tcfg(OPS), NoTrace);
        let (n, link_bps) = (engine.topo.n_hosts, engine.cfg.link_bps);
        let mut ep = HostEndpoint::new(HostId(0), n, link_bps, tcfg(OPS));
        let spec = MessageSpec {
            flow: FlowId(0),
            dst: HostId(16),
            bytes: 64 << 10,
            tag: 0,
        };
        ep.schedule_message(Time::from_us(50), spec);
        engine.set_endpoint(HostId(0), ep);
        engine.schedule_control(Time::ZERO, ControlEvent::HostStart(HostId(0)));
        engine.stats.expected_flows = 1;
        assert!(engine.run_to_completion(Time::from_ms(5)));
        let rec = &engine.stats.flows[0];
        assert_eq!(
            rec.start,
            Time::from_us(50),
            "FCT origin is the scheduled start"
        );
    }

    #[test]
    fn receive_trigger_chains_messages_across_hosts() {
        // Host 0 sends to host 16; when host 16 receives it, it sends to 32.
        let mut engine = engine_with(16, 10, tcfg(OPS), NoTrace);
        let (n, link_bps) = (engine.topo.n_hosts, engine.cfg.link_bps);
        let mut ep = HostEndpoint::new(HostId(16), n, link_bps, tcfg(OPS));
        let spec = MessageSpec {
            flow: FlowId(1),
            dst: HostId(32),
            bytes: 128 << 10,
            tag: 78,
        };
        ep.trigger_on_receive(77, spec);
        engine.set_endpoint(HostId(16), ep);
        engine.stats.expected_flows = 2;
        engine.command(
            HostId(0),
            Command::StartMessage(MessageSpec {
                flow: FlowId(0),
                dst: HostId(16),
                bytes: 128 << 10,
                tag: 77,
            }),
        );
        assert!(engine.run_to_completion(Time::from_ms(10)));
        let by_flow: std::collections::BTreeMap<u32, &netsim::stats::FlowRecord> =
            engine.stats.flows.iter().map(|f| (f.flow.0, f)).collect();
        assert!(
            by_flow[&1].start >= by_flow[&0].end - Time::from_us(5),
            "chained flow must not start before the first finishes arriving"
        );
    }
}
