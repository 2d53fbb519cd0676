//! Per-connection sender and receiver state machines.
//!
//! A connection is one `(source host, destination host)` pair carrying a
//! stream of application messages. The sender owns the load balancer, the
//! congestion controller, the in-flight table and the retransmission state;
//! the receiver owns the out-of-order tracker and the ACK coalescer.
//!
//! Each fact is stored once. The sender keeps its messages, one in-flight
//! record per unacknowledged sequence (send time, entropy, retransmission
//! flag), the queue of sequences to retransmit and the set the receiver
//! confirmed; a sequence's message, offset and payload size follow from its
//! number, and a queued retransmission is stale exactly when confirmed.
//! The cell's parameters (MTU, RTO, coalescing, LB and CC blocks) are read
//! from the one shared [`TransportConfig`] the host passes in.

use std::collections::VecDeque;

use baselines::kind::{Lb, WithParams};
use netsim::engine::Ctx;
use netsim::ids::{ConnId, FlowId, HostId};
use netsim::packet::{Ack, Body, EchoList, EvEcho, Packet, SeqList, SmallList};
use netsim::stats::FlowRecord;
use netsim::time::Time;
use netsim::trace::{TraceEvent, TraceSink};
use reps::lb::{AckFeedback, LoadBalancer};
use reps::reps::RepsCounters;

use crate::cc::{Cc, CongestionControl};
use crate::config::{CoalesceConfig, CoalesceVariant, TransportConfig};
use crate::sack::OooTracker;

/// One queued/active application message at the sender.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsgState {
    /// Flow id reported in the completion record.
    pub flow: FlowId,
    /// Workload tag (carried on the wire for receive-side triggers).
    pub tag: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Total packets.
    pub pkts: u32,
    /// Next packet index to transmit for the first time.
    pub next_pkt: u32,
    /// Packets acknowledged so far.
    pub acked: u32,
    /// Enqueue instant (FCT measurement origin).
    pub enqueued_at: Time,
    /// First sequence number of the message in the connection space.
    pub base_seq: u64,
}

impl MsgState {
    /// The payload of packet `msg_seq` in `mtu`-byte packets (the last one
    /// may be short).
    fn payload(&self, msg_seq: u32, mtu: u32) -> u32 {
        let full = mtu as u64;
        (self.bytes - msg_seq as u64 * full).min(full) as u32
    }
}

/// The message owning connection sequence `seq` and `seq`'s packet index
/// within it. Messages are appended with increasing `base_seq`.
fn msg_of_seq(msgs: &[MsgState], seq: u64) -> (usize, u32) {
    let idx = msgs.partition_point(|m| m.base_seq <= seq) - 1;
    (idx, (seq - msgs[idx].base_seq) as u32)
}

/// The payload `seq` is sent with: what an ACK, NACK or timeout takes back
/// off the in-flight byte count.
fn payload_of(msgs: &[MsgState], seq: u64, mtu: u32) -> u32 {
    let (idx, msg_seq) = msg_of_seq(msgs, seq);
    msgs[idx].payload(msg_seq, mtu)
}

/// What the sender keeps about one unacknowledged packet beyond its
/// sequence number.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    sent_at: Time,
    ev: u16,
    retx: bool,
}

/// A sliding window of per-sequence entries, indexed by `seq − base`.
///
/// The sender's in-flight table. Sequences enter in nearly ascending
/// order and leave as ACKs arrive, so the live set is a short, dense run:
/// a deque slot per sequence between the oldest and the newest entry
/// costs one indexed access where a hash map paid a hash, a probe and a
/// heap block of its own. The window grows at the front when an entry
/// re-enters below `base` (a retransmission of a sequence older than
/// everything in flight), and leading holes are popped as entries leave,
/// so the span is bounded by the packets sent within one RTO. Slot order
/// *is* ascending `seq`.
#[derive(Debug)]
pub struct SeqWindow<T> {
    /// Sequence number of `slots[0]`, which is occupied unless the
    /// window is empty.
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> SeqWindow<T> {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> SeqWindow<T> {
    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Files `value` under `seq`, returning the entry it replaced.
    pub fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = seq;
        }
        while seq < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let idx = (seq - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].replace(value)
    }

    /// Removes and returns the entry under `seq`, if any.
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        let idx = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(idx)?.take();
        self.pop_leading_holes();
        value
    }

    /// Removes every entry `expired` accepts, in ascending `seq`, handing
    /// each to `each`.
    pub fn remove_where(
        &mut self,
        mut expired: impl FnMut(&T) -> bool,
        mut each: impl FnMut(u64, T),
    ) {
        for (seq, slot) in (self.base..).zip(self.slots.iter_mut()) {
            if slot.as_ref().is_some_and(&mut expired) {
                each(seq, slot.take().expect("checked occupied"));
            }
        }
        self.pop_leading_holes();
    }

    /// The entries in ascending `seq`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(seq, slot)| slot.as_ref().map(|v| (seq, v)))
    }

    /// Restores the invariant that a non-empty window starts occupied.
    /// An all-holes window empties completely.
    fn pop_leading_holes(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// What a host drives its senders with besides their own state: the
/// cell's configuration, whose LB and CC parameter blocks every sender
/// reads, the host's REPS decision counters and the host's scratch buffer.
pub struct SenderEnv<'a> {
    /// The cell's transport parameters.
    pub cfg: &'a TransportConfig,
    /// The host's REPS decision counters.
    pub reps: &'a mut RepsCounters,
    /// Scratch for the sequences an ACK newly confirms
    /// ([`SenderConn::on_ack`]), whose retained capacity keeps the
    /// per-packet ACK path allocation-free.
    pub newly_acked: &'a mut Vec<u64>,
}

/// `lb`, connection `conn`'s balancer, paired with the cell's scheme for
/// the connection's traffic class and the host's counters.
fn balancer<'a>(lb: &'a mut Lb, conn: ConnId, env: &'a mut SenderEnv<'_>) -> WithParams<'a> {
    lb.with(env.cfg.lb_for(conn.0 & 1 == 1), env.reps)
}

/// The sending half of a connection.
pub struct SenderConn {
    /// Connection id carried in packet headers.
    pub conn: ConnId,
    /// Peer host.
    pub dst: HostId,
    /// Path selector, inline.
    pub lb: Lb,
    /// Window/credit controller.
    pub cc: Cc,
    /// The messages, the first inline: most connections carry one.
    msgs: SmallList<MsgState, 1>,
    /// Index of the first message with unsent packets.
    cursor: usize,
    inflight: SeqWindow<Inflight>,
    inflight_bytes: u64,
    /// Sequences declared lost, in retransmission order. An entry whose
    /// sequence was confirmed since is stale and skipped.
    retx_queue: VecDeque<u64>,
    /// Every sequence the receiver confirmed, independent of whether the
    /// confirmation raced a timeout (prevents crediting a packet twice or —
    /// worse — never, when an ACK overtakes its own loss declaration).
    acked: OooTracker,
    next_seq: u64,
    srtt: Time,
    /// Total retransmissions (instrumentation + flow records).
    pub total_retx: u64,
    /// Bytes not yet transmitted for the first time.
    unsent_bytes: u64,
}

impl SenderConn {
    /// Creates a sender for `dst`.
    pub fn new(conn: ConnId, dst: HostId, lb: Lb, cc: Cc, cfg: &TransportConfig) -> SenderConn {
        SenderConn {
            conn,
            dst,
            lb,
            cc,
            msgs: SmallList::new(),
            cursor: 0,
            inflight: SeqWindow::default(),
            inflight_bytes: 0,
            retx_queue: VecDeque::new(),
            acked: OooTracker::new(),
            next_seq: 0,
            srtt: cfg.base_rtt,
            total_retx: 0,
            unsent_bytes: 0,
        }
    }

    /// Enqueues a message, cut into `mtu`-byte packets (the cell's); call
    /// [`SenderConn::pump`] afterwards.
    pub fn enqueue(&mut self, flow: FlowId, tag: u64, bytes: u64, mtu: u32, now: Time) {
        let pkts = bytes.div_ceil(mtu as u64).max(1) as u32;
        let base_seq = self.next_seq;
        self.next_seq += pkts as u64;
        self.unsent_bytes += bytes;
        self.msgs.push(MsgState {
            flow,
            tag,
            bytes,
            pkts,
            next_pkt: 0,
            acked: 0,
            enqueued_at: now,
            base_seq,
        });
    }

    /// True when nothing remains to send or await.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty()
            && self.retx_queue.is_empty()
            && self.msgs.iter().all(|m| m.acked == m.pkts)
    }

    /// Bytes currently in flight (instrumentation).
    pub fn inflight_bytes(&self) -> u64 {
        self.inflight_bytes
    }

    /// Transmits as much as the window/credits allow.
    pub fn pump<S: TraceSink>(&mut self, env: &mut SenderEnv<'_>, ctx: &mut Ctx<'_, S>) {
        let mtu = ctx.cfg.mtu_bytes;
        // One look at where the message list lives, not one per access.
        let msgs: &mut [MsgState] = &mut self.msgs;
        loop {
            // Pick what to send: retransmissions first.
            let (seq, msg_idx, msg_seq, retx) = if let Some(&seq) = self.retx_queue.front() {
                if self.acked.contains(seq) {
                    // Stale entry (acked since): drop and continue.
                    self.retx_queue.pop_front();
                    continue;
                }
                let (msg_idx, msg_seq) = msg_of_seq(msgs, seq);
                (seq, msg_idx, msg_seq, true)
            } else {
                // Advance the cursor past fully-sent messages.
                while self.cursor < msgs.len()
                    && msgs[self.cursor].next_pkt >= msgs[self.cursor].pkts
                {
                    self.cursor += 1;
                }
                if self.cursor >= msgs.len() {
                    break;
                }
                let msg = &msgs[self.cursor];
                (
                    msg.base_seq + msg.next_pkt as u64,
                    self.cursor,
                    msg.next_pkt,
                    false,
                )
            };
            let payload = msgs[msg_idx].payload(msg_seq, mtu);

            // Admission: credits (EQDS) or window (everything else).
            let admitted = match self.cc.as_eqds_mut() {
                Some(eqds) => eqds.consume(payload as u64),
                None => self.inflight_bytes + payload as u64 <= self.cc.cwnd(&env.cfg.cc_params),
            };
            if !admitted {
                break;
            }

            // Commit the choice.
            if retx {
                self.retx_queue.pop_front();
                self.total_retx += 1;
                ctx.note_retransmission();
            } else {
                msgs[self.cursor].next_pkt += 1;
                self.unsent_bytes -= payload as u64;
            }

            // The freeze-state probes and the event build live behind
            // `enabled()`: with `NoTrace` the whole block (including the
            // `is_frozen` calls) folds away, keeping the untraced
            // send path identical to the pre-trace one.
            let mut lb = balancer(&mut self.lb, self.conn, env);
            let frozen_before = ctx.trace.enabled() && lb.is_frozen();
            let ev = lb.next_ev(ctx.now, ctx.rng);
            if ctx.trace.enabled() {
                let frozen = lb.is_frozen();
                if frozen != frozen_before {
                    // `next_ev` itself can freeze (forced freezing) or thaw
                    // (send-path freezing expiry).
                    let transition = if frozen {
                        TraceEvent::Freeze {
                            at: ctx.now,
                            host: ctx.host,
                            conn: self.conn.0,
                        }
                    } else {
                        TraceEvent::Thaw {
                            at: ctx.now,
                            host: ctx.host,
                            conn: self.conn.0,
                        }
                    };
                    ctx.trace.emit(transition);
                }
                ctx.trace.emit(TraceEvent::EvChoice {
                    at: ctx.now,
                    host: ctx.host,
                    conn: self.conn.0,
                    ev,
                    decision: lb.last_decision(),
                    frozen,
                });
                if retx {
                    ctx.trace.emit(TraceEvent::Retransmit {
                        at: ctx.now,
                        host: ctx.host,
                        conn: self.conn.0,
                        seq,
                        ev,
                    });
                }
            }
            let msg_state = &msgs[msg_idx];
            let pkt = Packet {
                id: ctx.fresh_packet_id(),
                src: ctx.host,
                dst: self.dst,
                conn: self.conn,
                ev,
                wire_bytes: payload + netsim::packet::HEADER_BYTES,
                ecn_ce: false,
                trimmed: false,
                body: Body::Data {
                    seq,
                    msg: msg_idx as u32,
                    msg_seq,
                    msg_pkts: msg_state.pkts,
                    tag: msg_state.tag,
                    payload,
                    retx,
                    pending: self.unsent_bytes,
                },
            };
            self.inflight.insert(
                seq,
                Inflight {
                    sent_at: ctx.now,
                    ev,
                    retx,
                },
            );
            self.inflight_bytes += payload as u64;
            ctx.send(pkt);
        }
    }

    /// Processes an ACK: reports every message it completes to `ctx` and
    /// returns their tags (sender-side chaining), inline unless more than
    /// three complete at once.
    pub fn on_ack<S: TraceSink>(
        &mut self,
        ack: &Ack,
        env: &mut SenderEnv<'_>,
        ctx: &mut Ctx<'_, S>,
    ) -> SmallList<u64, 3> {
        let now = ctx.now;
        let mut completed_tags = SmallList::new();
        let newly_acked = &mut *env.newly_acked;
        newly_acked.clear();

        // Record every confirmed sequence exactly once, whether it is still
        // in flight, already declared lost, or long since retired.
        for &seq in &ack.sacked {
            if self.acked.record(seq) {
                newly_acked.push(seq);
            }
        }
        // The cumulative prefix confirms everything below it. The tracker's
        // frontier bit can never be already set, so this loop always makes
        // progress.
        while self.acked.cum_ack() < ack.cum_ack {
            let frontier = self.acked.cum_ack();
            if self.acked.record(frontier) {
                newly_acked.push(frontier);
            }
        }

        // A confirmed sequence also cancels its pending retransmission:
        // `pump` skips queue entries `acked` holds.
        let mtu = ctx.cfg.mtu_bytes;
        let mut acked_bytes = 0u64;
        let msgs: &mut [MsgState] = &mut self.msgs;
        for &seq in newly_acked.iter() {
            let (msg_idx, msg_seq) = msg_of_seq(msgs, seq);
            if let Some(info) = self.inflight.remove(seq) {
                let payload = msgs[msg_idx].payload(msg_seq, mtu) as u64;
                self.inflight_bytes -= payload;
                acked_bytes += payload;
                // RTT sample (Karn's rule: skip retransmissions).
                if !info.retx {
                    let sample = now.saturating_sub(info.sent_at);
                    // srtt = 7/8 srtt + 1/8 sample.
                    self.srtt = Time((self.srtt.as_ps() * 7 + sample.as_ps()) / 8);
                }
            }
            // `acked` hands out each sequence once, so a message reaches
            // its packet count exactly once.
            let msg = &mut msgs[msg_idx];
            msg.acked += 1;
            if msg.acked == msg.pkts {
                ctx.complete_flow(FlowRecord {
                    flow: msg.flow,
                    src: ctx.host,
                    dst: self.dst,
                    bytes: msg.bytes,
                    start: msg.enqueued_at,
                    end: now,
                    retransmissions: self.total_retx,
                });
                completed_tags.push(msg.tag);
            }
        }

        // Congestion control sees the aggregate covering information.
        let p = &env.cfg.cc_params;
        self.cc
            .on_ack(p, acked_bytes, ack.covered, ack.marked, self.srtt, now);

        // Load-balancer feedback, entropy by entropy.
        let cwnd_packets = (self.cc.cwnd(p) / mtu.max(1) as u64).max(1) as u32;
        let mut lb = balancer(&mut self.lb, self.conn, env);
        let frozen_before = ctx.trace.enabled() && lb.is_frozen();
        for echo in &ack.echoes {
            let fb = AckFeedback {
                ev: echo.ev,
                ecn: echo.ecn,
                now,
                cwnd_packets,
                rtt: self.srtt,
            };
            for _ in 0..ack.reuse.max(1) {
                lb.on_ack(&fb, ctx.rng);
            }
        }
        // ACK feedback can only thaw (freezing-window expiry, §3.2).
        if frozen_before && !lb.is_frozen() {
            ctx.trace.emit(TraceEvent::Thaw {
                at: now,
                host: ctx.host,
                conn: self.conn.0,
            });
        }

        self.pump(env, ctx);
        completed_tags
    }

    /// Handles a trimming NACK for `seq` (congestion loss, not failure).
    pub fn on_nack<S: TraceSink>(
        &mut self,
        seq: u64,
        env: &mut SenderEnv<'_>,
        ctx: &mut Ctx<'_, S>,
    ) {
        if let Some(info) = self.inflight.remove(seq) {
            self.inflight_bytes -= payload_of(&self.msgs, seq, ctx.cfg.mtu_bytes) as u64;
            self.retx_queue.push_front(seq);
            self.cc.on_trim(&env.cfg.cc_params, ctx.now);
            balancer(&mut self.lb, self.conn, env).on_congestion_loss(info.ev, ctx.now);
        }
        self.pump(env, ctx);
    }

    /// Declares every packet older than the cell's RTO lost. Returns the
    /// number of packets declared lost (0 = no timeout fired).
    pub fn check_timeouts<S: TraceSink>(
        &mut self,
        env: &mut SenderEnv<'_>,
        ctx: &mut Ctx<'_, S>,
    ) -> usize {
        let now = ctx.now;
        let (rto, mtu, cc_params) = (ctx.cfg.rto, ctx.cfg.mtu_bytes, &env.cfg.cc_params);
        // The window hands the expired packets over in ascending `seq`:
        // the retransmission queue (and with it every subsequent EV draw)
        // is the same in every process.
        let mut expired = 0usize;
        let SenderConn {
            msgs,
            inflight,
            inflight_bytes,
            retx_queue,
            cc,
            ..
        } = self;
        inflight.remove_where(
            |i| now.saturating_sub(i.sent_at) >= rto,
            |seq, _| {
                *inflight_bytes -= payload_of(msgs, seq, mtu) as u64;
                retx_queue.push_back(seq);
                cc.on_loss(cc_params, now);
                expired += 1;
            },
        );
        if expired == 0 {
            return 0;
        }
        // One failure-suspicion signal per timeout event (Algorithm 1).
        let mut lb = balancer(&mut self.lb, self.conn, env);
        let frozen_before = ctx.trace.enabled() && lb.is_frozen();
        lb.on_timeout(now);
        if ctx.trace.enabled() {
            ctx.trace.emit(TraceEvent::Timeout {
                at: now,
                host: ctx.host,
                conn: self.conn.0,
                expired: expired as u32,
            });
            if !frozen_before && lb.is_frozen() {
                ctx.trace.emit(TraceEvent::Freeze {
                    at: now,
                    host: ctx.host,
                    conn: self.conn.0,
                });
            }
        }
        ctx.note_timeout();
        self.pump(env, ctx);
        expired
    }
}

/// The receiving half of a connection.
pub struct ReceiverConn {
    /// Peer (sending) host.
    pub peer: HostId,
    /// Connection id (mirrored from the sender).
    pub conn: ConnId,
    tracker: OooTracker,
    /// `(received, total)` packets per message, indexed by the sender's
    /// dense per-connection message index; `(0, 0)` = not seen yet. The
    /// first is inline.
    msgs: SmallList<(u32, u32), 1>,
    /// The next ACK's echoes: every observation's under *Carry EVs*, the
    /// newest one's otherwise.
    pend_echoes: EchoList,
    /// The next ACK's SACKed sequences, duplicates included.
    pend_sacked: SeqList,
    pend_covered: u32,
    pend_marked: u32,
    /// Time of the oldest un-flushed observation.
    pend_since: Time,
    /// Sender's advertised unsent bytes (EQDS demand).
    pub demand_bytes: u64,
}

/// Result of receiving one data packet.
#[derive(Debug, Default)]
pub struct RecvOutcome {
    /// An ACK to send back, if the coalescing policy released one.
    pub ack: Option<Ack>,
    /// Tag of a message that just became fully received.
    pub completed_tag: Option<u64>,
    /// An immediate NACK for a trimmed packet.
    pub nack_seq: Option<u64>,
}

impl ReceiverConn {
    /// Creates a receiver for traffic from `peer`.
    pub fn new(peer: HostId, conn: ConnId) -> ReceiverConn {
        ReceiverConn {
            peer,
            conn,
            tracker: OooTracker::new(),
            msgs: SmallList::new(),
            pend_echoes: EchoList::new(),
            pend_sacked: SeqList::new(),
            pend_covered: 0,
            pend_marked: 0,
            pend_since: Time::ZERO,
            demand_bytes: 0,
        }
    }

    /// Ingests one data packet, acknowledging as the cell's `coalesce`
    /// policy says.
    pub fn on_data(&mut self, pkt: &Packet, coalesce: CoalesceConfig, now: Time) -> RecvOutcome {
        let mut out = RecvOutcome::default();
        let Body::Data {
            seq,
            msg,
            msg_pkts,
            tag,
            pending,
            ..
        } = pkt.body
        else {
            return out;
        };
        self.demand_bytes = pending;

        if pkt.trimmed {
            // Payload lost in the fabric: NACK right away so the sender can
            // retransmit without waiting for the RTO (Appendix A).
            out.nack_seq = Some(seq);
            return out;
        }

        let new = self.tracker.record(seq);
        if new {
            let msg = msg as usize;
            if msg >= self.msgs.len() {
                self.msgs.resize(msg + 1, (0, 0));
            }
            let entry = &mut self.msgs[msg];
            if entry.0 == 0 {
                entry.1 = msg_pkts;
            }
            entry.0 += 1;
            if entry.0 == entry.1 {
                out.completed_tag = Some(tag);
            }
            self.pend_covered += 1;
            if pkt.ecn_ce {
                self.pend_marked += 1;
            }
        }
        if self.pend_covered == 1 && self.pend_sacked.is_empty() {
            self.pend_since = now;
        }
        // Echo and SACK even duplicates: the sender needs them to converge.
        let batch = (2 * coalesce.ratio as usize).max(8);
        push_pending(&mut self.pend_sacked, seq, batch);
        if coalesce.variant != CoalesceVariant::CarryEvs {
            self.pend_echoes.clear();
        }
        let echo = EvEcho {
            ev: pkt.ev,
            ecn: pkt.ecn_ce,
        };
        push_pending(&mut self.pend_echoes, echo, batch);

        let flush_now = self.pend_covered >= coalesce.ratio
            || out.completed_tag.is_some()
            || self.pend_sacked.len() >= batch;
        if flush_now {
            out.ack = self.flush(coalesce);
        }
        out
    }

    /// Builds the pending ACK in the shape `coalesce` gives it, if any
    /// observations are waiting.
    pub fn flush(&mut self, coalesce: CoalesceConfig) -> Option<Ack> {
        if self.pend_sacked.is_empty() {
            return None;
        }
        // The pending lists *are* the outgoing ACK's, moved out whole and
        // left empty. They hold their elements inline
        // ([`netsim::packet::SmallList`]): per-packet ACKs, the
        // steady-state hot path, leave here with no heap block, and only a
        // batch wider than the inline lists spills.
        let ack = Ack {
            cum_ack: self.tracker.cum_ack(),
            sacked: std::mem::take(&mut self.pend_sacked),
            echoes: std::mem::take(&mut self.pend_echoes),
            covered: self.pend_covered,
            marked: self.pend_marked,
            reuse: match coalesce.variant {
                CoalesceVariant::ReuseEvs => coalesce.ratio,
                _ => 1,
            },
        };
        self.pend_covered = 0;
        self.pend_marked = 0;
        Some(ack)
    }

    /// Flushes if observations have been pending since before `cutoff`
    /// (the endpoint's delayed-ACK sweep).
    pub fn flush_stale(&mut self, cutoff: Time, coalesce: CoalesceConfig) -> Option<Ack> {
        if !self.pend_sacked.is_empty() && self.pend_since <= cutoff {
            self.flush(coalesce)
        } else {
            None
        }
    }

    /// Receiver-side reorder degree (diagnostics).
    pub fn out_of_order_count(&self) -> u32 {
        self.tracker.out_of_order_count()
    }
}

/// Appends to a pending-ACK list, which a flush empties before it passes
/// `batch` entries. A list outgrowing its inline storage spills once, with
/// room for the whole batch: each flush hands the block to the ACK, so a
/// block grown by doubling would be regrown for every wide ACK.
fn push_pending<T: Copy + Default, const N: usize>(
    list: &mut SmallList<T, N>,
    item: T,
    batch: usize,
) {
    if list.len() == list.capacity() {
        list.reserve(batch.saturating_sub(list.len()));
    }
    list.push(item);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcKind, CcParams};
    use baselines::kind::LbKind;
    use netsim::config::SimConfig;
    use netsim::engine::{Command, Endpoint, Engine};
    use netsim::topology::{FatTreeConfig, Topology};
    use netsim::trace::Recorder;

    fn test_cfg() -> TransportConfig {
        TransportConfig::from_sim(
            &SimConfig::paper_default(),
            4,
            LbKind::Ops { evs_size: 1 << 16 },
        )
    }

    /// Data packet `seq` of message `msg`, which has `msg_pkts` packets.
    fn data(seq: u64, msg: u32, msg_pkts: u32) -> Packet {
        let body = Body::Data {
            seq,
            msg,
            msg_seq: 0,
            msg_pkts,
            tag: 9,
            payload: 4096,
            retx: false,
            pending: 0,
        };
        Packet::control(seq, HostId(0), HostId(1), ConnId(0), seq as u16, body)
    }

    fn recv_data(
        rx: &mut ReceiverConn,
        coalesce: CoalesceConfig,
        seq: u64,
        total: u32,
        ecn: bool,
        now: Time,
    ) -> RecvOutcome {
        let mut pkt = data(seq, 0, total);
        pkt.ecn_ce = ecn;
        rx.on_data(&pkt, coalesce, now)
    }

    #[test]
    fn receiver_acks_every_packet_at_ratio_1() {
        let c = CoalesceConfig::per_packet();
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        for seq in 0..5 {
            let out = recv_data(&mut rx, c, seq, 100, false, Time::from_us(seq));
            let ack = out.ack.expect("per-packet ACK");
            assert_eq!(ack.covered, 1);
            assert_eq!(ack.sacked.as_slice(), &[seq]);
            assert_eq!(ack.cum_ack, seq + 1);
            assert_eq!(ack.echoes.len(), 1);
            assert_eq!(ack.reuse, 1);
        }
    }

    #[test]
    fn receiver_coalesces_at_ratio_4() {
        let c = CoalesceConfig::ratio(4, CoalesceVariant::Plain);
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        for seq in 0..3 {
            assert!(recv_data(&mut rx, c, seq, 100, false, Time::from_us(seq))
                .ack
                .is_none());
        }
        let out = recv_data(&mut rx, c, 3, 100, true, Time::from_us(3));
        let ack = out.ack.expect("4th packet releases the ACK");
        assert_eq!(ack.covered, 4);
        assert_eq!(ack.marked, 1);
        assert_eq!(ack.echoes.len(), 1, "plain coalescing echoes the newest EV");
    }

    #[test]
    fn carry_evs_returns_all_echoes() {
        let c = CoalesceConfig::ratio(4, CoalesceVariant::CarryEvs);
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        for seq in 0..3 {
            recv_data(&mut rx, c, seq, 100, false, Time::from_us(seq));
        }
        let ack = recv_data(&mut rx, c, 3, 100, false, Time::from_us(3))
            .ack
            .expect("ack");
        assert_eq!(ack.echoes.len(), 4);
        assert_eq!(ack.reuse, 1);
    }

    #[test]
    fn reuse_evs_sets_reuse_count() {
        let c = CoalesceConfig::ratio(8, CoalesceVariant::ReuseEvs);
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        for seq in 0..7 {
            recv_data(&mut rx, c, seq, 100, false, Time::from_us(seq));
        }
        let ack = recv_data(&mut rx, c, 7, 100, false, Time::from_us(7))
            .ack
            .expect("ack");
        assert_eq!(ack.echoes.len(), 1);
        assert_eq!(ack.reuse, 8);
    }

    #[test]
    fn message_completion_flushes_and_reports_tag() {
        let c = CoalesceConfig::ratio(16, CoalesceVariant::Plain);
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        let mut tag = None;
        for seq in 0..3 {
            let out = recv_data(&mut rx, c, seq, 3, false, Time::from_us(seq));
            if out.completed_tag.is_some() {
                tag = out.completed_tag;
                assert!(out.ack.is_some(), "completion must flush the ACK");
            }
        }
        assert_eq!(tag, Some(9));
    }

    #[test]
    fn trimmed_packets_nack_without_recording() {
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        let mut pkt = data(0, 0, 10);
        pkt.trim();
        let out = rx.on_data(&pkt, CoalesceConfig::per_packet(), Time::from_us(1));
        assert_eq!(out.nack_seq, Some(0));
        assert!(out.ack.is_none());
        assert_eq!(rx.tracker.cum_ack(), 0, "trimmed payload is not received");
    }

    #[test]
    fn stale_flush_releases_partial_batch() {
        let c = CoalesceConfig::ratio(16, CoalesceVariant::Plain);
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        recv_data(&mut rx, c, 0, 100, false, Time::from_us(10));
        assert!(
            rx.flush_stale(Time::from_us(5), c).is_none(),
            "not stale yet"
        );
        let ack = rx.flush_stale(Time::from_us(10), c).expect("stale now");
        assert_eq!(ack.covered, 1);
    }

    /// One step of a receiver script: data packet `seq` (its EV is `seq`)
    /// arriving at `us` microseconds, CE-marked or not, or a delayed-ACK
    /// sweep releasing batches pending since `cutoff` microseconds.
    #[derive(Clone, Copy)]
    enum Step {
        Data { seq: u64, us: u64, ecn: bool },
        Sweep { cutoff: u64 },
    }

    /// An ACK as `c<cum> s<sacked> e<echoed EVs, * = CE> <covered>/<marked>
    /// r<reuse>`.
    fn render(ack: &Ack) -> String {
        let echoes: Vec<String> = ack
            .echoes
            .iter()
            .map(|e| format!("{}{}", e.ev, if e.ecn { "*" } else { "" }))
            .collect();
        format!(
            "c{} s{:?} e[{}] {}/{} r{}",
            ack.cum_ack,
            ack.sacked.as_slice(),
            echoes.join(","),
            ack.covered,
            ack.marked,
            ack.reuse
        )
    }

    /// Runs `script` through one receiver under `coalesce`, returning each
    /// step's index with the ACK it released.
    fn acks_of(coalesce: CoalesceConfig, script: &[Step]) -> Vec<(usize, String)> {
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        let mut acks = Vec::new();
        for (i, &step) in script.iter().enumerate() {
            let ack = match step {
                Step::Data { seq, us, ecn } => {
                    recv_data(&mut rx, coalesce, seq, 100, ecn, Time::from_us(us)).ack
                }
                Step::Sweep { cutoff } => rx.flush_stale(Time::from_us(cutoff), coalesce),
            };
            acks.extend(ack.map(|ack| (i, render(&ack))));
        }
        acks
    }

    /// Reordering, CE marks and duplicates, with sweeps between: batches
    /// wider than the ACK's inline lists, a batch a duplicate opens, and
    /// eight duplicates in a row.
    fn receiver_script() -> Vec<Step> {
        let data = |seq, us, ecn| Step::Data { seq, us, ecn };
        let mut script = vec![
            data(0, 1, false),
            data(2, 2, true),
            data(1, 3, false),
            data(1, 4, false),
            data(4, 5, false),
            data(3, 6, true),
            data(6, 7, false),
            Step::Sweep { cutoff: 6 },
            data(6, 20, false),
            Step::Sweep { cutoff: 10 },
            data(5, 21, false),
            data(7, 22, false),
            Step::Sweep { cutoff: 20 },
            Step::Sweep { cutoff: 21 },
        ];
        script.extend((30..38).map(|us| data(7, us, false)));
        script.push(Step::Sweep { cutoff: 40 });
        script
    }

    /// What every coalescing shape acknowledges, and when, pinned step by
    /// step: the bytes the ACK path puts on the wire.
    #[test]
    fn receiver_ack_contents_and_timing_are_pinned() {
        use CoalesceVariant::{CarryEvs, Plain, ReuseEvs};
        let script = receiver_script();
        let got = |c| acks_of(c, &script);
        let pin = |want: &[(usize, &str)]| -> Vec<(usize, String)> {
            want.iter().map(|&(i, s)| (i, s.to_string())).collect()
        };
        // Per-packet: a duplicate waits for the next new packet (steps 3
        // and 4) or for a sweep (9), and eight in a row flush (21).
        let per_packet = pin(&[
            (0, "c1 s[0] e[0] 1/0 r1"),
            (1, "c1 s[2] e[2*] 1/1 r1"),
            (2, "c3 s[1] e[1] 1/0 r1"),
            (4, "c3 s[1, 4] e[4] 1/0 r1"),
            (5, "c5 s[3] e[3*] 1/1 r1"),
            (6, "c5 s[6] e[6] 1/0 r1"),
            (9, "c5 s[6] e[6] 0/0 r1"),
            (10, "c7 s[5] e[5] 1/0 r1"),
            (11, "c8 s[7] e[7] 1/0 r1"),
            (21, "c8 s[7, 7, 7, 7, 7, 7, 7, 7] e[7] 0/0 r1"),
        ]);
        assert_eq!(got(CoalesceConfig::per_packet()), per_packet);
        // 16:1: only sweeps release, the batch opened at 21 µs not before
        // the 21 µs cutoff (steps 12 and 13).
        let plain = pin(&[
            (7, "c5 s[0, 2, 1, 1, 4, 3, 6] e[6] 6/2 r1"),
            (9, "c5 s[6] e[6] 0/0 r1"),
            (13, "c8 s[5, 7] e[7] 2/0 r1"),
            (22, "c8 s[7, 7, 7, 7, 7, 7, 7, 7] e[7] 0/0 r1"),
        ]);
        assert_eq!(got(CoalesceConfig::ratio(16, Plain)), plain);
        let reuse: Vec<(usize, String)> = plain
            .iter()
            .map(|(i, ack)| (*i, ack.replace(" r1", " r16")))
            .collect();
        assert_eq!(got(CoalesceConfig::ratio(16, ReuseEvs)), reuse);
        let carry = pin(&[
            (7, "c5 s[0, 2, 1, 1, 4, 3, 6] e[0,2*,1,1,4,3*,6] 6/2 r1"),
            (9, "c5 s[6] e[6] 0/0 r1"),
            (13, "c8 s[5, 7] e[5,7] 2/0 r1"),
            (22, "c8 s[7, 7, 7, 7, 7, 7, 7, 7] e[7,7,7,7,7,7,7,7] 0/0 r1"),
        ]);
        assert_eq!(got(CoalesceConfig::ratio(16, CarryEvs)), carry);
    }

    /// A batch whose first observation is a duplicate keeps the previous
    /// batch's `pend_since`: the sweep at the 10 µs cutoff releases the
    /// duplicate that arrived at 20 µs, in every shape (step 9 above).
    /// Pinned as it stands; an ACK timed from the batch's own first
    /// observation would change result bytes.
    #[test]
    fn a_batch_a_duplicate_opens_is_timed_from_the_batch_before() {
        let script = receiver_script();
        let shapes = [
            CoalesceConfig::per_packet(),
            CoalesceConfig::ratio(16, CoalesceVariant::Plain),
        ];
        for c in shapes {
            let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
            for &step in &script[..7] {
                if let Step::Data { seq, us, ecn } = step {
                    recv_data(&mut rx, c, seq, 100, ecn, Time::from_us(us));
                }
            }
            rx.flush_stale(Time::MAX, c);
            assert!(recv_data(&mut rx, c, 6, 100, false, Time::from_us(20))
                .ack
                .is_none());
            assert_eq!(
                rx.pend_since,
                Time::from_us(if c.ratio == 1 { 7 } else { 1 })
            );
            assert!(rx.flush_stale(Time::from_us(10), c).is_some());
        }
    }

    /// The token a [`scripted`] sender's script sees when its host starts.
    const START: u64 = u64::MAX;

    /// Runs host 0's sender to host 1, built on `cc`, for two RTOs, calling
    /// `script` with [`START`] and then with each timer token it sets. Host
    /// 1 has no endpoint: everything sent to it vanishes unACKed.
    fn scripted(
        cc: Cc,
        script: impl FnMut(u64, &mut SenderConn, &mut SenderEnv<'_>, &mut Ctx<'_, Recorder>) + 'static,
    ) -> Engine<Recorder> {
        struct Script<F> {
            tx: SenderConn,
            cfg: TransportConfig,
            reps: RepsCounters,
            newly_acked: Vec<u64>,
            script: F,
        }
        impl<F> Endpoint<Recorder> for Script<F>
        where
            F: FnMut(u64, &mut SenderConn, &mut SenderEnv<'_>, &mut Ctx<'_, Recorder>),
        {
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_, Recorder>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Recorder>) {
                let mut env = SenderEnv {
                    cfg: &self.cfg,
                    reps: &mut self.reps,
                    newly_acked: &mut self.newly_acked,
                };
                (self.script)(token, &mut self.tx, &mut env, ctx);
            }
            fn on_command(&mut self, _cmd: Command, ctx: &mut Ctx<'_, Recorder>) {
                self.on_timer(START, ctx);
            }
        }
        let cfg = test_cfg();
        let topo = Topology::build(FatTreeConfig::two_tier(4, 1), 1);
        let mut engine: Engine<Recorder> =
            Engine::with_trace(topo, SimConfig::paper_default(), 1, Recorder::new());
        let lb = cfg.lb.build(&mut netsim::rng::Rng64::new(1));
        let tx = SenderConn::new(ConnId(0), HostId(1), lb, cc, &cfg);
        let rto = SimConfig::paper_default().rto;
        let reps = RepsCounters::default();
        let script = Script {
            tx,
            cfg,
            reps,
            newly_acked: Vec::new(),
            script,
        };
        engine.set_endpoint(HostId(0), Box::new(script));
        engine.command(HostId(0), Command::Custom(0));
        engine.run_until(rto * 2);
        engine
    }

    /// The sequences `engine`'s trace records retransmitting, in order.
    fn retransmitted(engine: &Engine<Recorder>) -> Vec<u64> {
        let seqs = engine.trace.events.iter().filter_map(|e| match e {
            TraceEvent::Retransmit { seq, .. } => Some(*seq),
            _ => None,
        });
        seqs.collect()
    }

    /// Seq 1 is sent before seq 0's retransmission, so when one RTO sweep
    /// expires both, send order is the reverse of sequence order — and the
    /// retransmission queue must still drain in ascending `seq`, with seq 0
    /// having re-entered the window *below* its base.
    #[test]
    fn packets_timing_out_in_reverse_send_order_retransmit_in_seq_order() {
        const NACK_SEQ0: u64 = 0;
        const RTO_SWEEP: u64 = 1;
        let rto = SimConfig::paper_default().rto;
        let cc = Cc::build(CcKind::Dctcp, CcParams::for_bdp(400_000, 4096));
        let engine = scripted(cc, move |token, tx, env, ctx| match token {
            START => {
                tx.enqueue(FlowId(0), 0, 2 * 4096, ctx.cfg.mtu_bytes, ctx.now);
                tx.pump(env, ctx);
                ctx.set_timer(Time::from_us(5), NACK_SEQ0);
                ctx.set_timer(rto + Time::from_us(6), RTO_SWEEP);
            }
            NACK_SEQ0 => {
                tx.on_nack(0, env, ctx);
                // Seq 0 left the window (base moved to 1) and came straight
                // back in below it.
                let held: Vec<u64> = tx.inflight.iter().map(|(s, _)| s).collect();
                assert_eq!(held, [0, 1]);
            }
            _ => assert_eq!(tx.check_timeouts(env, ctx), 2),
        });
        // The NACKed seq 0 first, then the sweep's two in sequence order.
        assert_eq!(retransmitted(&engine), [0, 0, 1]);
    }

    /// Both packets of a message time out, and with no EQDS credit left
    /// their retransmissions wait in the queue. An ACK for seq 0 arrives
    /// meanwhile: once credit for both comes, only seq 1 goes out again,
    /// and its ACK completes the message exactly once.
    #[test]
    fn a_retransmission_acked_while_it_waits_for_credit_is_dropped() {
        const RTO_SWEEP: u64 = 0;
        const ACK_SEQ0: u64 = 1;
        const CREDIT: u64 = 2;
        let rto = SimConfig::paper_default().rto;
        let ack = |seq: u64| Ack {
            cum_ack: seq + 1,
            sacked: SeqList::from_slice(&[seq]),
            echoes: EchoList::one(EvEcho { ev: 0, ecn: false }),
            covered: 1,
            marked: 0,
            reuse: 1,
        };
        // Speculative allowance for the two first sends only.
        let cc = Cc::build(CcKind::Eqds, CcParams::for_bdp(2 * 4096, 4096));
        let engine = scripted(cc, move |token, tx, env, ctx| match token {
            START => {
                tx.enqueue(FlowId(0), 0, 2 * 4096, ctx.cfg.mtu_bytes, ctx.now);
                tx.pump(env, ctx);
                assert_eq!(tx.inflight_bytes(), 2 * 4096);
                for token in 0..4 {
                    ctx.set_timer(rto + Time::from_us(1 + token), token);
                }
            }
            RTO_SWEEP => {
                assert_eq!(tx.check_timeouts(env, ctx), 2);
                assert_eq!(tx.retx_queue, [0, 1], "no credit to resend");
                assert_eq!(tx.inflight_bytes(), 0);
            }
            ACK_SEQ0 => {
                tx.on_ack(&ack(0), env, ctx);
                assert_eq!(tx.retx_queue, [1], "seq 0 is stale");
            }
            CREDIT => {
                tx.cc.as_eqds_mut().expect("EQDS").grant(2 * 4096);
                tx.pump(env, ctx);
                assert_eq!(tx.inflight_bytes(), 4096);
            }
            _ => {
                tx.on_ack(&ack(1), env, ctx);
                assert_eq!(tx.inflight_bytes(), 0);
                assert!(tx.idle());
            }
        });
        assert_eq!(retransmitted(&engine), [1]);
        assert_eq!(engine.stats.flows.len(), 1, "the message completes once");
    }

    #[test]
    fn message_buffers_start_at_their_length_and_double() {
        let cfg = test_cfg();
        let lb = cfg.lb.build(&mut netsim::rng::Rng64::new(1));
        let cc = Cc::build(CcKind::Dctcp, CcParams::for_bdp(400_000, 4096));
        let mut tx = SenderConn::new(ConnId(0), HostId(1), lb, cc, &cfg);
        let mut rx = ReceiverConn::new(HostId(0), ConnId(0));
        let (mut sent, mut received) = (Vec::new(), Vec::new());
        for msg in 0..5u32 {
            tx.enqueue(FlowId(msg), 0, 1, 4096, Time::ZERO);
            sent.push((tx.msgs.capacity(), matches!(tx.msgs, SmallList::Spill(_))));
            rx.on_data(&data(msg as u64, msg, 1), cfg.coalesce, Time::ZERO);
            received.push((rx.msgs.capacity(), matches!(rx.msgs, SmallList::Spill(_))));
        }
        // The first message inline, then a heap block of exactly two.
        let want = [(1, false), (2, true), (4, true), (4, true), (8, true)];
        assert_eq!(sent, want);
        assert_eq!(received, want);
    }

    #[test]
    fn sender_message_packetization() {
        let cfg = test_cfg();
        let lb = cfg.lb.build(&mut netsim::rng::Rng64::new(1));
        let cc = Cc::build(CcKind::Dctcp, CcParams::for_bdp(400_000, 4096));
        let mut tx = SenderConn::new(ConnId(0), HostId(1), lb, cc, &cfg);
        tx.enqueue(FlowId(0), 1, 10_000, 4096, Time::ZERO);
        // 10 KB at 4 KiB MTU = 3 packets (4096 + 4096 + 1808).
        assert_eq!(tx.msgs[0].pkts, 3);
        assert_eq!(tx.unsent_bytes, 10_000);
        tx.enqueue(FlowId(1), 2, 1, 4096, Time::ZERO);
        assert_eq!(tx.msgs[1].pkts, 1, "tiny message still takes one packet");
        assert_eq!(tx.msgs[1].base_seq, 3);
        assert!(!tx.idle());
    }
}
