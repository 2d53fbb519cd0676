//! Links: a rate-limited egress queue plus a fixed-latency propagation pipe.
//!
//! Each *unidirectional* link owns its egress queue. The queue implements
//! two strict-priority bands (control before data), byte-based RED/ECN
//! marking between `K_min` and `K_max` (§2.1), tail-drop or packet trimming
//! when full, and runtime-mutable rate and failure state for the failure
//! experiments (§4.3.3).
//!
//! Queues hold [`PacketRef`]s into the engine-owned
//! [`PacketArena`](crate::arena::PacketArena) rather than packets by value:
//! enqueue/dequeue move 4 bytes, and admission, marking, trimming and
//! service read and write only the packet's 16-byte arena
//! [`Header`](crate::arena::Header) — a link never opens a packet body.

use std::collections::VecDeque;

use crate::arena::{PacketArena, PacketRef};
use crate::config::SimConfig;
use crate::ids::NodeRef;
use crate::rng::Rng64;
use crate::time::Time;

/// Why a packet was not queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Queue full (congestion loss).
    QueueFull,
    /// The link is administratively or physically down (blackhole).
    LinkDown,
    /// Random corruption (bit-error-rate model).
    BitError,
    /// Silent loss on a gray-failing link (per-packet probability, no
    /// signal to routing — the link stays "up").
    Gray,
    /// Payload corrupted in flight and discarded at the receiver side of
    /// the wire (distinguished from [`DropReason::Gray`] so the failure
    /// figures can tell silent loss from corruption).
    Corrupt,
}

/// Result of offering a packet to an egress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet accepted; `marked` tells whether RED set the CE bit.
    Queued {
        /// True when the packet was ECN-marked on admission.
        marked: bool,
    },
    /// Packet payload was trimmed; the header was queued in the control band.
    Trimmed,
    /// Packet dropped (and already released from the arena).
    Dropped(DropReason),
}

/// A unidirectional link: egress queue, propagation delay, endpoint.
#[derive(Debug)]
pub struct Link {
    /// Node the link delivers to.
    pub to: NodeRef,
    /// Propagation latency (includes downstream switch traversal).
    pub latency: Time,
    /// Current transmit rate in bits per second.
    pub rate_bps: u64,
    /// True while the cable is up.
    pub up: bool,
    /// Instant the link last went down (valid when `!up`).
    pub down_since: Time,
    /// Probability that a serialized packet is corrupted and dropped.
    pub ber: f64,
    /// Gray-failure probability: chance a serialized packet is silently
    /// lost while the link reports healthy (0.0 = clean link).
    pub gray: f64,
    /// Payload-corruption probability: chance a serialized packet arrives
    /// corrupted and is discarded (0.0 = clean link).
    pub corrupt: f64,
    /// True while a `QueueService` event is outstanding.
    pub busy: bool,
    /// The packet currently being serialized (committed at service start so
    /// a control-band arrival cannot swap itself into a data packet's slot).
    /// [`Link::set_down`] empties it, which is what makes a `QueueService`
    /// event outstanding across a failure a no-op.
    pub in_service: Option<PacketRef>,
    /// Control-priority band (ACKs, credits, trimmed headers).
    ctrl: VecDeque<PacketRef>,
    /// Data band.
    data: VecDeque<PacketRef>,
    /// Bytes across both bands.
    pub queued_bytes: u64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// RED K_min in bytes.
    pub kmin_bytes: u64,
    /// RED K_max in bytes.
    pub kmax_bytes: u64,
    /// Enable trimming instead of tail-dropping data packets.
    pub trimming: bool,
    /// Whether RED/ECN marking applies (switch egress yes, host NIC no).
    pub mark_enabled: bool,
    /// Fluid background load carried by this link in bits/s (hybrid
    /// fidelity only; 0 in pure packet mode). Foreground packets see it as
    /// reduced effective rate plus [`Link::bg_wait`] per service.
    pub bg_bps: u64,
    /// Deterministic per-packet queueing-delay term modelling interleaving
    /// with background frames (an M/D/1-style `ρ/(2(1−ρ))` wait at the
    /// background's utilization, computed once in `set_background`).
    pub bg_wait: Time,
    /// Cached picoseconds-per-byte for the service hot path, valid while
    /// `ser_rate` equals the current *effective* rate; 0 means the rate
    /// does not divide the ps/s constant evenly and the generic division
    /// must run. Tagged with the rate it was computed for so direct
    /// `rate_bps` writes (the engine's fabric-rate override, degradation
    /// controls) and background-rate changes auto-heal on next use.
    ser_ps_per_byte: u64,
    /// Effective rate `ser_ps_per_byte` was derived from (0 = never
    /// computed).
    ser_rate: u64,
}

impl Link {
    /// Creates a link toward `to` from the fabric profile.
    pub fn new(to: NodeRef, latency: Time, cfg: &SimConfig) -> Link {
        Link {
            to,
            latency,
            rate_bps: cfg.link_bps,
            up: true,
            down_since: Time::ZERO,
            ber: 0.0,
            gray: 0.0,
            corrupt: 0.0,
            busy: false,
            in_service: None,
            ctrl: VecDeque::new(),
            data: VecDeque::new(),
            queued_bytes: 0,
            capacity_bytes: cfg.queue_capacity_bytes,
            kmin_bytes: cfg.kmin_bytes(),
            kmax_bytes: cfg.kmax_bytes(),
            trimming: cfg.trimming,
            bg_bps: 0,
            bg_wait: Time::ZERO,
            ser_ps_per_byte: 0,
            ser_rate: 0,
            mark_enabled: true,
        }
    }

    /// Reconfigures this link as a host NIC egress: a deep source queue
    /// (the transport window is the real injection limit) without RED
    /// marking or trimming — congestion signalling is a fabric feature.
    pub fn make_host_egress(&mut self) {
        self.capacity_bytes = 64 * 1024 * 1024;
        self.mark_enabled = false;
        self.trimming = false;
    }

    /// Offers a packet to the queue, applying RED marking and drop/trim
    /// policy. Does not schedule service; the engine does that.
    ///
    /// On [`EnqueueOutcome::Dropped`] the packet has been removed from the
    /// arena; the ref must not be used again.
    pub fn enqueue(
        &mut self,
        pkt: PacketRef,
        arena: &mut PacketArena,
        rng: &mut Rng64,
    ) -> EnqueueOutcome {
        if !self.up {
            arena.release(pkt);
            return EnqueueOutcome::Dropped(DropReason::LinkDown);
        }
        // One header access for the whole admission decision.
        let h = arena.header_mut(pkt);
        let wire_bytes = h.wire_bytes as u64;
        let is_data = h.is_data();
        let fits = self.queued_bytes + wire_bytes <= self.capacity_bytes;
        if !fits {
            if self.trimming && is_data {
                h.trim();
                // Trimmed headers ride the control band; they are tiny, so we
                // admit them even at capacity (bounded by packet count).
                self.queued_bytes += h.wire_bytes as u64;
                self.ctrl.push_back(pkt);
                return EnqueueOutcome::Trimmed;
            }
            arena.release(pkt);
            return EnqueueOutcome::Dropped(DropReason::QueueFull);
        }
        // RED marking on admission, based on the instantaneous occupancy the
        // packet observes (the paper's K_min/K_max description).
        let marked = if self.mark_enabled && is_data {
            let occupancy = self.queued_bytes;
            let prob = red_mark_probability(occupancy, self.kmin_bytes, self.kmax_bytes);
            prob > 0.0 && rng.gen_bool(prob)
        } else {
            false
        };
        if marked {
            h.mark_ce();
        }
        self.queued_bytes += wire_bytes;
        if is_data {
            self.data.push_back(pkt);
        } else {
            self.ctrl.push_back(pkt);
        }
        EnqueueOutcome::Queued { marked }
    }

    /// Dequeues the next packet to transmit (control band first) and
    /// computes its serialization time at the current effective rate, in
    /// one header access. The caller commits the returned packet to
    /// [`Link::in_service`].
    pub fn begin_service(&mut self, arena: &PacketArena) -> Option<(PacketRef, Time)> {
        let pkt = self.ctrl.pop_front().or_else(|| self.data.pop_front())?;
        let wire = arena.header(pkt).wire_bytes as u64;
        self.queued_bytes -= wire;
        let eff = self.effective_bps();
        if self.ser_rate != eff {
            const PS_PER_SEC_BITS: u64 = 8 * 1_000_000_000_000;
            self.ser_rate = eff;
            self.ser_ps_per_byte = if eff > 0 && PS_PER_SEC_BITS.is_multiple_of(eff) {
                PS_PER_SEC_BITS / eff
            } else {
                0
            };
        }
        // When the rate divides the ps/s constant (every realistic rate:
        // 400G -> 20 ps/B), `bytes * 8e12 / rate == bytes * (8e12 / rate)`
        // exactly, so the division-free product is bit-identical to
        // `Time::serialization`. The `< 2^21` guard mirrors its fast path's
        // overflow bound.
        let ser = if self.ser_ps_per_byte != 0 && wire < (1 << 21) {
            Time::from_ps(wire * self.ser_ps_per_byte)
        } else {
            Time::serialization(wire, eff)
        };
        Some((pkt, ser + self.bg_wait))
    }

    /// Prefetches the headers a `QueueService` completion on this link
    /// will read: the packet in service and the one
    /// [`Link::begin_service`] would dequeue next.
    #[inline]
    pub(crate) fn prefetch_service_headers(&self, arena: &PacketArena) {
        if let Some(pkt) = self.in_service {
            arena.prefetch_header(pkt);
        }
        if let Some(&pkt) = self.ctrl.front().or_else(|| self.data.front()) {
            arena.prefetch_header(pkt);
        }
    }

    /// Takes the link down, flushing all queued packets (they are lost,
    /// including the frame on the wire mid-serialization) back into the
    /// arena's free list.
    ///
    /// Returns the number of packets flushed.
    pub fn set_down(&mut self, now: Time, arena: &mut PacketArena) -> usize {
        self.up = false;
        self.down_since = now;
        let mut flushed = 0;
        for pkt in self.ctrl.drain(..).chain(self.data.drain(..)) {
            arena.release(pkt);
            flushed += 1;
        }
        if let Some(pkt) = self.in_service.take() {
            arena.release(pkt);
            flushed += 1;
        }
        self.busy = false;
        self.queued_bytes = 0;
        flushed
    }

    /// Brings the link back up.
    pub fn set_up(&mut self) {
        self.up = true;
    }

    /// Degrades (or restores) the link rate.
    pub fn set_rate(&mut self, bps: u64) {
        self.rate_bps = bps;
    }

    /// The rate foreground packets serialize at: nominal minus fluid
    /// background, floored at 1 bps while the link is nominally up so
    /// service always completes. Equal to `rate_bps` when no background
    /// is applied — the pure-packet fast path is untouched.
    #[inline]
    pub fn effective_bps(&self) -> u64 {
        if self.bg_bps == 0 {
            self.rate_bps
        } else {
            self.rate_bps.saturating_sub(self.bg_bps).max(1)
        }
    }

    /// Applies a fluid background load of `bg_bps` to this link and
    /// derives the deterministic queue-delay term foreground packets pay
    /// per service: an M/D/1-style mean wait of `ρ/(2(1−ρ))` background
    /// frame-serialization times at background utilization `ρ`, with
    /// `frame_bytes` as the representative frame size. Integer-only
    /// (parts-per-million utilization, `u128` intermediates). A zero load
    /// restores pure packet behavior bit-for-bit.
    pub fn set_background(&mut self, bg_bps: u64, frame_bytes: u64) {
        // The solver already caps shares at MAX_BG_SHARE_PPM of the rate;
        // clamp defensively so `effective_bps` stays positive regardless.
        self.bg_bps = if self.rate_bps > 0 {
            bg_bps.min(self.rate_bps - 1)
        } else {
            0
        };
        if self.bg_bps == 0 {
            self.bg_wait = Time::ZERO;
            return;
        }
        let u_ppm = (self.bg_bps as u128 * 1_000_000 / self.rate_bps as u128) as u64;
        let u_ppm = u_ppm.min(crate::fluid::MAX_BG_SHARE_PPM);
        let frame_ps = Time::serialization(frame_bytes, self.rate_bps).as_ps();
        let wait = frame_ps as u128 * u_ppm as u128 / (2 * (1_000_000 - u_ppm) as u128);
        self.bg_wait = Time::from_ps(wait as u64);
    }
}

/// RED marking probability for a queue occupancy given byte thresholds.
///
/// Zero below `kmin`, one above `kmax`, linear in between — the gentle RED
/// variant the paper configures (§4.1: K_min 20 %, K_max 80 %).
pub fn red_mark_probability(occupancy: u64, kmin: u64, kmax: u64) -> f64 {
    if occupancy <= kmin {
        0.0
    } else if occupancy >= kmax {
        1.0
    } else {
        (occupancy - kmin) as f64 / (kmax - kmin) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConnId, HostId, SwitchId};
    use crate::packet::Packet;

    fn test_link(cfg: &SimConfig) -> Link {
        Link::new(NodeRef::Switch(SwitchId(0)), cfg.link_latency, cfg)
    }

    /// The next packet the link would serialize, out of the arena.
    fn serve(link: &mut Link, arena: &mut PacketArena) -> Option<Packet> {
        link.begin_service(arena).map(|(pkt, _)| arena.take(pkt))
    }

    fn data_pkt(arena: &mut PacketArena, id: u64, bytes: u32) -> PacketRef {
        arena.insert(Packet::data(
            id,
            HostId(0),
            HostId(1),
            ConnId(0),
            0,
            id,
            bytes,
            false,
        ))
    }

    #[test]
    fn red_probability_profile() {
        assert_eq!(red_mark_probability(0, 100, 200), 0.0);
        assert_eq!(red_mark_probability(100, 100, 200), 0.0);
        assert!((red_mark_probability(150, 100, 200) - 0.5).abs() < 1e-9);
        assert_eq!(red_mark_probability(200, 100, 200), 1.0);
        assert_eq!(red_mark_probability(999, 100, 200), 1.0);
    }

    #[test]
    fn fifo_order_within_band() {
        let cfg = SimConfig::paper_default();
        let mut link = test_link(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        for i in 0..5 {
            let p = data_pkt(&mut arena, i, 1000);
            assert!(matches!(
                link.enqueue(p, &mut arena, &mut rng),
                EnqueueOutcome::Queued { .. }
            ));
        }
        for i in 0..5 {
            assert_eq!(serve(&mut link, &mut arena).unwrap().id, i);
        }
        assert!(link.begin_service(&arena).is_none());
        assert_eq!(link.queued_bytes, 0);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn control_band_preempts_data() {
        let cfg = SimConfig::paper_default();
        let mut link = test_link(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let d = data_pkt(&mut arena, 1, 1000);
        link.enqueue(d, &mut arena, &mut rng);
        let ack = arena.insert(Packet::control(
            2,
            HostId(1),
            HostId(0),
            ConnId(0),
            0,
            crate::packet::Body::Nack { seq: 0 },
        ));
        link.enqueue(ack, &mut arena, &mut rng);
        let first = serve(&mut link, &mut arena).unwrap();
        assert_eq!(first.id, 2, "control must go first");
        assert_eq!(serve(&mut link, &mut arena).unwrap().id, 1);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut cfg = SimConfig::paper_default();
        cfg.queue_capacity_bytes = 10_000;
        let mut link = test_link(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let mut queued = 0;
        let mut dropped = 0;
        for i in 0..10 {
            let p = data_pkt(&mut arena, i, 2000);
            match link.enqueue(p, &mut arena, &mut rng) {
                EnqueueOutcome::Queued { .. } => queued += 1,
                EnqueueOutcome::Dropped(DropReason::QueueFull) => dropped += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(queued > 0 && dropped > 0);
        assert!(link.queued_bytes <= cfg.queue_capacity_bytes);
        assert_eq!(arena.live(), queued, "dropped packets leave the arena");
    }

    #[test]
    fn trimming_replaces_drop() {
        let mut cfg = SimConfig::paper_default();
        cfg.queue_capacity_bytes = 5_000;
        cfg.trimming = true;
        let mut link = test_link(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let a = data_pkt(&mut arena, 0, 4000);
        link.enqueue(a, &mut arena, &mut rng);
        let b = data_pkt(&mut arena, 1, 4000);
        match link.enqueue(b, &mut arena, &mut rng) {
            EnqueueOutcome::Trimmed => {}
            other => panic!("expected trim, got {other:?}"),
        }
        // The trimmed header is in the control band, served first.
        let first = serve(&mut link, &mut arena).unwrap();
        assert!(first.trimmed);
        assert_eq!(first.id, 1);
    }

    #[test]
    fn ecn_marks_above_kmin() {
        let mut cfg = SimConfig::paper_default();
        cfg.queue_capacity_bytes = 100_000;
        let mut link = test_link(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        // Fill to above K_max (80KB) and verify marks start appearing.
        let mut marks = 0;
        for i in 0..24 {
            let p = data_pkt(&mut arena, i, 4096);
            if let EnqueueOutcome::Queued { marked } = link.enqueue(p, &mut arena, &mut rng) {
                if marked {
                    marks += 1;
                }
            }
        }
        assert!(marks > 0, "expected ECN marks above K_min");
        // First packet (empty queue) is never marked.
        assert!(!serve(&mut link, &mut arena).unwrap().ecn_ce);
    }

    #[test]
    fn down_link_blackholes_and_flushes() {
        let cfg = SimConfig::paper_default();
        let mut link = test_link(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let p = data_pkt(&mut arena, 0, 1000);
        link.enqueue(p, &mut arena, &mut rng);
        let flushed = link.set_down(Time::from_us(10), &mut arena);
        assert_eq!(flushed, 1);
        assert_eq!(arena.live(), 0, "flushed packets leave the arena");
        let q = data_pkt(&mut arena, 1, 1000);
        assert_eq!(
            link.enqueue(q, &mut arena, &mut rng),
            EnqueueOutcome::Dropped(DropReason::LinkDown)
        );
        link.set_up();
        let r = data_pkt(&mut arena, 2, 1000);
        assert!(matches!(
            link.enqueue(r, &mut arena, &mut rng),
            EnqueueOutcome::Queued { .. }
        ));
    }

    #[test]
    fn rate_change_affects_serialization() {
        let cfg = SimConfig::paper_default();
        let mut link = test_link(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let mut service_time = |link: &mut Link| {
            let p = data_pkt(&mut arena, 0, 4096);
            link.enqueue(p, &mut arena, &mut rng);
            let (p, ser) = link.begin_service(&arena).unwrap();
            arena.release(p);
            ser
        };
        let fast = service_time(&mut link);
        assert_eq!(fast, Time::serialization(4096 + 64, cfg.link_bps));
        link.set_rate(cfg.link_bps / 2);
        assert_eq!(service_time(&mut link).as_ps(), fast.as_ps() * 2);
        // A fluid background takes its share of the rate and adds its wait.
        link.set_rate(cfg.link_bps);
        link.set_background(cfg.link_bps / 2, 4096 + 64);
        assert_eq!(service_time(&mut link), fast + fast + link.bg_wait);
    }

    #[test]
    fn link_stays_within_its_cache_line_budget() {
        // The engine prefetches four cache lines per `QueueService`; a
        // member creeping back in would push the hot fields past them.
        assert!(
            std::mem::size_of::<Link>() <= 200,
            "Link grew to {} bytes",
            std::mem::size_of::<Link>()
        );
    }
}
