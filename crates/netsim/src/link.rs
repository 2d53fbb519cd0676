//! Links: a rate-limited egress queue plus a fixed-latency propagation pipe.
//!
//! Each *unidirectional* link owns its egress queue. The queue implements
//! two strict-priority bands (control before data), byte-based RED/ECN
//! marking between `K_min` and `K_max` (§2.1), tail-drop or packet trimming
//! when full, and runtime-mutable rate and failure state for the failure
//! experiments (§4.3.3).
//!
//! Queues hold [`PacketRef`]s into the engine-owned
//! [`PacketArena`](crate::arena::PacketArena) rather than packets by value,
//! and own no memory of their own: each band is a FIFO of a `head` and a
//! `tail` slot, threaded through the arena's per-slot successor array
//! (`PacketArena::next`). Enqueue and dequeue write and read 4 bytes
//! there, and admission, marking, trimming and service read and write only
//! the packet's 16-byte arena [`Header`](crate::arena::Header) — a link
//! never opens a packet body.

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

/// What a per-packet loss fault models, and so which [`DropReason`]
/// counts the packets it loses. The discriminant indexes
/// [`LinkSide::loss`]; [`LossCause::ALL`] is the order a serialized packet
/// draws against the causes set on its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// The bit-error-rate model (§4.3.3, Appendix C.3).
    BitError,
    /// Gray failure: silent loss while the link reports healthy.
    Gray,
    /// Payload corruption: the packet is discarded on arrival.
    Corrupt,
}

impl LossCause {
    /// Every cause, in draw order.
    pub const ALL: [LossCause; 3] = [LossCause::BitError, LossCause::Gray, LossCause::Corrupt];

    /// The drop counter a packet lost to this cause is charged to.
    pub fn reason(self) -> DropReason {
        match self {
            LossCause::BitError => DropReason::BitError,
            LossCause::Gray => DropReason::Gray,
            LossCause::Corrupt => DropReason::Corrupt,
        }
    }
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

/// The queue constants every link of one class shares: the engine keeps
/// one per class ([`LinkClass::table`]) and each [`Link`] names its class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkClass {
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
}

impl LinkClass {
    /// Index of the fabric class (switch egress) in [`LinkClass::table`].
    pub const FABRIC: u8 = 0;
    /// Index of the host-egress class (NIC) in [`LinkClass::table`].
    pub const HOST_EGRESS: u8 = 1;

    /// A switch egress queue of the fabric profile.
    pub fn fabric(cfg: &SimConfig) -> LinkClass {
        LinkClass {
            capacity_bytes: cfg.queue_capacity_bytes,
            kmin_bytes: cfg.kmin_bytes(),
            kmax_bytes: cfg.kmax_bytes(),
            trimming: cfg.trimming,
            mark_enabled: true,
        }
    }

    /// A host NIC egress: a deep source queue (the transport window is the
    /// real injection limit) without RED marking or trimming — congestion
    /// signalling is a fabric feature.
    pub fn host_egress(cfg: &SimConfig) -> LinkClass {
        LinkClass {
            capacity_bytes: 64 * 1024 * 1024,
            mark_enabled: false,
            trimming: false,
            ..LinkClass::fabric(cfg)
        }
    }

    /// Both classes, indexed by [`LinkClass::FABRIC`] and
    /// [`LinkClass::HOST_EGRESS`].
    pub fn table(cfg: &SimConfig) -> [LinkClass; 2] {
        [LinkClass::fabric(cfg), LinkClass::host_egress(cfg)]
    }
}

/// State few links ever have, kept in the engine's side table beside the
/// links and flagged by [`Link::has_side`]: loss faults, and the fluid
/// background share of hybrid cells. The default is a clean, unloaded link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkSide {
    /// Per-packet loss probability of each [`LossCause`], indexed by its
    /// discriminant (0.0 = that cause is clean): the chance a serialized
    /// packet is lost and counted under the cause's [`DropReason`].
    pub loss: [f64; 3],
    /// Fluid background load carried by the link in bits/s (hybrid
    /// fidelity only). Foreground packets see it as reduced effective rate
    /// plus [`LinkSide::bg_wait`] per service.
    pub bg_bps: u64,
    /// Deterministic per-packet queueing-delay term modelling interleaving
    /// with background frames (an M/D/1-style `ρ/(2(1−ρ))` wait at the
    /// background's utilization, computed once in `set_background`).
    pub bg_wait: Time,
}

impl LinkSide {
    /// Applies a fluid background load of `bg_bps` to a link of nominal
    /// `rate_bps` and derives the deterministic queue-delay term foreground
    /// packets pay per service: an M/D/1-style mean wait of `ρ/(2(1−ρ))`
    /// background frame-serialization times at background utilization `ρ`,
    /// with `frame_bytes` as the representative frame size. Integer-only
    /// (parts-per-million utilization, `u128` intermediates). A zero load
    /// restores pure packet behavior bit-for-bit.
    pub fn set_background(&mut self, rate_bps: u64, bg_bps: u64, frame_bytes: u64) {
        // The solver already caps shares at MAX_BG_SHARE_PPM of the rate;
        // clamp defensively so the effective rate stays positive regardless.
        self.bg_bps = if rate_bps > 0 {
            bg_bps.min(rate_bps - 1)
        } else {
            0
        };
        if self.bg_bps == 0 {
            self.bg_wait = Time::ZERO;
            return;
        }
        let u_ppm = (self.bg_bps as u128 * 1_000_000 / rate_bps as u128) as u64;
        let u_ppm = u_ppm.min(crate::fluid::MAX_BG_SHARE_PPM);
        let frame_ps = Time::serialization(frame_bytes, rate_bps).as_ps();
        let wait = frame_ps as u128 * u_ppm as u128 / (2 * (1_000_000 - u_ppm) as u128);
        self.bg_wait = Time::from_ps(wait as u64);
    }
}

/// No slot: the `head` and `tail` of an empty [`Band`].
const NIL: u32 = u32::MAX;

/// One priority band: a FIFO of queued packets threaded through the
/// arena's successor array. `head` is the next packet to serve, `tail` the
/// last queued, and each packet but the tail names the one behind it in
/// [`PacketArena::next`]; both are [`NIL`] when the band is empty. A slot
/// is queued on at most one band at a time, so bands of any number of
/// links share the one array.
#[derive(Debug, Clone, Copy)]
struct Band {
    head: u32,
    tail: u32,
}

impl Band {
    const EMPTY: Band = Band {
        head: NIL,
        tail: NIL,
    };

    /// The packet [`Band::pop_front`] would return.
    #[inline]
    fn front(&self) -> Option<PacketRef> {
        (self.head != NIL).then_some(PacketRef(self.head))
    }

    #[inline]
    fn push_back(&mut self, pkt: PacketRef, arena: &mut PacketArena) {
        if self.tail == NIL {
            self.head = pkt.0;
        } else {
            arena.set_next(PacketRef(self.tail), pkt);
        }
        self.tail = pkt.0;
    }

    #[inline]
    fn pop_front(&mut self, arena: &PacketArena) -> Option<PacketRef> {
        let pkt = self.front()?;
        if pkt.0 == self.tail {
            *self = Band::EMPTY;
        } else {
            self.head = arena.next(pkt).0;
        }
        Some(pkt)
    }

    /// Empties the band head first, releasing each packet into the arena;
    /// returns how many there were.
    fn flush(&mut self, arena: &mut PacketArena) -> usize {
        let mut flushed = 0;
        while let Some(pkt) = self.pop_front(arena) {
            arena.release(pkt);
            flushed += 1;
        }
        flushed
    }
}

/// A unidirectional link: egress queue, propagation delay, endpoint.
///
/// Only what a packet's passage reads is kept here, in exactly one cache
/// line: the per-class queue constants live in the engine's [`LinkClass`]
/// table, the rarely set state in its [`LinkSide`] table and the queued
/// packets' order in the [`PacketArena`].
#[derive(Debug)]
#[repr(align(64))]
pub struct Link {
    /// Node the link delivers to, as a [`NodeRef::word`] ([`Link::to`]).
    to: u32,
    /// Picoseconds per byte at `rate_bps`, derived with it; 0 means the
    /// rate does not divide the ps/s constant evenly, or the quotient
    /// passes `u32`, and the generic division must run.
    ps_per_byte: u32,
    /// Propagation latency (includes downstream switch traversal).
    pub latency: Time,
    /// Nominal transmit rate in bits per second ([`Link::set_rate`]).
    rate_bps: u64,
    /// Bytes across both bands.
    pub queued_bytes: u64,
    /// While `busy`, when the packet in service completes: the one
    /// `QueueService` instant that may complete it. While down (and so not
    /// busy), the instant the link went down ([`Link::down_since`]).
    due: Time,
    /// The packet being serialized (valid while `busy`; committed at
    /// service start so a control-band arrival cannot swap itself into a
    /// data packet's slot).
    in_service: PacketRef,
    /// True while the cable is up.
    pub up: bool,
    /// True while a packet is in service. [`Link::set_down`] clears it,
    /// which is what makes a `QueueService` event outstanding across a
    /// failure a no-op.
    pub busy: bool,
    /// Index of the link's [`LinkClass`] in the engine's class table.
    pub(crate) class: u8,
    /// True when the engine's side table holds non-default [`LinkSide`]
    /// state for this link.
    pub(crate) has_side: bool,
    /// Control-priority band (ACKs, credits, trimmed headers).
    ctrl: Band,
    /// Data band.
    data: Band,
}

/// Picoseconds per second, times bits per byte: `bytes · PS_PER_SEC_BITS /
/// rate_bps` is a serialization time in ps.
const PS_PER_SEC_BITS: u64 = 8 * 1_000_000_000_000;

impl Link {
    /// Creates a fabric-class link toward `to` from the fabric profile.
    pub fn new(to: NodeRef, latency: Time, cfg: &SimConfig) -> Link {
        let mut link = Link {
            to: to.word(),
            ps_per_byte: 0,
            latency,
            rate_bps: 0,
            queued_bytes: 0,
            due: Time::ZERO,
            in_service: PacketRef(0),
            up: true,
            busy: false,
            class: LinkClass::FABRIC,
            has_side: false,
            ctrl: Band::EMPTY,
            data: Band::EMPTY,
        };
        link.set_rate(cfg.link_bps);
        link
    }

    /// Offers a packet to the queue, applying `class`'s RED marking and
    /// drop/trim policy. Does not schedule service; the engine does that.
    ///
    /// On [`EnqueueOutcome::Dropped`] the packet has been removed from the
    /// arena; the ref must not be used again.
    pub fn enqueue(
        &mut self,
        pkt: PacketRef,
        class: &LinkClass,
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
        let fits = self.queued_bytes + wire_bytes <= class.capacity_bytes;
        if !fits {
            if class.trimming && is_data {
                h.trim();
                // Trimmed headers ride the control band; they are tiny, so we
                // admit them even at capacity (bounded by packet count).
                self.queued_bytes += h.wire_bytes as u64;
                self.ctrl.push_back(pkt, arena);
                return EnqueueOutcome::Trimmed;
            }
            arena.release(pkt);
            return EnqueueOutcome::Dropped(DropReason::QueueFull);
        }
        // RED marking on admission, based on the instantaneous occupancy the
        // packet observes (the paper's K_min/K_max description).
        let marked = if class.mark_enabled && is_data {
            let occupancy = self.queued_bytes;
            let prob = red_mark_probability(occupancy, class.kmin_bytes, class.kmax_bytes);
            prob > 0.0 && rng.gen_bool(prob)
        } else {
            false
        };
        if marked {
            h.mark_ce();
        }
        self.queued_bytes += wire_bytes;
        if is_data {
            self.data.push_back(pkt, arena);
        } else {
            self.ctrl.push_back(pkt, arena);
        }
        EnqueueOutcome::Queued { marked }
    }

    /// Dequeues the next packet to transmit (control band first) and
    /// computes its serialization time at the current effective rate, in
    /// one header access: the nominal rate minus any fluid background of
    /// `side` (the link's side-table state when [`Link::has_side`] is set),
    /// floored at 1 bps so service always completes. The caller commits
    /// the returned packet with [`Link::serve`].
    pub fn begin_service(
        &mut self,
        arena: &PacketArena,
        side: Option<&LinkSide>,
    ) -> Option<(PacketRef, Time)> {
        let pkt = (self.ctrl.pop_front(arena)).or_else(|| self.data.pop_front(arena))?;
        let wire = arena.header(pkt).wire_bytes as u64;
        self.queued_bytes -= wire;
        // When the rate divides the ps/s constant (every realistic rate:
        // 400G -> 20 ps/B), `bytes * 8e12 / rate == bytes * (8e12 / rate)`
        // exactly, so the division-free product is bit-identical to
        // `Time::serialization`. The `< 2^21` guard mirrors its fast path's
        // overflow bound.
        let ser = match side.filter(|s| s.bg_bps != 0) {
            None if self.ps_per_byte != 0 && wire < (1 << 21) => {
                Time::from_ps(wire * u64::from(self.ps_per_byte))
            }
            None => Time::serialization(wire, self.rate_bps),
            Some(s) => {
                let effective = self.rate_bps.saturating_sub(s.bg_bps).max(1);
                Time::serialization(wire, effective) + s.bg_wait
            }
        };
        Some((pkt, ser))
    }

    /// Commits `pkt` as the packet in service, completing at `due`.
    #[inline]
    pub fn serve(&mut self, pkt: PacketRef, due: Time) {
        self.busy = true;
        self.in_service = pkt;
        self.due = due;
    }

    /// The packet whose serialization completes at `now`, if any. A
    /// `QueueService` event finds none when the link failed since it was
    /// scheduled — or failed and came back, and serves another packet due
    /// at another instant.
    #[inline]
    pub fn completing(&self, now: Time) -> Option<PacketRef> {
        (self.busy && self.due == now).then_some(self.in_service)
    }

    /// Prefetches the headers a `QueueService` completion on this link
    /// will read: the packet in service and the one
    /// [`Link::begin_service`] would dequeue next.
    #[inline]
    pub(crate) fn prefetch_service_headers(&self, arena: &PacketArena) {
        if self.busy {
            arena.prefetch_header(self.in_service);
        }
        if let Some(pkt) = self.ctrl.front().or_else(|| self.data.front()) {
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
        let mut flushed = self.ctrl.flush(arena) + self.data.flush(arena);
        if self.busy {
            arena.release(self.in_service);
            flushed += 1;
        }
        self.busy = false;
        self.due = now;
        self.queued_bytes = 0;
        flushed
    }

    /// Brings the link back up.
    pub fn set_up(&mut self) {
        self.up = true;
    }

    /// The node the link delivers to.
    #[inline]
    pub fn to(&self) -> NodeRef {
        NodeRef::from_word(self.to)
    }

    /// The instant the link last went down; valid while it is down.
    #[inline]
    pub fn down_since(&self) -> Time {
        debug_assert!(!self.up, "an up link has no down instant");
        self.due
    }

    /// The nominal transmit rate in bits per second.
    #[inline]
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Degrades (or restores) the link rate.
    pub fn set_rate(&mut self, bps: u64) {
        self.rate_bps = bps;
        self.ps_per_byte = if bps > 0 && PS_PER_SEC_BITS.is_multiple_of(bps) {
            u32::try_from(PS_PER_SEC_BITS / bps).unwrap_or(0)
        } else {
            0
        };
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
        link.begin_service(arena, None)
            .map(|(pkt, _)| arena.take(pkt))
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
        let class = LinkClass::fabric(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        for i in 0..5 {
            let p = data_pkt(&mut arena, i, 1000);
            assert!(matches!(
                link.enqueue(p, &class, &mut arena, &mut rng),
                EnqueueOutcome::Queued { .. }
            ));
        }
        for i in 0..5 {
            assert_eq!(serve(&mut link, &mut arena).unwrap().id, i);
        }
        assert!(link.begin_service(&arena, None).is_none());
        assert_eq!(link.queued_bytes, 0);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn control_band_preempts_data() {
        let cfg = SimConfig::paper_default();
        let mut link = test_link(&cfg);
        let class = LinkClass::fabric(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let d = data_pkt(&mut arena, 1, 1000);
        link.enqueue(d, &class, &mut arena, &mut rng);
        let ack = arena.insert(Packet::control(
            2,
            HostId(1),
            HostId(0),
            ConnId(0),
            0,
            crate::packet::Body::Nack { seq: 0 },
        ));
        link.enqueue(ack, &class, &mut arena, &mut rng);
        let first = serve(&mut link, &mut arena).unwrap();
        assert_eq!(first.id, 2, "control must go first");
        assert_eq!(serve(&mut link, &mut arena).unwrap().id, 1);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut cfg = SimConfig::paper_default();
        cfg.queue_capacity_bytes = 10_000;
        let mut link = test_link(&cfg);
        let class = LinkClass::fabric(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let mut queued = 0;
        let mut dropped = 0;
        for i in 0..10 {
            let p = data_pkt(&mut arena, i, 2000);
            match link.enqueue(p, &class, &mut arena, &mut rng) {
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
        let class = LinkClass::fabric(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let a = data_pkt(&mut arena, 0, 4000);
        link.enqueue(a, &class, &mut arena, &mut rng);
        let b = data_pkt(&mut arena, 1, 4000);
        match link.enqueue(b, &class, &mut arena, &mut rng) {
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
        let class = LinkClass::fabric(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        // Fill to above K_max (80KB) and verify marks start appearing.
        let mut marks = 0;
        for i in 0..24 {
            let p = data_pkt(&mut arena, i, 4096);
            if let EnqueueOutcome::Queued { marked } = link.enqueue(p, &class, &mut arena, &mut rng)
            {
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
        let class = LinkClass::fabric(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let p = data_pkt(&mut arena, 0, 1000);
        link.enqueue(p, &class, &mut arena, &mut rng);
        let flushed = link.set_down(Time::from_us(10), &mut arena);
        assert_eq!(flushed, 1);
        assert_eq!(arena.live(), 0, "flushed packets leave the arena");
        let q = data_pkt(&mut arena, 1, 1000);
        assert_eq!(
            link.enqueue(q, &class, &mut arena, &mut rng),
            EnqueueOutcome::Dropped(DropReason::LinkDown)
        );
        link.set_up();
        let r = data_pkt(&mut arena, 2, 1000);
        assert!(matches!(
            link.enqueue(r, &class, &mut arena, &mut rng),
            EnqueueOutcome::Queued { .. }
        ));
    }

    #[test]
    fn rate_change_affects_serialization() {
        let cfg = SimConfig::paper_default();
        let mut link = test_link(&cfg);
        let class = LinkClass::fabric(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let mut service_time = |link: &mut Link, side: Option<&LinkSide>| {
            let p = data_pkt(&mut arena, 0, 4096);
            link.enqueue(p, &class, &mut arena, &mut rng);
            let (p, ser) = link.begin_service(&arena, side).unwrap();
            arena.release(p);
            ser
        };
        let fast = service_time(&mut link, None);
        assert_eq!(fast, Time::serialization(4096 + 64, cfg.link_bps));
        link.set_rate(cfg.link_bps / 2);
        assert_eq!(service_time(&mut link, None).as_ps(), fast.as_ps() * 2);
        // A fluid background takes its share of the rate and adds its wait.
        link.set_rate(cfg.link_bps);
        let mut side = LinkSide::default();
        side.set_background(link.rate_bps(), cfg.link_bps / 2, 4096 + 64);
        assert_eq!(
            service_time(&mut link, Some(&side)),
            fast + fast + side.bg_wait
        );
        // A side entry without background (a fault only) serves at the rate.
        side.set_background(link.rate_bps(), 0, 4096 + 64);
        assert_eq!(service_time(&mut link, Some(&side)), fast);
    }

    #[test]
    fn link_stays_within_its_cache_line_budget() {
        // One cache line, line-aligned: the engine prefetches it whole per
        // `QueueService`, and the first touch of an egress link on the
        // packet path is that line.
        assert_eq!(
            std::mem::size_of::<Link>(),
            64,
            "Link is {} bytes",
            std::mem::size_of::<Link>()
        );
        assert_eq!(std::mem::align_of::<Link>(), 64);
    }

    #[test]
    fn a_completion_is_tied_to_its_due_time() {
        let cfg = SimConfig::paper_default();
        let mut link = test_link(&cfg);
        let class = LinkClass::fabric(&cfg);
        let mut arena = PacketArena::new();
        let mut rng = Rng64::new(1);
        let a = data_pkt(&mut arena, 0, 1000);
        link.enqueue(a, &class, &mut arena, &mut rng);
        let (a, ser) = link.begin_service(&arena, None).unwrap();
        link.serve(a, ser);
        assert_eq!(link.completing(ser), Some(a));
        // A flap within the serialization: A is flushed, B starts later.
        link.set_down(Time::from_ns(10), &mut arena);
        assert_eq!(link.completing(ser), None);
        link.set_up();
        let b = data_pkt(&mut arena, 1, 1000);
        link.enqueue(b, &class, &mut arena, &mut rng);
        let (b, _) = link.begin_service(&arena, None).unwrap();
        let due = Time::from_ns(30) + ser;
        link.serve(b, due);
        assert_eq!(link.completing(ser), None, "A's event must not complete B");
        assert_eq!(link.completing(due), Some(b));
    }
}
