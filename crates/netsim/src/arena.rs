//! The engine-owned packet arena: a dense header array beside one cache
//! line of body per packet.
//!
//! A [`Packet`] is 120 bytes and straddles cache lines, but a switch hop
//! needs 15 of them: where the packet is going (`src`, `dst`, `ev`), how
//! long it occupies the wire (`wire_bytes`) and three flags (is the body
//! `Data`, is it ECN-marked, was it trimmed). The arena therefore splits
//! every in-fabric packet in two, and stores no field twice:
//!
//! * the 16-byte [`Header`] owns those fields, in one dense array — four to
//!   a cache line. It is the *single source of truth* for them while the
//!   packet is in the fabric: link admission, service, routing, RED
//!   marking and trimming read and write only the header;
//! * a 64-byte, line-aligned *record* in a parallel array owns the rest:
//!   the packet's `id`, its `conn` and its [`Body`]. It is written once,
//!   when the host hands the packet to its NIC, and not opened again until
//!   [`PacketArena::take`] rebuilds the packet from header and record —
//!   with the header's mark and trim, so the endpoint receives exactly the
//!   packet by-value marking and [`Packet::trim`] would have produced.
//!   Packets that die in the fabric are [`PacketArena::release`]d without
//!   their record being read.
//!
//! A record is one line because it holds [`Body::Data`]'s eight fields
//! inline, and an [`Ack`] only in the shape a per-packet ACK has: one
//! SACKed sequence and one echo. [`Body::Ack`] reserves room for two
//! inline lists (three sequences, five echoes) that would double the
//! record for the rare ACK that needs them. Every other ACK — coalesced,
//! *Carry EVs*, a retransmission's duplicate SACKs — is parked whole in a
//! [`Slab`] beside the records, and its header carries a `WIDE` flag, so
//! `release` opens the record of exactly those packets, to free their
//! slab slot.
//!
//! The calendar and link queues pass a 4-byte [`PacketRef`]. A link's two
//! priority bands hold no buffer of their own: each is a head and a tail
//! slot, and a third per-slot array, `next`, grown with the headers,
//! names the packet queued behind each one (`PacketArena::next`). A
//! packet waits in at most one band at a time, so every link of the
//! fabric threads its bands through this one array, and a link is a
//! single cache line with no heap block behind it.
//!
//! Freed slots go on a free list and are reused before the arrays grow, so
//! the arena converges to the simulation's in-flight high-water mark and
//! then recycles slots without touching the allocator — one of the
//! invariants behind the zero-allocation switch path (see the
//! allocation-counting test in `tests/alloc.rs`). A header's *live* bit
//! is asserted on every access, so a ref used after `take`/`release`
//! panics instead of reading a recycled slot.
//!
//! A dropped arena keeps its per-slot arrays and free list, cleared, in a
//! per-thread spare, and the next arena the thread builds starts on them
//! (the larger set wins when two wait): a sweep worker regrows none of
//! them from cell to cell, and heap placement no longer shifts with each
//! cell's regrowth. An empty arena assigns slots in the same order
//! whatever its capacity, so reuse changes no output byte.

use std::cell::Cell;

use crate::ids::{ConnId, HostId};
use crate::packet::{Ack, Body, EchoList, EvEcho, Packet, SeqList, HEADER_BYTES};

/// A handle to a packet parked in a [`PacketArena`].
///
/// Plain index, deliberately `Copy`: calendar entries and link queues
/// move 4 bytes instead of the packet. The arena's owner is responsible
/// for not using a ref after [`PacketArena::take`] or
/// [`PacketArena::release`] — enforced by the header's live bit, which
/// panics on use-after-take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(pub u32);

impl PacketRef {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A generic slot-recycling slab: `Vec<Option<T>>` plus a free list.
///
/// The calendar's out-of-line timer/control payload storage
/// ([`EventQueue`](crate::event::EventQueue)), and the [`PacketArena`]'s
/// for ACKs too wide for a record.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

// Manual impl: the derive would needlessly require `T: Default`.
impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Parks a value, returning its slot index.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none(), "free slot occupied");
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Removes and returns the value in slot `i`, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (use-after-take).
    pub fn take(&mut self, i: u32) -> T {
        let v = self.slots[i as usize].take().expect("slab slot empty");
        self.free.push(i);
        v
    }

    /// Slot high-water mark: the most values parked at once.
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }
}

/// The slot holds a packet (cleared by `take`/`release`).
const LIVE: u8 = 1;
/// The body is [`Body::Data`] (fixed at insert).
const DATA: u8 = 1 << 1;
/// ECN congestion-experienced ([`Packet::ecn_ce`]).
const ECN_CE: u8 = 1 << 2;
/// Payload trimmed ([`Packet::trimmed`]).
const TRIMMED: u8 = 1 << 3;
/// The body is an ACK parked in the arena's slab (fixed at insert).
const WIDE: u8 = 1 << 4;

/// What the fabric needs of a packet, in 16 bytes.
///
/// Authoritative for `wire_bytes`, the ECN mark and the trim state from
/// [`PacketArena::insert`] until [`PacketArena::take`]; `src`, `dst` and
/// `ev` never change in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Total wire size in bytes (header + payload; shrinks on trim).
    pub wire_bytes: u32,
    /// Entropy value steering ECMP hashing.
    pub ev: u16,
    flags: u8,
}

impl Header {
    /// The header of `pkt` as [`PacketArena::insert`] files it.
    pub fn of(pkt: &Packet) -> Header {
        let mut flags = LIVE;
        match &pkt.body {
            Body::Data { .. } => flags |= DATA,
            Body::Ack(ack) if !fits_record(ack) => flags |= WIDE,
            _ => {}
        }
        if pkt.ecn_ce {
            flags |= ECN_CE;
        }
        if pkt.trimmed {
            flags |= TRIMMED;
        }
        Header {
            src: pkt.src,
            dst: pkt.dst,
            wire_bytes: pkt.wire_bytes,
            ev: pkt.ev,
            flags,
        }
    }

    /// [`Packet::is_data`]: an untrimmed data packet. Everything else
    /// ([`Packet::is_control`]) rides the control priority band.
    #[inline]
    pub fn is_data(&self) -> bool {
        self.flags & (DATA | TRIMMED) == DATA
    }

    /// Whether the body is [`Body::Data`], trimmed or not: the packet is
    /// for the receiving side of its connection.
    #[inline]
    pub fn carries_data(&self) -> bool {
        self.flags & DATA != 0
    }

    /// Whether a switch set the ECN CE codepoint.
    #[inline]
    pub fn ecn_ce(&self) -> bool {
        self.flags & ECN_CE != 0
    }

    /// Whether an overloaded queue trimmed the payload.
    #[inline]
    pub fn trimmed(&self) -> bool {
        self.flags & TRIMMED != 0
    }

    /// Sets the ECN CE codepoint (`pkt.ecn_ce = true`).
    #[inline]
    pub(crate) fn mark_ce(&mut self) {
        self.flags |= ECN_CE;
    }

    /// Trims an untrimmed data packet to its wire header
    /// ([`Packet::trim`]; the body's payload count is zeroed when the
    /// packet is taken).
    #[inline]
    pub(crate) fn trim(&mut self) {
        debug_assert!(self.is_data(), "only untrimmed data packets are trimmed");
        self.flags |= TRIMMED;
        self.wire_bytes = HEADER_BYTES;
    }

    #[inline]
    fn assert_live(&self) {
        assert!(self.flags & LIVE != 0, "arena slot empty");
    }
}

/// Whether `ack` has a per-packet ACK's shape — one SACKed sequence, one
/// echo — and so is stored in its record rather than the slab.
fn fits_record(ack: &Ack) -> bool {
    ack.sacked.len() == 1 && ack.echoes.len() == 1
}

/// What the [`Header`] does not hold of a parked packet, in one cache line
/// (size pinned in this module's tests).
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Record {
    id: u64,
    conn: ConnId,
    body: Stored,
}

/// A [`Body`] as its record stores it: one variant per body kind, with
/// every ACK that does not [fit the record](fits_record) in the slab.
#[derive(Debug, Clone, Copy)]
enum Stored {
    Data {
        seq: u64,
        msg: u32,
        msg_seq: u32,
        msg_pkts: u32,
        tag: u64,
        payload: u32,
        retx: bool,
        pending: u64,
        /// Inserted already trimmed: only a trim in the fabric zeroes the
        /// payload when the packet is taken, as [`Packet::trim`] does.
        trimmed: bool,
    },
    Ack {
        cum_ack: u64,
        sacked: u64,
        echo: EvEcho,
        covered: u32,
        marked: u32,
        reuse: u32,
    },
    /// The slab slot of an ACK that does not fit the record.
    WideAck(u32),
    Nack(u64),
    Credit(u64),
}

/// Hints the CPU to pull the cache line at `p` toward L1.
///
/// Compiled to nothing off `x86_64` and under miri. The engine's batch
/// loop is the only caller: directly, through [`PacketArena`]'s and
/// [`Link`](crate::link::Link)'s `prefetch_*` helpers, and through the
/// endpoints' [`Endpoint::prefetch`](crate::engine::Endpoint::prefetch)
/// hints, which is why it is public.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: PREFETCHT0 is a hint with no architectural effect — it
        // cannot fault, read or write, whatever `p` holds — and SSE is part
        // of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

/// Header/body packet storage with slot recycling (see the module docs).
#[derive(Debug)]
pub struct PacketArena {
    headers: Vec<Header>,
    /// Valid while the header's live bit is set; a freed slot keeps its
    /// stale record until the next `insert` overwrites it.
    records: Vec<Record>,
    /// Each slot's successor in the link band that queues its packet
    /// ([`PacketArena::next`]), grown with `headers`; meaningless while
    /// the packet is not queued, or is its band's tail.
    next: Vec<u32>,
    /// The ACKs behind `WIDE` headers, from `insert` to `take`/`release`.
    wide: Slab<Ack>,
    free: Vec<u32>,
}

/// The per-slot blocks of a [`PacketArena`], cleared: what a dropped arena
/// leaves to the next one its thread builds.
#[derive(Default)]
struct Blocks {
    headers: Vec<Header>,
    records: Vec<Record>,
    next: Vec<u32>,
    free: Vec<u32>,
}

thread_local! {
    /// The largest cleared [`Blocks`] a dropped arena left on this thread.
    static SPARE: Cell<Option<Blocks>> = const { Cell::new(None) };
}

impl Default for PacketArena {
    fn default() -> PacketArena {
        let spare = SPARE.try_with(Cell::take).ok().flatten();
        let Blocks {
            headers,
            records,
            next,
            free,
        } = spare.unwrap_or_default();
        PacketArena {
            headers,
            records,
            next,
            wide: Slab::default(),
            free,
        }
    }
}

impl Drop for PacketArena {
    /// Leaves the arena's blocks, cleared, to the next arena this thread
    /// builds, unless a larger set is already waiting: a worker running
    /// cell after cell regrows none of them. An empty arena assigns slots
    /// in the same order whatever its capacity, so this changes no output.
    fn drop(&mut self) {
        let mut blocks = Blocks {
            headers: std::mem::take(&mut self.headers),
            records: std::mem::take(&mut self.records),
            next: std::mem::take(&mut self.next),
            free: std::mem::take(&mut self.free),
        };
        blocks.headers.clear();
        blocks.records.clear();
        blocks.next.clear();
        blocks.free.clear();
        // A thread already tearing down its locals keeps nothing.
        let _ = SPARE.try_with(|spare| {
            let kept = match spare.take() {
                Some(kept) if kept.records.capacity() >= blocks.records.capacity() => kept,
                _ => blocks,
            };
            spare.set(Some(kept));
        });
    }
}

impl PacketArena {
    /// Creates an empty arena, on the blocks the last arena this thread
    /// dropped left behind if there are any.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Parks a packet, returning its handle.
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        let header = Header::of(&pkt);
        let body = match pkt.body {
            Body::Data {
                seq,
                msg,
                msg_seq,
                msg_pkts,
                tag,
                payload,
                retx,
                pending,
            } => Stored::Data {
                seq,
                msg,
                msg_seq,
                msg_pkts,
                tag,
                payload,
                retx,
                pending,
                trimmed: pkt.trimmed,
            },
            Body::Ack(ack) if fits_record(&ack) => Stored::Ack {
                cum_ack: ack.cum_ack,
                sacked: ack.sacked[0],
                echo: ack.echoes[0],
                covered: ack.covered,
                marked: ack.marked,
                reuse: ack.reuse,
            },
            Body::Ack(ack) => Stored::WideAck(self.wide.insert(ack)),
            Body::Nack { seq } => Stored::Nack(seq),
            Body::Credit { bytes } => Stored::Credit(bytes),
        };
        let record = Record {
            id: pkt.id,
            conn: pkt.conn,
            body,
        };
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.headers[i as usize].flags & LIVE == 0, "free slot live");
                self.headers[i as usize] = header;
                self.records[i as usize] = record;
                PacketRef(i)
            }
            None => {
                self.headers.push(header);
                self.records.push(record);
                self.next.push(0);
                PacketRef((self.headers.len() - 1) as u32)
            }
        }
    }

    /// Removes and returns the packet behind `r` with the fabric's marks
    /// and trim folded in, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (use-after-take).
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let h = self.retire(r);
        let record = self.records[r.index()];
        let body = match record.body {
            Stored::Data {
                seq,
                msg,
                msg_seq,
                msg_pkts,
                tag,
                payload,
                retx,
                pending,
                trimmed,
            } => Body::Data {
                seq,
                msg,
                msg_seq,
                msg_pkts,
                tag,
                payload: if h.trimmed() && !trimmed { 0 } else { payload },
                retx,
                pending,
            },
            Stored::Ack {
                cum_ack,
                sacked,
                echo,
                covered,
                marked,
                reuse,
            } => Body::Ack(Ack {
                cum_ack,
                sacked: SeqList::one(sacked),
                echoes: EchoList::one(echo),
                covered,
                marked,
                reuse,
            }),
            Stored::WideAck(i) => Body::Ack(self.wide.take(i)),
            Stored::Nack(seq) => Body::Nack { seq },
            Stored::Credit(bytes) => Body::Credit { bytes },
        };
        Packet {
            id: record.id,
            src: h.src,
            dst: h.dst,
            conn: record.conn,
            ev: h.ev,
            wire_bytes: h.wire_bytes,
            ecn_ce: h.ecn_ce(),
            trimmed: h.trimmed(),
            body,
        }
    }

    /// Drops the packet behind `r` (lost in the fabric), recycling its
    /// slot without reading its record back unless its ACK is in the slab.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (use-after-take).
    pub fn release(&mut self, r: PacketRef) {
        if self.retire(r).flags & WIDE != 0 {
            let Stored::WideAck(i) = self.records[r.index()].body else {
                unreachable!("a wide header's record holds a slab slot")
            };
            self.wide.take(i);
        }
    }

    /// Clears the live bit and frees the slot; returns the final header.
    #[inline]
    fn retire(&mut self, r: PacketRef) -> Header {
        let h = &mut self.headers[r.index()];
        h.assert_live();
        h.flags &= !LIVE;
        self.free.push(r.0);
        *h
    }

    /// The fabric's view of the packet behind `r`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (use-after-take).
    #[inline]
    pub fn header(&self, r: PacketRef) -> &Header {
        let h = &self.headers[r.index()];
        h.assert_live();
        h
    }

    /// The header in `r`'s slot without the liveness check, for
    /// look-ahead hints only: when `r`'s packet is gone it is the slot's
    /// stale header, or a newer packet's. `None` only for a slot the arena
    /// never had.
    #[inline]
    pub(crate) fn peek_header(&self, r: PacketRef) -> Option<&Header> {
        self.headers.get(r.index())
    }

    /// Mutable header access (marking, trimming).
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (use-after-take).
    #[inline]
    pub(crate) fn header_mut(&mut self, r: PacketRef) -> &mut Header {
        let h = &mut self.headers[r.index()];
        h.assert_live();
        h
    }

    /// The packet queued behind `r` in its link band, as
    /// [`PacketArena::set_next`] last set it: valid while `r` is queued and
    /// not its band's tail.
    #[inline]
    pub(crate) fn next(&self, r: PacketRef) -> PacketRef {
        PacketRef(self.next[r.index()])
    }

    /// Queues `next` behind `r` in `r`'s link band.
    #[inline]
    pub(crate) fn set_next(&mut self, r: PacketRef, next: PacketRef) {
        self.next[r.index()] = next.0;
    }

    /// Number of packets currently parked.
    pub fn live(&self) -> usize {
        self.headers.len() - self.free.len()
    }

    /// Slot high-water mark (diagnostics: peak in-flight packets).
    pub fn high_water(&self) -> usize {
        self.headers.len()
    }

    /// The most ACKs parked in the slab at once (diagnostics: peak
    /// in-flight ACKs that did not fit their record).
    pub fn wide_high_water(&self) -> usize {
        self.wide.high_water()
    }

    /// Prefetches `r`'s header. `r` may be stale or out of range: the
    /// address is computed, never read.
    #[inline]
    pub(crate) fn prefetch_header(&self, r: PacketRef) {
        prefetch(self.headers.as_ptr().wrapping_add(r.index()));
    }

    /// Prefetches `r`'s record, one cache line (a delivery is about to
    /// read it).
    #[inline]
    pub(crate) fn prefetch_body(&self, r: PacketRef) {
        prefetch(self.records.as_ptr().wrapping_add(r.index()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64) -> Packet {
        Packet::data(id, HostId(0), HostId(1), ConnId(0), 0, id, 4096, false)
    }

    #[test]
    fn insert_take_round_trips() {
        let mut a = PacketArena::new();
        let r1 = a.insert(pkt(1));
        let r2 = a.insert(pkt(2));
        assert_eq!(a.live(), 2);
        assert_eq!(*a.header(r1), Header::of(&pkt(1)));
        assert_eq!(a.take(r1), pkt(1));
        assert_eq!(a.live(), 1);
        assert_eq!(a.take(r2), pkt(2));
    }

    #[test]
    fn slots_are_recycled() {
        let mut a = PacketArena::new();
        for round in 0..50u64 {
            let refs: Vec<PacketRef> = (0..4).map(|i| a.insert(pkt(round * 4 + i))).collect();
            for (i, r) in refs.into_iter().enumerate() {
                // Both exits recycle: delivery and in-fabric loss.
                if i % 2 == 0 {
                    a.take(r);
                } else {
                    a.release(r);
                }
            }
        }
        assert_eq!(a.live(), 0);
        assert!(a.high_water() <= 4, "arena grew: {}", a.high_water());
    }

    #[test]
    fn header_marks_and_trims_reach_the_taken_packet() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(1));
        a.header_mut(r).mark_ce();
        assert!(a.header(r).ecn_ce() && a.header(r).is_data());
        a.header_mut(r).trim();
        // Trimmed, it rides the control band but is still the receiver's.
        assert!(!a.header(r).is_data() && a.header(r).carries_data());
        assert_eq!(a.header(r).wire_bytes, HEADER_BYTES);
        let mut want = pkt(1);
        want.ecn_ce = true;
        want.trim();
        assert_eq!(a.take(r), want);
    }

    #[test]
    fn a_record_is_one_cache_line() {
        // A field creeping into `Stored` would make every record two lines.
        assert_eq!(std::mem::size_of::<Record>(), 64);
        assert_eq!(std::mem::align_of::<Record>(), 64);
    }

    #[test]
    fn wide_acks_leave_the_slab_by_either_exit() {
        // Two SACKs: a retransmission's duplicate, too wide for the record.
        let wide = |id: u64| {
            let ack = Ack {
                cum_ack: id,
                sacked: SeqList::from_slice(&[id, id + 1]),
                echoes: EchoList::one(EvEcho { ev: 7, ecn: true }),
                covered: 2,
                marked: 1,
                reuse: 1,
            };
            Packet::control(id, HostId(1), HostId(0), ConnId(0), 7, Body::Ack(ack))
        };
        const ROUND: u64 = 6;
        let mut a = PacketArena::new();
        for round in 0..100 {
            let refs: Vec<(u64, PacketRef)> = (0..ROUND)
                .map(|i| round * ROUND + i)
                .map(|id| (id, a.insert(wide(id))))
                .collect();
            assert_eq!(a.wide.slots.len() - a.wide.free.len(), ROUND as usize);
            for (id, r) in refs {
                if id % 2 == 0 {
                    assert_eq!(a.take(r), wide(id));
                } else {
                    a.release(r);
                }
            }
            assert_eq!(a.wide.free.len(), a.wide.slots.len(), "slab slot leaked");
            assert_eq!(a.wide_high_water(), ROUND as usize, "slab grew");
        }
    }

    #[test]
    #[should_panic(expected = "arena slot empty")]
    fn use_after_take_panics() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(1));
        a.take(r);
        a.header(r);
    }
}
