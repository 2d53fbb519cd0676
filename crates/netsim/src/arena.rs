//! The engine-owned packet arena: a dense header array beside the bodies.
//!
//! A [`Packet`] is 120 bytes and straddles cache lines, but a switch hop
//! needs 15 of them: where the packet is going (`src`, `dst`, `ev`), how
//! long it occupies the wire (`wire_bytes`) and three flags (is the body
//! `Data`, is it ECN-marked, was it trimmed). The arena therefore stores
//! every in-fabric packet twice over:
//!
//! * a 16-byte [`Header`] in one dense array — four to a cache line — which
//!   is the *single source of truth* for those fields while the packet is
//!   in the fabric. Link admission, service, routing, RED marking and
//!   trimming read and write only the header;
//! * the `Packet` itself (the *body*) in a parallel array, written once
//!   when the host hands the packet to its NIC and not opened again until
//!   [`PacketArena::take`] delivers it — which folds the header's mark and
//!   trim back in, so the endpoint receives exactly the packet by-value
//!   marking and [`Packet::trim`] would have produced. Packets that die in
//!   the fabric are [`PacketArena::release`]d without the body being read
//!   back at all.
//!
//! The calendar and link queues pass a 4-byte [`PacketRef`]. Freed slots go
//! on a free list and are reused before the arrays grow, so the arena
//! converges to the simulation's in-flight high-water mark and then
//! recycles slots without touching the allocator — one of the invariants
//! behind the zero-allocation switch path (see the allocation-counting
//! test in `tests/alloc.rs`). A header's *live* bit is asserted on every
//! access, so a ref used after `take`/`release` panics instead of reading
//! a recycled slot.

use crate::ids::HostId;
use crate::packet::{Body, Packet, HEADER_BYTES};

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
/// ([`EventQueue`](crate::event::EventQueue)).
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
}

/// The slot holds a packet (cleared by `take`/`release`).
const LIVE: u8 = 1;
/// The body is [`Body::Data`] (fixed at insert).
const DATA: u8 = 1 << 1;
/// ECN congestion-experienced ([`Packet::ecn_ce`]).
const ECN_CE: u8 = 1 << 2;
/// Payload trimmed ([`Packet::trimmed`]).
const TRIMMED: u8 = 1 << 3;

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
        if matches!(pkt.body, Body::Data { .. }) {
            flags |= DATA;
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

/// Hints the CPU to pull the cache line at `p` toward L1.
///
/// Compiled to nothing off `x86_64` and under miri. The engine's batch
/// loop is the only caller (through [`PacketArena`]'s and
/// [`Link`](crate::link::Link)'s `prefetch_*` helpers).
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
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
#[derive(Debug, Default)]
pub struct PacketArena {
    headers: Vec<Header>,
    /// `Some` from `insert` to `take`. A `release`d slot keeps its stale
    /// body until the next `insert` overwrites it.
    bodies: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Parks a packet, returning its handle.
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        let header = Header::of(&pkt);
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.headers[i as usize].flags & LIVE == 0, "free slot live");
                self.headers[i as usize] = header;
                self.bodies[i as usize] = Some(pkt);
                PacketRef(i)
            }
            None => {
                self.headers.push(header);
                self.bodies.push(Some(pkt));
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
        let header = self.retire(r);
        let mut pkt = self.bodies[r.index()].take().expect("live slot has a body");
        if header.trimmed() && !pkt.trimmed {
            pkt.trim();
        }
        pkt.ecn_ce = header.ecn_ce();
        debug_assert_eq!(pkt.wire_bytes, header.wire_bytes);
        pkt
    }

    /// Drops the packet behind `r` (lost in the fabric), recycling its
    /// slot without reading the body back.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (use-after-take).
    pub fn release(&mut self, r: PacketRef) {
        self.retire(r);
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

    /// Number of packets currently parked.
    pub fn live(&self) -> usize {
        self.headers.len() - self.free.len()
    }

    /// Slot high-water mark (diagnostics: peak in-flight packets).
    pub fn high_water(&self) -> usize {
        self.headers.len()
    }

    /// Prefetches `r`'s header. `r` may be stale or out of range: the
    /// address is computed, never read.
    #[inline]
    pub(crate) fn prefetch_header(&self, r: PacketRef) {
        prefetch(self.headers.as_ptr().wrapping_add(r.index()));
    }

    /// Prefetches the two cache lines `r`'s body can span (a delivery is
    /// about to move it out).
    #[inline]
    pub(crate) fn prefetch_body(&self, r: PacketRef) {
        let body = self.bodies.as_ptr().wrapping_add(r.index());
        prefetch(body);
        prefetch(body.cast::<u8>().wrapping_add(64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConnId;

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
        assert!(!a.header(r).is_data());
        assert_eq!(a.header(r).wire_bytes, HEADER_BYTES);
        let mut want = pkt(1);
        want.ecn_ce = true;
        want.trim();
        assert_eq!(a.take(r), want);
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
