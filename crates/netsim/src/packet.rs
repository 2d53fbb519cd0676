//! Packet representation shared by the fabric and the transport layer.
//!
//! The simulator models a UET-style (Ultra Ethernet Transport) wire format:
//! data packets carry a message id, a per-connection sequence number and an
//! entropy value (EV); acknowledgments echo the EV and the ECN (CE) mark of
//! the packet(s) they cover, optionally carrying several echoed EVs when ACK
//! coalescing is enabled (the paper's *Carry EVs* variant, §4.5.1).

use crate::ids::{ConnId, HostId};

/// Wire overhead per packet: Ethernet + IP + UDP + UET headers, rounded.
pub const HEADER_BYTES: u32 = 64;

/// A single echoed entropy observation carried by an ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvEcho {
    /// The entropy value copied from the data packet's header.
    pub ev: u16,
    /// Whether the data packet arrived with the ECN CE codepoint set.
    pub ecn: bool,
}

/// A small list storing up to `N` elements inline, spilling to the heap
/// only beyond that.
///
/// ACK bodies carry two variable-length lists (SACKed sequences, echoed
/// EVs). With per-packet ACKs — the steady-state hot path — each holds
/// exactly one element, so `Vec`s cost two heap allocations per
/// acknowledged packet. Inline storage makes the per-packet ACK path
/// allocation-free while coalesced ACKs (one per `ratio` packets) may
/// still spill. A connection's own small buffers (message lists, SACK
/// bitmaps, pending-ACK lists) are `SmallList`s for the same reason: most
/// connections never outgrow the inline part, so opening one costs no
/// heap block for them.
///
/// Growing an inline list past `N` spills it to a heap block of exactly
/// the length needed; a spilled list then grows as a `Vec` does
/// (doubling) and, like a `Vec`, keeps its block when it shrinks.
/// Equality is by *content*, not representation.
#[derive(Debug, Clone)]
pub enum SmallList<T: Copy + Default, const N: usize> {
    /// Up to `N` elements stored in place.
    Inline {
        /// Number of valid elements in `buf`.
        len: u8,
        /// Inline storage; `buf[..len]` is valid.
        buf: [T; N],
    },
    /// Heap storage for lists that outgrew the inline buffer.
    Spill(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    /// Compile-time guard: the inline length is stored as `u8`, so an
    /// instantiation with `N > 255` would silently truncate lengths.
    const N_FITS_U8: () = assert!(
        N <= u8::MAX as usize,
        "SmallList inline capacity exceeds u8"
    );

    /// An empty list (inline, no allocation).
    pub fn new() -> SmallList<T, N> {
        #[allow(clippy::let_unit_value)]
        let () = Self::N_FITS_U8;
        SmallList::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// Builds a list from a slice: inline when it fits, one exact-size
    /// allocation otherwise.
    pub fn from_slice(items: &[T]) -> SmallList<T, N> {
        #[allow(clippy::let_unit_value)]
        let () = Self::N_FITS_U8;
        if items.len() <= N {
            let mut buf = [T::default(); N];
            buf[..items.len()].copy_from_slice(items);
            SmallList::Inline {
                len: items.len() as u8,
                buf,
            }
        } else {
            SmallList::Spill(items.to_vec())
        }
    }

    /// A one-element list (inline, no allocation).
    pub fn one(item: T) -> SmallList<T, N> {
        SmallList::from_slice(&[item])
    }

    /// Appends an element, spilling to the heap at inline capacity.
    #[inline]
    pub fn push(&mut self, item: T) {
        match self {
            SmallList::Inline { len, buf } if (*len as usize) < N => {
                buf[*len as usize] = item;
                *len += 1;
            }
            SmallList::Spill(v) => v.push(item),
            SmallList::Inline { .. } => {
                let mut v = self.spilled(N + 1);
                v.push(item);
                *self = SmallList::Spill(v);
            }
        }
    }

    /// The elements in a heap block of exactly `capacity`: what an inline
    /// list outgrowing `N` moves to. Off the inline fast paths.
    #[cold]
    #[inline(never)]
    fn spilled(&self, capacity: usize) -> Vec<T> {
        let mut v = Vec::with_capacity(capacity);
        v.extend_from_slice(self.as_slice());
        v
    }

    /// Keeps the first `new_len` elements, dropping the rest.
    #[inline]
    pub fn truncate(&mut self, new_len: usize) {
        match self {
            SmallList::Inline { len, .. } => *len = (*len).min(new_len.min(N) as u8),
            SmallList::Spill(v) => v.truncate(new_len),
        }
    }

    /// Removes every element.
    #[inline]
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Grows or shrinks the list to `new_len`, filling new slots with
    /// `value`; past `N` an inline list spills to exactly `new_len`.
    #[inline]
    pub fn resize(&mut self, new_len: usize, value: T) {
        match self {
            SmallList::Inline { len, buf } if new_len <= N => {
                for slot in buf.iter_mut().take(new_len).skip(*len as usize) {
                    *slot = value;
                }
                *len = new_len as u8;
            }
            SmallList::Spill(v) => v.resize(new_len, value),
            SmallList::Inline { .. } => {
                let mut v = self.spilled(new_len);
                v.resize(new_len, value);
                *self = SmallList::Spill(v);
            }
        }
    }

    /// Makes room for at least `additional` more elements; past `N` an
    /// inline list spills to exactly the length plus `additional`.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            SmallList::Inline { len, .. } if usize::from(*len) + additional <= N => {}
            SmallList::Spill(v) => v.reserve(additional),
            SmallList::Inline { .. } => {
                *self = SmallList::Spill(self.spilled(self.len() + additional))
            }
        }
    }

    /// Removes the first `n` elements (every element, if fewer), moving
    /// the rest to the front.
    #[inline]
    pub fn drop_front(&mut self, n: usize) {
        match self {
            SmallList::Inline { len, buf } => {
                let live = usize::from(*len).min(N);
                let n = n.min(live);
                buf.copy_within(n..live, 0);
                *len -= n as u8;
            }
            SmallList::Spill(v) => {
                v.drain(..n.min(v.len()));
            }
        }
    }

    /// How many elements the list holds without allocating: `N` inline,
    /// the heap block's capacity once spilled.
    pub fn capacity(&self) -> usize {
        match self {
            SmallList::Inline { .. } => N,
            SmallList::Spill(v) => v.capacity(),
        }
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // `len <= N` always holds; the `min` shows the compiler so, which
        // drops the slice's bounds check from every inline access.
        match self {
            SmallList::Inline { len, buf } => &buf[..usize::from(*len).min(N)],
            SmallList::Spill(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> SmallList<T, N> {
        SmallList::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for SmallList<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::DerefMut for SmallList<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            SmallList::Inline { len, buf } => &mut buf[..usize::from(*len).min(N)],
            SmallList::Spill(v) => v,
        }
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &SmallList<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SmallList<T, N> {
        let mut list = SmallList::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

/// The SACKed-sequence list of an [`Ack`]: per-packet ACKs carry one
/// sequence; duplicates from retransmission races push it to two or
/// three, still inline.
pub type SeqList = SmallList<u64, 3>;

/// The echoed-EV list of an [`Ack`]: one echo per ACK except under the
/// *Carry EVs* coalescing variant.
pub type EchoList = SmallList<EvEcho, 5>;

/// Transport-level payload of a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A data segment of a message.
    Data {
        /// Sequence number of this packet within its connection.
        seq: u64,
        /// Message index within the connection.
        msg: u32,
        /// Packet index within the message.
        msg_seq: u32,
        /// Total packets in the message (receiver-side completion).
        msg_pkts: u32,
        /// Opaque workload tag identifying the message (collective phases).
        tag: u64,
        /// Number of payload bytes carried (0 when trimmed).
        payload: u32,
        /// True when this is a retransmission.
        retx: bool,
        /// Sender's still-unsent bytes (EQDS receiver-driven demand hint).
        pending: u64,
    },
    /// An acknowledgment, possibly covering several data packets.
    Ack(Ack),
    /// A negative acknowledgment for a trimmed packet (trimming fast path).
    Nack {
        /// Sequence number whose payload was trimmed in the fabric.
        seq: u64,
    },
    /// A receiver-driven credit grant (EQDS-style congestion control).
    Credit {
        /// Number of payload bytes the sender may now transmit.
        bytes: u64,
    },
}

/// An acknowledgment body.
#[derive(Debug, Clone, PartialEq)]
pub struct Ack {
    /// Highest sequence number such that all packets below it were received.
    pub cum_ack: u64,
    /// Sequence numbers (possibly several when coalescing) acknowledged by
    /// this ACK, beyond the cumulative prefix.
    pub sacked: SeqList,
    /// Echoed entropy observations, oldest first.
    ///
    /// With per-packet ACKs this has exactly one element; with the
    /// *Carry EVs* coalescing variant it has up to the coalescing ratio.
    pub echoes: EchoList,
    /// Number of data packets this ACK covers (for ACK-clocked senders).
    pub covered: u32,
    /// Number of covered packets that carried an ECN mark.
    pub marked: u32,
    /// How many times each echoed entropy may be recycled (the *Reuse EVs*
    /// coalescing variant, §4.5.1; 1 in all other configurations).
    pub reuse: u32,
}

/// A packet traversing the simulated fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique id, assigned at creation, for tracing.
    pub id: u64,
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Connection this packet belongs to.
    pub conn: ConnId,
    /// Entropy value steering ECMP hashing.
    pub ev: u16,
    /// Total wire size in bytes (header + payload).
    pub wire_bytes: u32,
    /// ECN congestion-experienced mark, set by switches under RED.
    pub ecn_ce: bool,
    /// Whether the payload was trimmed by an overloaded queue.
    pub trimmed: bool,
    /// Transport payload.
    pub body: Body,
}

impl Packet {
    /// Returns `true` for packets that should use the control priority band.
    ///
    /// ACKs, NACKs, credits and trimmed headers are latency-critical
    /// and tiny; real deployments (and htsim's EQDS model) carry them in a
    /// strict-priority class so that congestion feedback survives congestion.
    pub fn is_control(&self) -> bool {
        self.trimmed
            || matches!(
                self.body,
                Body::Ack(_) | Body::Nack { .. } | Body::Credit { .. }
            )
    }

    /// Returns `true` if this is an untrimmed data packet.
    pub fn is_data(&self) -> bool {
        !self.trimmed && matches!(self.body, Body::Data { .. })
    }

    /// Trims the packet to its header, dropping the payload.
    ///
    /// Mirrors switch packet-trimming (§2.1): the header continues through
    /// the fabric (in the control band) so that the receiver can NACK the
    /// loss promptly instead of waiting for a timeout.
    pub fn trim(&mut self) {
        self.trimmed = true;
        self.wire_bytes = HEADER_BYTES;
        if let Body::Data { payload, .. } = &mut self.body {
            *payload = 0;
        }
    }

    /// Convenience constructor for a single-message data packet.
    ///
    /// `seq` doubles as the packet index within a one-message connection;
    /// multi-message senders build [`Body::Data`] directly.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        id: u64,
        src: HostId,
        dst: HostId,
        conn: ConnId,
        ev: u16,
        seq: u64,
        payload: u32,
        retx: bool,
    ) -> Packet {
        Packet {
            id,
            src,
            dst,
            conn,
            ev,
            wire_bytes: payload + HEADER_BYTES,
            ecn_ce: false,
            trimmed: false,
            body: Body::Data {
                seq,
                msg: 0,
                msg_seq: seq as u32,
                msg_pkts: u32::MAX,
                tag: 0,
                payload,
                retx,
                pending: 0,
            },
        }
    }

    /// Convenience constructor for a minimum-size control packet.
    pub fn control(id: u64, src: HostId, dst: HostId, conn: ConnId, ev: u16, body: Body) -> Packet {
        Packet {
            id,
            src,
            dst,
            conn,
            ev,
            wire_bytes: HEADER_BYTES,
            ecn_ce: false,
            trimmed: false,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Packet {
        Packet::data(1, HostId(0), HostId(1), ConnId(0), 42, 7, 4096, false)
    }

    #[test]
    fn data_packet_wire_size_includes_header() {
        let p = sample_data();
        assert_eq!(p.wire_bytes, 4096 + HEADER_BYTES);
        assert!(p.is_data());
        assert!(!p.is_control());
    }

    #[test]
    fn trimming_shrinks_to_header_and_promotes() {
        let mut p = sample_data();
        p.trim();
        assert_eq!(p.wire_bytes, HEADER_BYTES);
        assert!(p.trimmed);
        assert!(p.is_control());
        assert!(!p.is_data());
        match p.body {
            Body::Data { payload, seq, .. } => {
                assert_eq!(payload, 0);
                assert_eq!(seq, 7);
            }
            _ => panic!("trim must preserve the data body"),
        }
    }

    #[test]
    fn small_list_stays_inline_up_to_capacity_then_spills() {
        let mut l: SmallList<u64, 3> = SmallList::new();
        assert!(l.is_empty());
        for v in [7u64, 8, 9] {
            l.push(v);
            assert!(matches!(l, SmallList::Inline { .. }));
        }
        assert_eq!(l.as_slice(), &[7, 8, 9]);
        l.push(10);
        assert!(matches!(l, SmallList::Spill(_)));
        assert_eq!(l.as_slice(), &[7, 8, 9, 10]);
        // Deref + iteration sugar.
        assert_eq!(l.len(), 4);
        assert_eq!(l.last(), Some(&10));
        assert_eq!((&l).into_iter().copied().sum::<u64>(), 34);
        // Writes through the slice land in either representation.
        l[0] = 1;
        let mut inline: SmallList<u64, 3> = SmallList::one(5);
        inline[0] = 6;
        assert_eq!(
            (l.as_slice(), inline.as_slice()),
            (&[1, 8, 9, 10][..], &[6][..])
        );
    }

    #[test]
    fn small_list_equality_is_by_content_not_representation() {
        let inline: SmallList<u64, 3> = SmallList::from_slice(&[1, 2]);
        let spilled = SmallList::<u64, 3>::Spill(vec![1, 2]);
        assert_eq!(inline, spilled);
        assert_ne!(inline, SmallList::from_slice(&[1, 2, 3]));
        let big: SmallList<u64, 3> = SmallList::from_slice(&[1, 2, 3, 4]);
        assert!(matches!(big, SmallList::Spill(_)));
        assert_eq!(big.as_slice(), &[1, 2, 3, 4]);
        let collected: SmallList<u64, 3> = (1..=2u64).collect();
        assert_eq!(collected, inline);
    }

    #[test]
    fn small_list_resizes_truncates_drops_front_and_clears_across_the_spill() {
        let mut l: SmallList<u64, 1> = SmallList::new();
        l.resize(1, 5);
        assert!(matches!(l, SmallList::Inline { .. }));
        l.resize(3, 6);
        assert_eq!((l.as_slice(), l.capacity()), (&[5, 6, 6][..], 3));
        l.drop_front(1);
        l.truncate(1);
        assert_eq!(l.as_slice(), &[6]);
        assert!(matches!(l, SmallList::Spill(_)), "keeps its block");
        l.clear();
        assert!(l.is_empty());
        let mut inline: SmallList<u64, 3> = SmallList::from_slice(&[1, 2, 3]);
        inline.drop_front(1);
        inline.truncate(1);
        assert_eq!(inline.as_slice(), &[2]);
        inline.drop_front(9);
        assert!(inline.is_empty());
        let mut reserved: SmallList<u64, 3> = SmallList::from_slice(&[1, 2]);
        reserved.reserve(1);
        assert!(matches!(reserved, SmallList::Inline { .. }));
        reserved.reserve(6);
        assert_eq!((reserved.as_slice(), reserved.capacity()), (&[1, 2][..], 8));
    }

    #[test]
    fn acks_are_control() {
        let p = Packet::control(
            2,
            HostId(1),
            HostId(0),
            ConnId(0),
            42,
            Body::Ack(Ack {
                cum_ack: 3,
                sacked: SeqList::new(),
                echoes: EchoList::one(EvEcho { ev: 42, ecn: false }),
                covered: 1,
                marked: 0,
                reuse: 1,
            }),
        );
        assert!(p.is_control());
        assert_eq!(p.wire_bytes, HEADER_BYTES);
    }
}
