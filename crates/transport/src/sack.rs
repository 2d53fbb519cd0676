//! Out-of-order receive tracking.
//!
//! The FPGA transport in the paper tracks delivery with SACK bitmaps
//! (256-bit wide on hardware, §4.1); in simulation the bitmap grows with the
//! receive window. [`OooTracker`] records per-connection sequence numbers,
//! maintains the cumulative-ACK frontier and answers "is this a duplicate?"
//! so retransmitted packets are not double-counted.

/// Grow-on-demand sequence bitmap with a cumulative frontier.
#[derive(Debug, Clone, Default)]
pub struct OooTracker {
    /// All sequence numbers below this were received.
    cum: u64,
    /// Bitmap of received sequences at offsets `[cum, cum + 64*words.len())`.
    words: Vec<u64>,
}

impl OooTracker {
    /// Creates an empty tracker.
    pub fn new() -> OooTracker {
        OooTracker::default()
    }

    /// The cumulative frontier: every `seq < cum_ack()` was received.
    pub fn cum_ack(&self) -> u64 {
        self.cum
    }

    /// Whether `seq` was already recorded.
    pub fn contains(&self, seq: u64) -> bool {
        if seq < self.cum {
            return true;
        }
        let off = (seq - self.cum) as usize;
        let (w, b) = (off / 64, off % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Records `seq`; returns `true` if it was new, `false` on duplicate.
    pub fn record(&mut self, seq: u64) -> bool {
        if seq < self.cum {
            return false;
        }
        let off = (seq - self.cum) as usize;
        let (w, b) = (off / 64, off % 64);
        let len = self.words.len();
        if len <= w {
            crate::reserve_doubling(&mut self.words, w + 1 - len);
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & (1 << b) != 0 {
            return false;
        }
        self.words[w] |= 1 << b;
        self.advance();
        true
    }

    /// Pops full leading words / bits to move the cumulative frontier.
    fn advance(&mut self) {
        // Drop fully-set leading words.
        let mut drop_words = 0;
        for w in &self.words {
            if *w == u64::MAX {
                drop_words += 1;
            } else {
                break;
            }
        }
        if drop_words > 0 {
            self.words.drain(..drop_words);
            self.cum += 64 * drop_words as u64;
        }
        // Shift out leading set bits of the first word.
        if let Some(first) = self.words.first().copied() {
            let lead = first.trailing_ones() as u64;
            if lead > 0 {
                self.shift_bits(lead);
            }
        }
    }

    /// Shifts the whole bitmap right by `n` (< 64) bits, advancing `cum`.
    fn shift_bits(&mut self, n: u64) {
        debug_assert!(n < 64);
        let mut carry = 0u64;
        for w in self.words.iter_mut().rev() {
            let new_carry = *w << (64 - n);
            *w = (*w >> n) | carry;
            carry = new_carry;
        }
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        self.cum += n;
    }

    /// Count of received-but-not-cumulative sequences (reorder degree).
    pub fn out_of_order_count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery_advances_cum() {
        let mut t = OooTracker::new();
        for seq in 0..200 {
            assert!(t.record(seq));
            assert_eq!(t.cum_ack(), seq + 1);
        }
        assert_eq!(t.out_of_order_count(), 0);
    }

    #[test]
    fn out_of_order_holds_frontier() {
        let mut t = OooTracker::new();
        assert!(t.record(5));
        assert!(t.record(3));
        assert_eq!(t.cum_ack(), 0);
        assert_eq!(t.out_of_order_count(), 2);
        assert!(t.record(0));
        assert_eq!(t.cum_ack(), 1);
        assert!(t.record(1));
        assert!(t.record(2));
        // 0..=3 and 5 received: frontier at 4.
        assert_eq!(t.cum_ack(), 4);
        assert!(t.record(4));
        assert_eq!(t.cum_ack(), 6);
    }

    #[test]
    fn duplicates_are_rejected() {
        let mut t = OooTracker::new();
        assert!(t.record(7));
        assert!(!t.record(7));
        assert!(t.record(0));
        assert!(!t.record(0), "below-frontier duplicates rejected");
        assert!(t.contains(7));
        assert!(t.contains(0));
        assert!(!t.contains(3));
    }

    #[test]
    fn word_boundary_advance() {
        let mut t = OooTracker::new();
        // Fill 0..128 except 63, then plug the hole.
        for seq in (0..128).filter(|&s| s != 63) {
            t.record(seq);
        }
        assert_eq!(t.cum_ack(), 63);
        t.record(63);
        assert_eq!(t.cum_ack(), 128);
        assert_eq!(t.out_of_order_count(), 0);
    }

    #[test]
    fn reverse_order_delivery() {
        let mut t = OooTracker::new();
        for seq in (0..100).rev() {
            t.record(seq);
        }
        assert_eq!(t.cum_ack(), 100);
        assert_eq!(t.out_of_order_count(), 0);
    }

    #[test]
    fn random_permutation_converges() {
        let mut rng = netsim::rng::Rng64::new(11);
        let mut order: Vec<u64> = (0..1000).collect();
        rng.shuffle(&mut order);
        let mut t = OooTracker::new();
        for seq in order {
            assert!(t.record(seq));
        }
        assert_eq!(t.cum_ack(), 1000);
        assert_eq!(t.out_of_order_count(), 0);
    }

    #[test]
    fn bitmap_starts_at_its_length_and_doubles() {
        let mut t = OooTracker::new();
        // Seq 0 never arrives, so word `k` holds seq `64k + 1`.
        let caps: Vec<usize> = (0..5)
            .map(|k| {
                t.record(64 * k + 1);
                t.words.capacity()
            })
            .collect();
        assert_eq!(caps, [1, 2, 4, 4, 8]);
    }

    #[test]
    fn sparse_far_ahead_sequence() {
        let mut t = OooTracker::new();
        t.record(1000);
        assert_eq!(t.cum_ack(), 0);
        assert!(t.contains(1000));
        assert!(!t.contains(999));
        assert_eq!(t.out_of_order_count(), 1);
    }
}
