//! Out-of-order receive tracking.
//!
//! The FPGA transport in the paper tracks delivery with SACK bitmaps
//! (256-bit wide on hardware, §4.1); in simulation the bitmap grows with the
//! receive window. [`OooTracker`] records per-connection sequence numbers,
//! maintains the cumulative-ACK frontier and answers "is this a duplicate?"
//! so retransmitted packets are not double-counted.

use netsim::packet::SmallList;

/// Grow-on-demand sequence bitmap with a cumulative frontier.
#[derive(Debug, Clone, Default)]
pub struct OooTracker {
    /// All sequence numbers below this were received.
    cum: u64,
    /// Bitmap of received sequences at offsets `[cum, cum + 64*words.len())`.
    /// One word is inline: a tracker whose out-of-order span stays within
    /// 64 sequences owns no heap block.
    words: SmallList<u64, 1>,
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
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        let word = &mut self.words[w];
        if *word & (1 << b) != 0 {
            return false;
        }
        *word |= 1 << b;
        // Bit 0 of the first word is the frontier, clear between calls:
        // only filling it moves the frontier.
        if off == 0 {
            self.advance();
        }
        true
    }

    /// Pops full leading words / bits to move the cumulative frontier.
    fn advance(&mut self) {
        let words: &[u64] = &self.words;
        let full = words.iter().take_while(|&&w| w == u64::MAX).count();
        let lead = words.get(full).map_or(0, |w| w.trailing_ones());
        // Drop fully-set leading words.
        if full > 0 {
            self.words.drop_front(full);
            self.cum += 64 * full as u64;
        }
        // Shift out leading set bits of the first word.
        if lead > 0 {
            self.shift_bits(lead as u64);
        }
    }

    /// Shifts the whole bitmap right by `n` (< 64) bits, advancing `cum`,
    /// and drops the all-clear words this leaves at the end.
    fn shift_bits(&mut self, n: u64) {
        debug_assert!(n < 64);
        let words: &mut [u64] = &mut self.words;
        let mut carry = 0u64;
        for w in words.iter_mut().rev() {
            let new_carry = *w << (64 - n);
            *w = (*w >> n) | carry;
            carry = new_carry;
        }
        let clear = words.iter().rev().take_while(|&&w| w == 0).count();
        let kept = words.len() - clear;
        self.words.truncate(kept);
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

    /// Against a set of the sequences seen: arrivals drawn from windows
    /// narrower and wider than one word past the frontier, duplicates
    /// included, so the bitmap moves between its inline word and the heap.
    #[test]
    fn record_matches_a_set_of_the_sequences_seen() {
        let mut rng = netsim::rng::Rng64::new(7);
        let mut t = OooTracker::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut cum = 0;
        for step in 0..20_000u64 {
            let window = [4, 64, 65, 200][(step / 1000 % 4) as usize];
            let seq = t.cum_ack().saturating_sub(2) + rng.gen_range(window + 2);
            assert_eq!(t.record(seq), seen.insert(seq), "seq {seq}");
            while seen.contains(&cum) {
                cum += 1;
            }
            assert_eq!(t.cum_ack(), cum);
            let beyond = seen.range(cum..).count() as u32;
            assert_eq!(t.out_of_order_count(), beyond);
            let probe = cum.saturating_sub(2) + rng.gen_range(window + 4);
            assert_eq!(t.contains(probe), seen.contains(&probe));
        }
        assert!(t.cum_ack() > 5_000, "the frontier kept moving");
    }

    #[test]
    fn bitmap_starts_at_its_length_and_doubles() {
        let mut t = OooTracker::new();
        // Seq 0 never arrives, so word `k` holds seq `64k + 1`.
        let caps: Vec<(usize, bool)> = (0..5)
            .map(|k| {
                t.record(64 * k + 1);
                (t.words.capacity(), matches!(t.words, SmallList::Spill(_)))
            })
            .collect();
        assert_eq!(
            caps,
            [(1, false), (2, true), (4, true), (4, true), (8, true)]
        );
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
