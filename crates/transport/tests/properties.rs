//! Property-based tests for the transport's out-of-order machinery, the
//! sender's in-flight window and congestion controllers.

use std::collections::BTreeMap;

use proptest::prelude::*;

use netsim::time::Time;
use transport::cc::{CcKind, CcParams, CongestionControl, DctcpCc, EqdsCc, InternalCc};
use transport::conn::SeqWindow;
use transport::sack::OooTracker;

proptest! {
    /// The window is the map: under any mix of sends (ascending, with
    /// gaps), retransmissions re-entering at or below the oldest entry,
    /// ACKs of held and of unknown sequences, and RTO-style bulk expiry,
    /// `SeqWindow` holds exactly what a `BTreeMap` holds, agrees on
    /// emptiness, iterates in ascending `seq` and expires in ascending
    /// `seq`.
    #[test]
    fn seq_window_matches_btreemap(
        start in 0u64..1000,
        ops in proptest::collection::vec((0u8..8, any::<u32>()), 1..300),
    ) {
        let mut window: SeqWindow<u32> = SeqWindow::default();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let mut next = start;
        for (op, x) in ops {
            let oldest = model.keys().next().copied().unwrap_or(next);
            match op {
                // Send the next sequence, sometimes skipping a few.
                0..=2 => {
                    next += (x % 4 == 0) as u64 * (x as u64 % 7);
                    prop_assert_eq!(window.insert(next, x), model.insert(next, x));
                    next += 1;
                }
                // Re-insert below (or at) the oldest entry: a
                // retransmission of something no longer in flight.
                3 => {
                    let seq = oldest.saturating_sub(x as u64 % 9);
                    prop_assert_eq!(window.insert(seq, x), model.insert(seq, x));
                }
                // ACK a held sequence (any position in the window).
                4 | 5 => {
                    if let Some(&seq) = model.keys().nth(x as usize % model.len().max(1)) {
                        prop_assert_eq!(window.remove(seq), model.remove(&seq));
                    }
                }
                // ACK a sequence that may not be there: inside the span,
                // below it, above it.
                6 => {
                    let seq = (oldest + x as u64 % 40).saturating_sub(10);
                    prop_assert_eq!(window.remove(seq), model.remove(&seq));
                }
                // Expire everything matching a predicate, in order.
                _ => {
                    let expired = |v: &u32| v % 3 == x % 3;
                    let mut got = Vec::new();
                    window.remove_where(expired, |seq, v| got.push((seq, v)));
                    let want: Vec<(u64, u32)> =
                        model.iter().filter(|(_, v)| expired(v)).map(|(&s, &v)| (s, v)).collect();
                    model.retain(|_, v| !expired(v));
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(window.is_empty(), model.is_empty());
            let held: Vec<(u64, u32)> = window.iter().map(|(s, &v)| (s, v)).collect();
            let want: Vec<(u64, u32)> = model.iter().map(|(&s, &v)| (s, v)).collect();
            prop_assert_eq!(held, want);
        }
    }

    /// The OOO tracker converges to a full frontier for any delivery order
    /// and rejects all duplicates.
    #[test]
    fn ooo_tracker_any_permutation(len in 1usize..512, seed in any::<u64>()) {
        let mut order: Vec<u64> = (0..len as u64).collect();
        let mut rng = netsim::rng::Rng64::new(seed);
        rng.shuffle(&mut order);
        let mut t = OooTracker::new();
        for &seq in &order {
            prop_assert!(t.record(seq), "fresh seq {seq} rejected");
        }
        for &seq in &order {
            prop_assert!(!t.record(seq), "duplicate seq {seq} accepted");
        }
        prop_assert_eq!(t.cum_ack(), len as u64);
        prop_assert_eq!(t.out_of_order_count(), 0);
    }

    /// The tracker's frontier never exceeds the highest recorded seq + 1 and
    /// never decreases.
    #[test]
    fn ooo_tracker_frontier_monotone(seqs in proptest::collection::vec(0u64..2048, 1..256)) {
        let mut t = OooTracker::new();
        let mut last_cum = 0;
        let mut max_seen = 0;
        for &seq in &seqs {
            t.record(seq);
            max_seen = max_seen.max(seq);
            prop_assert!(t.cum_ack() >= last_cum, "frontier went backwards");
            prop_assert!(t.cum_ack() <= max_seen + 1);
            last_cum = t.cum_ack();
        }
    }

    /// Every congestion controller stays within its window bounds under any
    /// interleaving of ACKs (marked or clean), losses and trims.
    #[test]
    fn cc_windows_stay_bounded(
        kind_idx in 0usize..3,
        events in proptest::collection::vec((0u8..4, 0u32..8), 1..400),
    ) {
        let params = CcParams::for_bdp(400_000, 4096);
        let kind = [CcKind::Dctcp, CcKind::Eqds, CcKind::Internal][kind_idx];
        let mut cc: Box<dyn CongestionControl> = match kind {
            CcKind::Dctcp => Box::new(DctcpCc::new(params)),
            CcKind::Eqds => Box::new(EqdsCc::new(params)),
            CcKind::Internal => Box::new(InternalCc::new(params)),
        };
        let rtt = Time::from_us(10);
        let mut now = Time::ZERO;
        for (ev, n) in events {
            now += Time::from_us(1);
            match ev {
                0 => cc.on_ack(&params, 4096 * n as u64, n.max(1), 0, rtt, now),
                1 => cc.on_ack(&params, 4096 * n as u64, n.max(1), n.max(1), rtt, now),
                2 => cc.on_loss(&params, now),
                _ => cc.on_trim(&params, now),
            }
            let w = cc.cwnd(&params);
            prop_assert!(w >= params.min_cwnd, "{} cwnd {w} below floor", cc.name());
            prop_assert!(w <= params.max_cwnd, "{} cwnd {w} above ceiling", cc.name());
        }
    }

    /// EQDS credit accounting: spendable allowance equals grants plus the
    /// speculative budget minus consumption, and consume never overdraws.
    #[test]
    fn eqds_credit_conservation(
        ops in proptest::collection::vec((any::<bool>(), 1u64..20_000), 1..200),
    ) {
        let params = CcParams::for_bdp(400_000, 4096);
        let mut eqds = EqdsCc::new(params);
        let mut granted = 0u64;
        let mut consumed = 0u64;
        let initial = eqds.available();
        for (is_grant, amount) in ops {
            if is_grant {
                eqds.grant(amount);
                granted += amount;
            } else if eqds.consume(amount) {
                consumed += amount;
            } else {
                prop_assert!(eqds.available() < amount,
                    "refusal with sufficient allowance");
            }
            prop_assert_eq!(eqds.available(), initial + granted - consumed);
        }
    }
}
