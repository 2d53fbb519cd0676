//! The load-balancer interface shared by REPS and every baseline.
//!
//! A load balancer owns the per-connection path-selection state. The
//! transport calls [`LoadBalancer::next_ev`] for every outgoing data packet
//! and feeds back acknowledgment observations, timeouts (failure suspicion)
//! and trimming NACKs (congestion loss). Everything else — windows, pacing,
//! retransmission — is the congestion controller's business.
//!
//! Every balancer implements [`LoadBalancer`], and unit tests, benches and
//! the benchmark's `layerprobe` drive balancers through it. The transport
//! holds no trait objects: each sender stores the closed
//! `baselines::kind::Lb` enum inline and dispatches by `match`, and `Lb`
//! implements this trait by forwarding to the family it holds.

use netsim::rng::Rng64;
use netsim::time::Time;

pub use netsim::trace::EvDecision;

/// Feedback delivered to the load balancer for every processed ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckFeedback {
    /// The entropy value echoed by the receiver.
    pub ev: u16,
    /// Whether the covered packet(s) carried an ECN congestion mark.
    pub ecn: bool,
    /// Arrival time of the ACK at the sender.
    pub now: Time,
    /// The connection's current congestion window, in packets.
    ///
    /// REPS uses this as `NUM_PKTS_CWND` when leaving freezing mode
    /// (Algorithm 1, line 17).
    pub cwnd_packets: u32,
    /// Smoothed round-trip estimate, for RTT-driven balancers (PLB).
    pub rtt: Time,
}

/// A per-connection path selector.
///
/// Implementations must be deterministic given the [`Rng64`] stream they are
/// handed; all randomness flows through that generator.
pub trait LoadBalancer {
    /// Chooses the entropy value for the next outgoing data packet.
    fn next_ev(&mut self, now: Time, rng: &mut Rng64) -> u16;

    /// Observes an acknowledgment.
    fn on_ack(&mut self, fb: &AckFeedback, rng: &mut Rng64);

    /// Observes a retransmission timeout — the transport's failure-suspicion
    /// signal (§2.1: timeouts, optionally refined by trimming).
    fn on_timeout(&mut self, now: Time);

    /// Observes a congestion loss reported through a trimming NACK.
    ///
    /// Unlike a timeout this is *not* failure suspicion: trimming only fires
    /// on congestive overflow (Appendix A), so the default is to ignore it.
    fn on_congestion_loss(&mut self, _ev: u16, _now: Time) {}

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// How the most recent [`next_ev`](LoadBalancer::next_ev) call arrived
    /// at its answer. Balancers without a cache draw fresh every time, so
    /// that is the default.
    fn last_decision(&self) -> EvDecision {
        EvDecision::Fresh
    }

    /// Whether the balancer is currently replaying a frozen path set
    /// (REPS' reconvergence mode). Balancers without the concept never are.
    fn is_frozen(&self) -> bool {
        false
    }

    /// Appends this balancer's decision counters as `(name, value)` pairs.
    ///
    /// Names must be stable identifiers (they become JSONL field names in
    /// the opt-in `diagnostics` block); values are lifetime totals for this
    /// connection. The default exposes nothing.
    fn diagnostics(&self, _out: &mut Vec<(&'static str, u64)>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial balancer for exercising the trait object plumbing.
    struct Fixed(u16);

    impl LoadBalancer for Fixed {
        fn next_ev(&mut self, _now: Time, _rng: &mut Rng64) -> u16 {
            self.0
        }
        fn on_ack(&mut self, _fb: &AckFeedback, _rng: &mut Rng64) {}
        fn on_timeout(&mut self, _now: Time) {}
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut lb: Box<dyn LoadBalancer> = Box::new(Fixed(7));
        let mut rng = Rng64::new(1);
        assert_eq!(lb.next_ev(Time::ZERO, &mut rng), 7);
        assert_eq!(lb.name(), "fixed");
        lb.on_congestion_loss(7, Time::ZERO); // Default impl must not panic.
    }

    #[test]
    fn probe_defaults_are_inert() {
        let lb = Fixed(3);
        assert_eq!(lb.last_decision(), EvDecision::Fresh);
        assert!(!lb.is_frozen());
        let mut out = Vec::new();
        lb.diagnostics(&mut out);
        assert!(out.is_empty());
    }
}
