//! Transport configuration: load balancer, congestion control, coalescing.

use baselines::kind::LbKind;
use netsim::config::SimConfig;
use netsim::time::Time;

use crate::cc::{CcKind, CcParams};

/// ACK coalescing strategy (§4.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoalesceVariant {
    /// One ACK per `ratio` packets, echoing only the newest entropy.
    #[default]
    Plain,
    /// The coalesced ACK carries all covered entropies (*ACK+Carry EVs*).
    CarryEvs,
    /// Each echoed entropy is recycled `ratio` times (*ACK+Reuse EVs*).
    ReuseEvs,
}

/// ACK coalescing parameters.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceConfig {
    /// Packets per ACK (1 = per-packet ACKs, the paper's default).
    pub ratio: u32,
    /// Variant.
    pub variant: CoalesceVariant,
}

impl Default for CoalesceConfig {
    fn default() -> CoalesceConfig {
        CoalesceConfig {
            ratio: 1,
            variant: CoalesceVariant::Plain,
        }
    }
}

impl CoalesceConfig {
    /// Per-packet acknowledgments.
    pub fn per_packet() -> CoalesceConfig {
        CoalesceConfig::default()
    }

    /// `n:1` coalescing with the given variant.
    pub fn ratio(n: u32, variant: CoalesceVariant) -> CoalesceConfig {
        CoalesceConfig {
            ratio: n.max(1),
            variant,
        }
    }
}

/// Per-host transport parameters. The fabric profile (MTU, RTO, rates)
/// is not copied here: every callback reads it from `Ctx::cfg`.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Load-balancing scheme for every connection of this host.
    pub lb: LbKind,
    /// Congestion-control algorithm.
    pub cc: CcKind,
    /// ACK coalescing.
    pub coalesce: CoalesceConfig,
    /// Window bounds.
    pub cc_params: CcParams,
    /// Base RTT estimate (PLB rounds, initial smoothing).
    pub base_rtt: Time,
    /// Load balancer for background-class traffic (messages whose tag has
    /// [`BACKGROUND_BIT`] set). Models the paper's mixed REPS/ECMP
    /// deployments (§4.3.2, Fig. 6). `None` = same as `lb`.
    pub bg_lb: Option<LbKind>,
}

/// Tag bit marking a message as background-class traffic.
pub const BACKGROUND_BIT: u64 = 1 << 63;

impl TransportConfig {
    /// Derives transport parameters from the fabric profile, assuming the
    /// worst-case hop count of the topology (`hops` one-way switch hops).
    pub fn from_sim(sim: &SimConfig, hops: u32, lb: LbKind) -> TransportConfig {
        let bdp = sim.bdp_bytes(hops);
        TransportConfig {
            lb,
            cc: CcKind::Dctcp,
            coalesce: CoalesceConfig::default(),
            cc_params: CcParams::for_bdp(bdp, sim.mtu_bytes as u64),
            base_rtt: sim.base_rtt(hops),
            bg_lb: None,
        }
    }

    /// The load balancer of a traffic class: `lb`, or `bg_lb` for the
    /// background class when it is set.
    pub fn lb_for(&self, background: bool) -> &LbKind {
        match &self.bg_lb {
            Some(bg) if background => bg,
            _ => &self.lb,
        }
    }

    /// Sets the background-class load balancer (mixed-traffic scenarios).
    pub fn with_background_lb(mut self, lb: LbKind) -> TransportConfig {
        self.bg_lb = Some(lb);
        self
    }

    /// Replaces the congestion controller.
    pub fn with_cc(mut self, cc: CcKind) -> TransportConfig {
        self.cc = cc;
        self
    }

    /// Replaces the coalescing policy.
    pub fn with_coalesce(mut self, coalesce: CoalesceConfig) -> TransportConfig {
        self.coalesce = coalesce;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_sane_defaults() {
        let sim = SimConfig::paper_default();
        let cfg = TransportConfig::from_sim(&sim, 4, LbKind::Ops { evs_size: 1 << 16 });
        assert!(cfg.cc_params.init_cwnd >= 300_000);
        assert!(cfg.base_rtt > Time::from_us(8));
    }

    #[test]
    fn coalesce_ratio_clamped() {
        let c = CoalesceConfig::ratio(0, CoalesceVariant::Plain);
        assert_eq!(c.ratio, 1);
    }
}
