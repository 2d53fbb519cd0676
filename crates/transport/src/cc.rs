//! Congestion-control algorithms (§4.1, §4.5.3).
//!
//! The paper pairs REPS with three controllers:
//!
//! * a **DCTCP variant** with per-ACK window updates, as used by MPRDMA —
//!   additive increase on clean ACKs, per-mark decrease, one-MTU reduction
//!   on packet drops;
//! * **EQDS**, a receiver-driven credit scheme (the sender side here; the
//!   receiver pacer lives in the endpoint);
//! * an **"internal"** proprietary algorithm described only as ECN +
//!   congestion-notification + per-flow windows — reproduced as a DCQCN-like
//!   controller with multiplicative decrease and staged recovery.
//!
//! All controllers work in *bytes* and never react to out-of-order delivery,
//! the paper's prerequisite for packet spraying.

use netsim::time::Time;

/// Selects a congestion-control algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcKind {
    /// Per-ACK DCTCP variant (the evaluation default).
    #[default]
    Dctcp,
    /// Receiver-driven credits (EQDS-like).
    Eqds,
    /// DCQCN-like "internal" controller.
    Internal,
}

impl CcKind {
    /// Display label matching the paper's Fig. 15 legend.
    pub fn label(&self) -> &'static str {
        match self {
            CcKind::Dctcp => "DCTCP",
            CcKind::Eqds => "EQDS",
            CcKind::Internal => "INTERNAL",
        }
    }

    /// Inverts [`CcKind::label`].
    pub fn parse(s: &str) -> Result<CcKind, String> {
        match s {
            "DCTCP" => Ok(CcKind::Dctcp),
            "EQDS" => Ok(CcKind::Eqds),
            "INTERNAL" => Ok(CcKind::Internal),
            other => Err(format!("unknown cc {other:?} (DCTCP, EQDS or INTERNAL)")),
        }
    }
}

/// Window/credit bounds shared by the controllers: one per cell
/// ([`TransportConfig::cc_params`](crate::config::TransportConfig)),
/// passed to every call — a controller keeps only its own state.
#[derive(Debug, Clone, Copy)]
pub struct CcParams {
    /// MTU in bytes (window quantum).
    pub mtu: u64,
    /// Initial window (one BDP in the paper's setup).
    pub init_cwnd: u64,
    /// Ceiling for the window.
    pub max_cwnd: u64,
    /// Floor for the window.
    pub min_cwnd: u64,
}

impl CcParams {
    /// Reasonable parameters for a path of `bdp` bytes and `mtu`-byte MTU.
    pub fn for_bdp(bdp: u64, mtu: u64) -> CcParams {
        CcParams {
            mtu,
            init_cwnd: bdp.max(mtu),
            max_cwnd: (bdp * 3 / 2).max(4 * mtu),
            min_cwnd: mtu,
        }
    }
}

/// A per-connection congestion controller, driven with the cell's
/// [`CcParams`].
pub trait CongestionControl {
    /// Current window in bytes.
    fn cwnd(&self, p: &CcParams) -> u64;

    /// Processes an ACK covering `covered` packets, `marked` of them
    /// ECN-marked, acknowledging `bytes` new bytes.
    fn on_ack(&mut self, p: &CcParams, bytes: u64, covered: u32, marked: u32, rtt: Time, now: Time);

    /// A packet was declared lost by timeout.
    fn on_loss(&mut self, p: &CcParams, now: Time);

    /// A packet was trimmed in the fabric (congestion loss, fast-signalled).
    fn on_trim(&mut self, p: &CcParams, now: Time);

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Per-ACK DCTCP variant used by MPRDMA (§4.1).
///
/// Clean ACK: `cwnd += mtu*mtu/cwnd` per covered packet (≈ one MTU per RTT
/// at full utilization). Marked ACK: `cwnd -= mtu/2` per marked packet, but
/// — as in DCTCP, whose per-RTT multiplicative decrease is bounded by
/// `α ≤ 1` — the total decrease within one RTT is capped at half the window
/// the RTT started with. Drop: `cwnd -= mtu`.
#[derive(Debug, Clone)]
pub struct DctcpCc {
    cwnd: f64,
    /// Start of the current decrease-accounting window.
    window_start: Time,
    /// Decrease budget remaining within this RTT.
    decrease_budget: f64,
    /// Exponential growth until the first congestion signal.
    slow_start: bool,
}

impl DctcpCc {
    /// Creates the controller.
    pub fn new(params: CcParams) -> DctcpCc {
        DctcpCc {
            cwnd: params.init_cwnd as f64,
            window_start: Time::ZERO,
            decrease_budget: params.init_cwnd as f64 / 2.0,
            slow_start: true,
        }
    }

    fn roll_window(&mut self, rtt: Time, now: Time) {
        if now.saturating_sub(self.window_start) >= rtt {
            self.window_start = now;
            self.decrease_budget = self.cwnd / 2.0;
        }
    }
}

impl CongestionControl for DctcpCc {
    fn cwnd(&self, _p: &CcParams) -> u64 {
        self.cwnd as u64
    }

    fn on_ack(
        &mut self,
        p: &CcParams,
        _bytes: u64,
        covered: u32,
        marked: u32,
        rtt: Time,
        now: Time,
    ) {
        self.roll_window(rtt, now);
        let mtu = p.mtu as f64;
        let clean = covered.saturating_sub(marked);
        if marked > 0 {
            self.slow_start = false;
        }
        if self.slow_start {
            // Exponential probing until the first congestion signal.
            self.cwnd += clean as f64 * mtu;
        } else {
            self.cwnd += clean as f64 * mtu * mtu / self.cwnd;
        }
        let decrease = (marked as f64 * mtu / 2.0).min(self.decrease_budget);
        self.decrease_budget -= decrease;
        self.cwnd -= decrease;
        self.cwnd = self.cwnd.clamp(p.min_cwnd as f64, p.max_cwnd as f64);
    }

    fn on_loss(&mut self, p: &CcParams, _now: Time) {
        self.slow_start = false;
        self.cwnd = (self.cwnd - p.mtu as f64).max(p.min_cwnd as f64);
    }

    fn on_trim(&mut self, p: &CcParams, now: Time) {
        self.on_loss(p, now);
    }

    fn name(&self) -> &'static str {
        "DCTCP"
    }
}

/// Sender half of the EQDS-like receiver-driven controller.
///
/// The "window" is a speculative allowance of one BDP; beyond it the sender
/// transmits only against credits granted by the receiver pacer (see
/// `endpoint::HostEndpoint`). Congestion signals barely matter to the sender
/// because the receiver controls the inflow; drops still shrink the
/// speculative allowance to be safe.
#[derive(Debug, Clone)]
pub struct EqdsCc {
    /// Unsolicited (speculative) allowance remaining.
    speculative: u64,
    /// Credits granted by the receiver, in bytes.
    credits: u64,
}

impl EqdsCc {
    /// Creates the controller with one BDP of speculative allowance.
    pub fn new(params: CcParams) -> EqdsCc {
        EqdsCc {
            speculative: params.init_cwnd,
            credits: 0,
        }
    }

    /// Adds receiver-granted credit.
    pub fn grant(&mut self, bytes: u64) {
        self.credits = self.credits.saturating_add(bytes);
    }

    /// Consumes allowance for one outgoing packet, spending granted credits
    /// before the speculative budget (splitting across both if needed);
    /// returns `false` when the packet may not be sent yet.
    pub fn consume(&mut self, bytes: u64) -> bool {
        if self.credits + self.speculative < bytes {
            return false;
        }
        let from_credits = self.credits.min(bytes);
        self.credits -= from_credits;
        self.speculative -= bytes - from_credits;
        true
    }

    /// Bytes currently spendable.
    pub fn available(&self) -> u64 {
        self.credits + self.speculative
    }
}

impl CongestionControl for EqdsCc {
    fn cwnd(&self, p: &CcParams) -> u64 {
        // For window-style gating the EQDS sender exposes its spendable
        // allowance; the endpoint additionally gates sends via `consume`.
        p.max_cwnd
    }

    fn on_ack(&mut self, _: &CcParams, _: u64, _: u32, _: u32, _: Time, _: Time) {
        // Receiver-driven: ACKs do not change the sender allowance.
    }

    fn on_loss(&mut self, p: &CcParams, _now: Time) {
        self.speculative = self.speculative.saturating_sub(p.mtu);
    }

    fn on_trim(&mut self, p: &CcParams, now: Time) {
        self.on_loss(p, now);
    }

    fn name(&self) -> &'static str {
        "EQDS"
    }
}

/// DCQCN-like "internal" controller (§4.5.3).
///
/// Marked ACKs trigger a multiplicative decrease (at most once per RTT,
/// mimicking CNP pacing); clean traffic recovers additively, with a faster
/// "hyper-increase" stage once five clean RTTs accumulate.
#[derive(Debug, Clone)]
pub struct InternalCc {
    cwnd: f64,
    last_decrease: Time,
    clean_rtts: u32,
    rtt_mark: Time,
}

impl InternalCc {
    /// Creates the controller.
    pub fn new(params: CcParams) -> InternalCc {
        InternalCc {
            cwnd: params.init_cwnd as f64,
            last_decrease: Time::ZERO,
            clean_rtts: 0,
            rtt_mark: Time::ZERO,
        }
    }
}

impl CongestionControl for InternalCc {
    fn cwnd(&self, _p: &CcParams) -> u64 {
        self.cwnd as u64
    }

    fn on_ack(
        &mut self,
        p: &CcParams,
        _bytes: u64,
        covered: u32,
        marked: u32,
        rtt: Time,
        now: Time,
    ) {
        let mtu = p.mtu as f64;
        if marked > 0 {
            // CNP-style: decrease by 1/8, rate-limited to once per RTT.
            if now.saturating_sub(self.last_decrease) >= rtt {
                self.cwnd *= 0.875;
                self.last_decrease = now;
            }
            self.clean_rtts = 0;
            self.rtt_mark = now;
        } else {
            // Track clean RTT rounds for the recovery stage.
            if now.saturating_sub(self.rtt_mark) >= rtt {
                self.clean_rtts = self.clean_rtts.saturating_add(1);
                self.rtt_mark = now;
            }
            let aggressiveness = if self.clean_rtts >= 5 { 4.0 } else { 1.0 };
            self.cwnd += aggressiveness * covered as f64 * mtu * mtu / self.cwnd;
        }
        self.cwnd = self.cwnd.clamp(p.min_cwnd as f64, p.max_cwnd as f64);
    }

    fn on_loss(&mut self, p: &CcParams, now: Time) {
        self.cwnd = (self.cwnd * 0.5).max(p.min_cwnd as f64);
        self.last_decrease = now;
        self.clean_rtts = 0;
    }

    fn on_trim(&mut self, p: &CcParams, now: Time) {
        self.cwnd = (self.cwnd * 0.875).max(p.min_cwnd as f64);
        self.last_decrease = now;
        self.clean_rtts = 0;
    }

    fn name(&self) -> &'static str {
        "INTERNAL"
    }
}

/// Concrete controller dispatch.
///
/// The sender stores this enum rather than a trait object so the endpoint
/// can reach EQDS-specific operations ([`EqdsCc::grant`]/[`EqdsCc::consume`])
/// without downcasting.
#[derive(Debug, Clone)]
pub enum Cc {
    /// Per-ACK DCTCP variant.
    Dctcp(DctcpCc),
    /// Receiver-driven EQDS sender half.
    Eqds(EqdsCc),
    /// DCQCN-like internal controller.
    Internal(InternalCc),
}

impl Cc {
    /// Builds a controller of the given kind.
    pub fn build(kind: CcKind, params: CcParams) -> Cc {
        match kind {
            CcKind::Dctcp => Cc::Dctcp(DctcpCc::new(params)),
            CcKind::Eqds => Cc::Eqds(EqdsCc::new(params)),
            CcKind::Internal => Cc::Internal(InternalCc::new(params)),
        }
    }

    /// The EQDS controller, when receiver-driven mode is active.
    pub fn as_eqds_mut(&mut self) -> Option<&mut EqdsCc> {
        match self {
            Cc::Eqds(e) => Some(e),
            _ => None,
        }
    }

    fn inner(&self) -> &dyn CongestionControl {
        match self {
            Cc::Dctcp(c) => c,
            Cc::Eqds(c) => c,
            Cc::Internal(c) => c,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn CongestionControl {
        match self {
            Cc::Dctcp(c) => c,
            Cc::Eqds(c) => c,
            Cc::Internal(c) => c,
        }
    }
}

impl CongestionControl for Cc {
    fn cwnd(&self, p: &CcParams) -> u64 {
        self.inner().cwnd(p)
    }

    fn on_ack(
        &mut self,
        p: &CcParams,
        bytes: u64,
        covered: u32,
        marked: u32,
        rtt: Time,
        now: Time,
    ) {
        self.inner_mut().on_ack(p, bytes, covered, marked, rtt, now);
    }

    fn on_loss(&mut self, p: &CcParams, now: Time) {
        self.inner_mut().on_loss(p, now);
    }

    fn on_trim(&mut self, p: &CcParams, now: Time) {
        self.inner_mut().on_trim(p, now);
    }

    fn name(&self) -> &'static str {
        self.inner().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CcParams {
        CcParams::for_bdp(400_000, 4096)
    }

    const RTT: Time = Time(10_000_000); // 10 us.

    #[test]
    fn dctcp_grows_on_clean_acks() {
        let p = params();
        let mut cc = DctcpCc::new(p);
        let w0 = cc.cwnd(&p);
        for i in 0..100 {
            cc.on_ack(&p, 4096, 1, 0, RTT, Time::from_us(i));
        }
        assert!(cc.cwnd(&p) > w0);
        assert!(cc.cwnd(&p) <= params().max_cwnd);
    }

    #[test]
    fn dctcp_shrinks_on_marks() {
        let p = params();
        let mut cc = DctcpCc::new(p);
        let w0 = cc.cwnd(&p);
        for i in 0..50 {
            cc.on_ack(&p, 4096, 1, 1, RTT, Time::from_us(i));
        }
        assert!(cc.cwnd(&p) < w0);
        assert!(cc.cwnd(&p) >= params().min_cwnd);
    }

    #[test]
    fn dctcp_loss_costs_one_mtu() {
        let p = params();
        let mut cc = DctcpCc::new(p);
        let w0 = cc.cwnd(&p);
        cc.on_loss(&p, Time::from_us(1));
        assert_eq!(cc.cwnd(&p), w0 - 4096);
    }

    #[test]
    fn dctcp_never_leaves_bounds() {
        let p = params();
        let mut cc = DctcpCc::new(p);
        for i in 0..10_000 {
            cc.on_ack(&p, 4096, 1, 1, RTT, Time::from_us(i));
            cc.on_loss(&p, Time::from_us(i));
        }
        assert_eq!(cc.cwnd(&p), p.min_cwnd);
        for i in 0..100_000 {
            cc.on_ack(&p, 4096, 4, 0, RTT, Time::from_us(i));
        }
        assert_eq!(cc.cwnd(&p), p.max_cwnd);
    }

    #[test]
    fn eqds_speculative_then_credit_gated() {
        let p = params();
        let mut cc = EqdsCc::new(p);
        let mut sent = 0u64;
        while cc.consume(4096) {
            sent += 4096;
        }
        assert_eq!(sent, params().init_cwnd / 4096 * 4096);
        // Blocked until the receiver grants.
        assert!(!cc.consume(4096));
        cc.grant(8192);
        assert!(cc.consume(4096));
        assert!(cc.consume(4096));
        assert!(!cc.consume(4096));
    }

    #[test]
    fn eqds_loss_erodes_speculative_allowance() {
        let p = params();
        let mut cc = EqdsCc::new(p);
        let a0 = cc.available();
        cc.on_loss(&p, Time::from_us(1));
        assert_eq!(cc.available(), a0 - 4096);
    }

    #[test]
    fn internal_decrease_is_rate_limited() {
        let p = params();
        let mut cc = InternalCc::new(p);
        let w0 = cc.cwnd(&p);
        // Two marks within the same RTT: only one decrease.
        cc.on_ack(&p, 4096, 1, 1, RTT, Time::from_us(100));
        let w1 = cc.cwnd(&p);
        cc.on_ack(&p, 4096, 1, 1, RTT, Time::from_us(101));
        let w2 = cc.cwnd(&p);
        assert!(w1 < w0);
        assert_eq!(w1, w2, "second mark within the RTT must not decrease");
        // A mark one RTT later decreases again.
        cc.on_ack(&p, 4096, 1, 1, RTT, Time::from_us(120));
        assert!(cc.cwnd(&p) < w2);
    }

    #[test]
    fn internal_hyper_increase_after_clean_period() {
        let p = params();
        let mut cc = InternalCc::new(p);
        cc.on_loss(&p, Time::from_us(0));
        let w0 = cc.cwnd(&p);
        // Feed clean ACKs over many RTTs; growth accelerates after 5 rounds.
        let mut early_growth = 0.0;
        let mut late_growth = 0.0;
        let mut prev = w0 as f64;
        for round in 0..10u64 {
            for i in 0..10 {
                cc.on_ack(&p, 4096, 1, 0, RTT, Time::from_us(round * 10 + i + 1));
            }
            let now = cc.cwnd(&p) as f64;
            if round < 3 {
                early_growth += now - prev;
            } else if round >= 6 {
                late_growth += now - prev;
            }
            prev = now;
        }
        assert!(
            late_growth > early_growth,
            "recovery must accelerate: early {early_growth}, late {late_growth}"
        );
    }

    #[test]
    fn factory_builds_all_kinds() {
        for kind in [CcKind::Dctcp, CcKind::Eqds, CcKind::Internal] {
            let p = params();
            let cc = Cc::build(kind, p);
            assert!(!cc.name().is_empty());
            assert!(cc.cwnd(&p) > 0);
        }
        assert_eq!(CcKind::Eqds.label(), "EQDS");
    }
}
