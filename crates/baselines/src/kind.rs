//! The load-balancer zoo: a single enum naming every algorithm the paper
//! evaluates, a factory that builds per-connection instances, and the
//! LB-spec family table ([`LbKind::parse`] / [`LbKind::spec`]) that names
//! every scheme *and its tuning* as one canonical string, in the shared
//! [`netsim::grammar`] syntax:
//!
//! ```text
//! REPS                      REPS{evs=256,freeze=off}
//! OPS{evs=4096}             Flowlet{gap=80us}
//! PLB{thresh=0.1,rounds=3}  MPTCP{subflows=4}
//! BitMap{evs=1024,clear=50us}
//! ```
//!
//! | family          | parameters (defaults in parentheses)                                    |
//! |-----------------|-------------------------------------------------------------------------|
//! | `ECMP`          | —                                                                       |
//! | `OPS`           | `evs` (65536)                                                           |
//! | `REPS`          | `evs` (65536), `buf` (8), `freeze` (`on`), `fto` (`100us`), `freezeat` (unset) |
//! | `PLB`           | `evs` (65536), `thresh` (0.05), `rounds` (1)                            |
//! | `Flowlet`       | `gap` (half the paper RTT)                                              |
//! | `BitMap`        | `evs` (65536), `clear` (twice the paper RTT)                            |
//! | `MPRDMA`        | —                                                                       |
//! | `MPTCP`         | `subflows` (8)                                                          |
//! | `Adaptive RoCE` | —                                                                       |
//!
//! `evs`, `buf` and `subflows` are counts up to 65536, `thresh` is a
//! fraction, `freeze` a switch, the rest durations. Two legacy spellings
//! predate the grammar and stay canonical for exactly the configurations
//! they name (they appear in recorded cell keys, which pin derived seeds,
//! shard membership and cache addresses): `REPS-nofreeze`
//! (≡ `REPS{freeze=off}`) and `REPS+freeze@Nus` (≡ `REPS{freezeat=Nus}`).

use netsim::engine::RoutingMode;
use netsim::grammar::{Render, Spec};
use netsim::rng::Rng64;
use netsim::time::Time;
use reps::lb::{AckFeedback, EvDecision, LoadBalancer};
use reps::reps::{Reps, RepsConfig, RepsCounters};

use crate::bitmap::Bitmap;
use crate::ecmp::Ecmp;
use crate::flowlet::Flowlet;
use crate::mprdma::Mprdma;
use crate::mptcp::MptcpLike;
use crate::ops::Ops;
use crate::plb::{Plb, PlbConfig};

/// The RTT estimate the paper's lineups size Flowlet gaps and BitMap aging
/// from (a 3-hop path under the paper-default profile): the grammar's
/// duration defaults for `Flowlet{gap=...}` and `BitMap{clear=...}`.
pub fn paper_rtt() -> Time {
    netsim::config::SimConfig::paper_default().base_rtt(3)
}

/// The default entropy-value-space size: the full 16-bit source-port space.
pub const DEFAULT_EVS: u32 = 1 << 16;

/// The pre-grammar spelling of a forced freezing instant (`REPS+freeze@50us`).
const LEGACY_FREEZE_AT: &str = "REPS+freeze@";

/// Every load-balancing scheme in the paper's comparison (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub enum LbKind {
    /// Recycled Entropy Packet Spraying (the contribution).
    Reps(RepsConfig),
    /// Oblivious packet spraying over `evs_size` entropies.
    Ops {
        /// EVS size.
        evs_size: u32,
    },
    /// Static per-flow ECMP.
    Ecmp,
    /// Protective Load Balancing (aggressive, FlowBender-like tuning).
    Plb(PlbConfig),
    /// Flowlet switching with the given inactivity gap.
    Flowlet {
        /// Flowlet inactivity timeout (the paper uses RTT/2).
        gap: Time,
    },
    /// MPRDMA-style one-deep ACK clocking.
    Mprdma,
    /// STrack-like per-EV congestion bitmap.
    Bitmap {
        /// EVS size (bits of state).
        evs_size: u32,
        /// Aging period for congestion marks.
        clear_period: Time,
    },
    /// MPTCP-like striping over static subflows.
    MptcpLike {
        /// Subflow count (the paper uses 8).
        subflows: usize,
    },
    /// Switch-side per-packet adaptive routing (NVIDIA Adaptive RoCE
    /// stand-in). Hosts spray obliviously; switches pick the least-loaded
    /// uplink.
    AdaptiveRoce,
}

/// One connection's balancer: every family's per-connection state, held
/// inline (a sender stores it by value) and dispatched by `match`.
///
/// [`LbKind::build`] returns one, and a new spraying family is one more
/// variant. Adaptive RoCE hosts spray obliviously, so they build an
/// [`Lb::Ops`]. REPS keeps only Table 1's state per connection: its
/// configuration is the cell's [`LbKind`] and its decision counters are a
/// host's, so an `Lb` is driven through [`Lb::with`], which pairs it with
/// both.
#[derive(Debug, Clone)]
pub enum Lb {
    /// [`Reps`].
    Reps(Reps),
    /// [`Ops`] (also Adaptive RoCE's hosts).
    Ops(Ops),
    /// [`Ecmp`].
    Ecmp(Ecmp),
    /// [`Plb`].
    Plb(Plb),
    /// [`Flowlet`].
    Flowlet(Flowlet),
    /// [`Mprdma`].
    Mprdma(Mprdma),
    /// [`Bitmap`].
    Bitmap(Bitmap),
    /// [`MptcpLike`].
    Mptcp(MptcpLike),
}

/// Evaluates `$reps_body` with `$reps` bound to an [`Lb::Reps`]'s state,
/// or `$body` with `$lb` bound to any other family's [`LoadBalancer`].
macro_rules! dispatch {
    ($self:expr, $reps:ident => $reps_body:expr, $lb:ident => $body:expr) => {
        match $self {
            Lb::Reps($reps) => $reps_body,
            Lb::Ops($lb) => $body,
            Lb::Ecmp($lb) => $body,
            Lb::Plb($lb) => $body,
            Lb::Flowlet($lb) => $body,
            Lb::Mprdma($lb) => $body,
            Lb::Bitmap($lb) => $body,
            Lb::Mptcp($lb) => $body,
        }
    };
}

impl Lb {
    /// This balancer with what it is driven with besides its own state:
    /// `kind`, the scheme it was built from (the cell's parameter block),
    /// and `counters`, the host's REPS decision counters.
    #[inline]
    pub fn with<'a>(
        &'a mut self,
        kind: &'a LbKind,
        counters: &'a mut RepsCounters,
    ) -> WithParams<'a> {
        WithParams {
            lb: self,
            kind,
            counters,
        }
    }

    /// Appends the balancer's decision counters (see
    /// [`LoadBalancer::diagnostics`]); a REPS connection reports `counters`
    /// as its own ([`Reps::diagnostics`]).
    pub fn diagnostics(&self, counters: &RepsCounters, out: &mut Vec<(&'static str, u64)>) {
        dispatch!(self, reps => reps.diagnostics(counters, out), lb => lb.diagnostics(out))
    }
}

/// An [`Lb`] paired with its scheme and a host's counters ([`Lb::with`]):
/// the connection's [`LoadBalancer`].
#[derive(Debug)]
pub struct WithParams<'a> {
    lb: &'a mut Lb,
    kind: &'a LbKind,
    counters: &'a mut RepsCounters,
}

/// The REPS configuration of `kind`, which built a REPS connection.
fn reps_cfg(kind: &LbKind) -> &RepsConfig {
    match kind {
        LbKind::Reps(cfg) => cfg,
        other => panic!("REPS state driven with the parameters of {other:?}"),
    }
}

impl LoadBalancer for WithParams<'_> {
    #[inline]
    fn next_ev(&mut self, now: Time, rng: &mut Rng64) -> u16 {
        let kind = self.kind;
        dispatch!(&mut *self.lb,
            reps => reps.next_ev(reps_cfg(kind), self.counters, now, rng),
            lb => lb.next_ev(now, rng))
    }

    #[inline]
    fn on_ack(&mut self, fb: &AckFeedback, rng: &mut Rng64) {
        let kind = self.kind;
        dispatch!(&mut *self.lb,
            reps => reps.on_ack(reps_cfg(kind), self.counters, fb),
            lb => lb.on_ack(fb, rng))
    }

    fn on_timeout(&mut self, now: Time) {
        let kind = self.kind;
        dispatch!(&mut *self.lb,
            reps => reps.on_timeout(reps_cfg(kind), self.counters, now),
            lb => lb.on_timeout(now))
    }

    fn on_congestion_loss(&mut self, ev: u16, now: Time) {
        dispatch!(&mut *self.lb, _reps => {}, lb => lb.on_congestion_loss(ev, now))
    }

    fn name(&self) -> &'static str {
        dispatch!(&*self.lb, _reps => "REPS", lb => lb.name())
    }

    fn last_decision(&self) -> EvDecision {
        dispatch!(&*self.lb, reps => reps.last_decision(), lb => lb.last_decision())
    }

    fn is_frozen(&self) -> bool {
        dispatch!(&*self.lb, reps => reps.is_freezing(), lb => lb.is_frozen())
    }

    fn diagnostics(&self, out: &mut Vec<(&'static str, u64)>) {
        self.lb.diagnostics(self.counters, out);
    }
}

/// The balancer as a trait object, for code written against
/// [`LoadBalancer`] (`kind.build(rng).as_mut()`), for every family whose
/// state carries its whole configuration.
///
/// # Panics
///
/// On [`Lb::Reps`], which is a balancer only together with its parameter
/// block: drive it through [`Lb::with`].
impl AsMut<dyn LoadBalancer> for Lb {
    fn as_mut(&mut self) -> &mut (dyn LoadBalancer + 'static) {
        dispatch!(self,
            _reps => panic!("a REPS connection is driven through Lb::with"),
            lb => lb)
    }
}

impl LbKind {
    /// Builds a fresh per-connection balancer instance.
    pub fn build(&self, rng: &mut Rng64) -> Lb {
        match self {
            LbKind::Reps(cfg) => Lb::Reps(Reps::start(cfg)),
            LbKind::Ops { evs_size } => Lb::Ops(Ops::new(*evs_size)),
            LbKind::Ecmp => Lb::Ecmp(Ecmp::new(rng)),
            LbKind::Plb(cfg) => Lb::Plb(Plb::new(cfg.clone(), rng)),
            LbKind::Flowlet { gap } => Lb::Flowlet(Flowlet::new(1 << 16, *gap, rng)),
            LbKind::Mprdma => Lb::Mprdma(Mprdma::default()),
            LbKind::Bitmap {
                evs_size,
                clear_period,
            } => Lb::Bitmap(Bitmap::new(*evs_size, *clear_period)),
            LbKind::MptcpLike { subflows } => Lb::Mptcp(MptcpLike::new(*subflows, 1 << 16, rng)),
            LbKind::AdaptiveRoce => Lb::Ops(Ops::default()),
        }
    }

    /// The fabric routing mode this scheme needs.
    pub fn routing_mode(&self) -> RoutingMode {
        match self {
            LbKind::AdaptiveRoce => RoutingMode::Adaptive,
            _ => RoutingMode::EcmpHash,
        }
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            LbKind::Reps(_) => "REPS",
            LbKind::Ops { .. } => "OPS",
            LbKind::Ecmp => "ECMP",
            LbKind::Plb(_) => "PLB",
            LbKind::Flowlet { .. } => "Flowlet",
            LbKind::Mprdma => "MPRDMA",
            LbKind::Bitmap { .. } => "BitMap",
            LbKind::MptcpLike { .. } => "MPTCP",
            LbKind::AdaptiveRoce => "Adaptive RoCE",
        }
    }

    /// Renders the canonical LB-spec string (see the module docs) — the
    /// exact inverse of [`LbKind::parse`].
    pub fn spec(&self) -> String {
        let render = match self {
            LbKind::Ops { evs_size } => Render::new("OPS").param("evs", *evs_size, DEFAULT_EVS),
            LbKind::MptcpLike { subflows } => Render::new("MPTCP").param("subflows", *subflows, 8),
            LbKind::Flowlet { gap } => Render::new("Flowlet").time("gap", *gap, paper_rtt() / 2),
            LbKind::Bitmap {
                evs_size,
                clear_period,
            } => Render::new("BitMap")
                .param("evs", *evs_size, DEFAULT_EVS)
                .time("clear", *clear_period, paper_rtt() * 2),
            LbKind::Plb(cfg) => {
                let d = PlbConfig::default();
                Render::new("PLB")
                    .param("evs", cfg.evs_size, d.evs_size)
                    .param("thresh", cfg.ecn_threshold, d.ecn_threshold)
                    .param("rounds", cfg.congested_rounds, d.congested_rounds)
            }
            LbKind::Reps(cfg) => {
                let d = RepsConfig::default();
                // The two pre-grammar spellings stay canonical for exactly
                // the configurations they historically named.
                if *cfg == d.clone().without_freezing() {
                    return "REPS-nofreeze".to_string();
                }
                if let Some(at) = cfg.force_freezing_at {
                    let only_freezeat = RepsConfig {
                        force_freezing_at: Some(at),
                        ..d.clone()
                    };
                    if *cfg == only_freezeat && at.as_ps() % 1_000_000 == 0 {
                        return format!("{LEGACY_FREEZE_AT}{}us", at.as_ps() / 1_000_000);
                    }
                }
                Render::new("REPS")
                    .param("evs", cfg.evs_size, d.evs_size)
                    .param("buf", cfg.buffer_size, d.buffer_size)
                    .switch("freeze", cfg.freezing_enabled, d.freezing_enabled)
                    .time("fto", cfg.freezing_timeout, d.freezing_timeout)
                    .opt_time("freezeat", cfg.force_freezing_at)
            }
            LbKind::Ecmp | LbKind::Mprdma | LbKind::AdaptiveRoce => Render::new(self.label()),
        };
        render.finish()
    }

    /// Parses an LB-spec string (see the module docs) into a fully
    /// configured scheme. Accepts canonical and non-canonical spellings
    /// (spelled-out defaults, legacy forms, braced equivalents of the
    /// legacy forms); `parse(k.spec()) == k` for every [`LbKind`].
    pub fn parse(s: &str) -> Result<LbKind, String> {
        // EVS sizes, buffer depths and subflow counts go up to the 16-bit
        // entropy space.
        let max = u64::from(DEFAULT_EVS);
        let mut spec = Spec::parse("lb", s)?;
        let d = RepsConfig::default();
        let kind = match spec.family {
            "REPS-nofreeze" => LbKind::Reps(d.without_freezing()),
            legacy if legacy.starts_with(LEGACY_FREEZE_AT) => {
                let at = Time::parse_label(&legacy[LEGACY_FREEZE_AT.len()..])
                    .map_err(|e| spec.err(e))?;
                LbKind::Reps(RepsConfig {
                    force_freezing_at: Some(at),
                    ..d
                })
            }
            "ECMP" => LbKind::Ecmp,
            "MPRDMA" => LbKind::Mprdma,
            "Adaptive RoCE" => LbKind::AdaptiveRoce,
            "OPS" => LbKind::Ops {
                evs_size: spec.count("evs", DEFAULT_EVS, max)?,
            },
            "MPTCP" => LbKind::MptcpLike {
                subflows: spec.count("subflows", 8, max)?,
            },
            "Flowlet" => LbKind::Flowlet {
                gap: spec.time("gap", paper_rtt() / 2)?,
            },
            "BitMap" => LbKind::Bitmap {
                evs_size: spec.count("evs", DEFAULT_EVS, max)?,
                clear_period: spec.time("clear", paper_rtt() * 2)?,
            },
            "PLB" => {
                let d = PlbConfig::default();
                LbKind::Plb(PlbConfig {
                    evs_size: spec.count("evs", d.evs_size, max)?,
                    ecn_threshold: spec.fraction("thresh", d.ecn_threshold)?,
                    congested_rounds: spec.count("rounds", d.congested_rounds, u32::MAX.into())?,
                })
            }
            "REPS" => LbKind::Reps(RepsConfig {
                evs_size: spec.count("evs", d.evs_size, max)?,
                buffer_size: spec.count("buf", d.buffer_size, max)?,
                freezing_enabled: spec.switch("freeze", d.freezing_enabled)?,
                freezing_timeout: spec.time("fto", d.freezing_timeout)?,
                force_freezing_at: spec.opt_time("freezeat")?,
            }),
            _ => {
                return Err(spec.unknown_family(
                    "ECMP, OPS, REPS, PLB, MPRDMA, MPTCP, Flowlet, BitMap, Adaptive RoCE, \
                     REPS-nofreeze or REPS+freeze@Nus",
                ))
            }
        };
        spec.finish()?;
        Ok(kind)
    }

    /// The default paper lineup for macro figures (Figs. 3, 5):
    /// ECMP, OPS, Flowlet, BitMap, MPRDMA, PLB, MPTCP, Adaptive RoCE, REPS.
    pub fn paper_lineup(rtt: Time) -> Vec<LbKind> {
        vec![
            LbKind::Ecmp,
            LbKind::Ops { evs_size: 1 << 16 },
            LbKind::Flowlet { gap: rtt / 2 },
            LbKind::Bitmap {
                evs_size: 1 << 16,
                clear_period: rtt * 2,
            },
            LbKind::Mprdma,
            LbKind::Plb(PlbConfig::default()),
            LbKind::MptcpLike { subflows: 8 },
            LbKind::AdaptiveRoce,
            LbKind::Reps(RepsConfig::default()),
        ]
    }

    /// The reduced lineup used in the failure figures (Fig. 8):
    /// OPS, Flowlet, BitMap, MPRDMA, PLB, REPS.
    pub fn failure_lineup(rtt: Time) -> Vec<LbKind> {
        vec![
            LbKind::Ops { evs_size: 1 << 16 },
            LbKind::Flowlet { gap: rtt / 2 },
            LbKind::Bitmap {
                evs_size: 1 << 16,
                clear_period: rtt * 2,
            },
            LbKind::Mprdma,
            LbKind::Plb(PlbConfig::default()),
            LbKind::Reps(RepsConfig::default()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        let mut rng = Rng64::new(1);
        let rtt = Time::from_us(10);
        let mut counters = RepsCounters::default();
        for kind in LbKind::paper_lineup(rtt) {
            let mut lb = kind.build(&mut rng);
            let mut lb = lb.with(&kind, &mut counters);
            let ev = lb.next_ev(Time::ZERO, &mut rng);
            let _ = ev;
            assert!(!lb.name().is_empty());
        }
    }

    /// Every sender holds an `Lb` inline, so its size is per-connection
    /// memory: the largest family's state (BitMap's, since REPS keeps only
    /// Table 1's 48 bytes, pinned field by field in `reps::footprint`),
    /// with the variant tag folded into a niche of it.
    #[test]
    fn lb_is_the_size_of_its_largest_family() {
        use std::mem::size_of;
        assert_eq!(size_of::<Lb>(), 64);
        assert_eq!(size_of::<Lb>(), size_of::<Bitmap>());
        assert_eq!(size_of::<Reps>(), 48);
        for family in [
            size_of::<Ops>(),
            size_of::<Ecmp>(),
            size_of::<Plb>(),
            size_of::<Flowlet>(),
            size_of::<Mprdma>(),
            size_of::<MptcpLike>(),
        ] {
            assert!(family <= size_of::<Reps>(), "{family}");
        }
    }

    #[test]
    fn adaptive_roce_requests_adaptive_routing() {
        assert_eq!(LbKind::AdaptiveRoce.routing_mode(), RoutingMode::Adaptive);
        assert_eq!(
            LbKind::Ops { evs_size: 16 }.routing_mode(),
            RoutingMode::EcmpHash
        );
    }

    #[test]
    fn lineup_matches_paper_legend() {
        let rtt = Time::from_us(10);
        let labels: Vec<&str> = LbKind::paper_lineup(rtt)
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "ECMP",
                "OPS",
                "Flowlet",
                "BitMap",
                "MPRDMA",
                "PLB",
                "MPTCP",
                "Adaptive RoCE",
                "REPS"
            ]
        );
    }

    #[test]
    fn reps_label_and_name_agree() {
        let mut rng = Rng64::new(2);
        let kind = LbKind::Reps(RepsConfig::default());
        let mut lb = kind.build(&mut rng);
        let mut counters = RepsCounters::default();
        assert_eq!(lb.with(&kind, &mut counters).name(), kind.label());
    }

    #[test]
    fn default_configs_render_as_bare_family_names() {
        for kind in LbKind::paper_lineup(paper_rtt()) {
            assert_eq!(kind.spec(), kind.label(), "{kind:?}");
            assert_eq!(LbKind::parse(&kind.spec()).unwrap(), kind);
        }
    }

    #[test]
    fn parameterized_specs_render_canonically_and_round_trip() {
        let cases: Vec<(LbKind, &str)> = vec![
            (LbKind::Ops { evs_size: 4096 }, "OPS{evs=4096}"),
            (
                LbKind::Reps(RepsConfig::default().with_evs_size(256).without_freezing()),
                "REPS{evs=256,freeze=off}",
            ),
            (
                LbKind::Reps(RepsConfig {
                    buffer_size: 16,
                    freezing_timeout: Time::from_us(50),
                    ..RepsConfig::default()
                }),
                "REPS{buf=16,fto=50us}",
            ),
            (
                LbKind::Flowlet {
                    gap: Time::from_us(80),
                },
                "Flowlet{gap=80us}",
            ),
            (
                LbKind::Bitmap {
                    evs_size: 1024,
                    clear_period: Time::from_us(50),
                },
                "BitMap{evs=1024,clear=50us}",
            ),
            (
                LbKind::Plb(PlbConfig {
                    ecn_threshold: 0.1,
                    congested_rounds: 3,
                    ..PlbConfig::default()
                }),
                "PLB{thresh=0.1,rounds=3}",
            ),
            (LbKind::MptcpLike { subflows: 4 }, "MPTCP{subflows=4}"),
        ];
        for (kind, spec) in cases {
            assert_eq!(kind.spec(), spec);
            assert_eq!(LbKind::parse(spec).unwrap(), kind, "{spec}");
        }
    }

    #[test]
    fn legacy_spellings_stay_canonical_for_their_configs() {
        let nofreeze = LbKind::Reps(RepsConfig::default().without_freezing());
        assert_eq!(nofreeze.spec(), "REPS-nofreeze");
        assert_eq!(LbKind::parse("REPS-nofreeze").unwrap(), nofreeze);
        assert_eq!(LbKind::parse("REPS{freeze=off}").unwrap(), nofreeze);

        let frozen = LbKind::Reps(RepsConfig {
            force_freezing_at: Some(Time::from_us(50)),
            ..RepsConfig::default()
        });
        assert_eq!(frozen.spec(), "REPS+freeze@50us");
        assert_eq!(LbKind::parse("REPS+freeze@50us").unwrap(), frozen);
        assert_eq!(LbKind::parse("REPS{freezeat=50us}").unwrap(), frozen);

        // A non-whole-us freeze instant has no legacy spelling; the braced
        // form is canonical there.
        let odd = LbKind::Reps(RepsConfig {
            force_freezing_at: Some(Time::from_ns(500)),
            ..RepsConfig::default()
        });
        assert_eq!(odd.spec(), "REPS{freezeat=500ns}");
        assert_eq!(LbKind::parse(&odd.spec()).unwrap(), odd);

        // Extra parameters push the freeze instant into the braced form.
        let mixed = LbKind::Reps(RepsConfig {
            force_freezing_at: Some(Time::from_us(50)),
            ..RepsConfig::default().with_evs_size(256)
        });
        assert_eq!(mixed.spec(), "REPS{evs=256,freezeat=50us}");
        assert_eq!(LbKind::parse(&mixed.spec()).unwrap(), mixed);
    }

    #[test]
    fn non_canonical_spellings_canonicalize() {
        for (loose, canonical) in [
            ("OPS{evs=65536}", "OPS"),
            ("REPS{freeze=on}", "REPS"),
            ("PLB{thresh=5e-2}", "PLB"),
            ("MPTCP{subflows=8}", "MPTCP"),
            ("Flowlet{gap=80000ns}", "Flowlet{gap=80us}"),
        ] {
            let kind = LbKind::parse(loose).expect(loose);
            assert_eq!(kind.spec(), canonical, "{loose}");
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("NOPE", "unknown lb family"),
            ("OPS{evs=0}", "out of range"),
            ("OPS{evs=65537}", "out of range"),
            ("OPS{evs=x}", "bad evs"),
            ("OPS{gap=5us}", "unknown parameter"),
            ("REPS{freeze=maybe}", "expected on or off"),
            ("REPS{buf=0}", "out of range"),
            ("MPTCP{subflows=0}", "out of range"),
            ("MPTCP{subflows=65537}", "out of range"),
            ("PLB{rounds=4294967297}", "out of range"),
            ("PLB{thresh=1.5}", "out of range"),
            ("Flowlet{gap=80}", "bad duration"),
            ("REPS+freeze@fast", "bad duration"),
        ] {
            let err = LbKind::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
            assert!(
                err.contains(spec),
                "{spec}: error must name the spec: {err}"
            );
        }
    }

    #[test]
    fn ecn_threshold_renders_with_shortest_round_trip_formatting() {
        let plb = LbKind::Plb(PlbConfig {
            ecn_threshold: 0.123456789,
            ..PlbConfig::default()
        });
        assert_eq!(plb.spec(), "PLB{thresh=0.123456789}");
        assert_eq!(LbKind::parse(&plb.spec()).unwrap(), plb);
    }
}
