//! The load-balancer zoo: a single enum naming every algorithm the paper
//! evaluates, a factory that builds per-connection instances, and the
//! typed LB-spec grammar ([`LbKind::parse`] / [`LbKind::spec`]) that names
//! every scheme *and its tuning* as one canonical string.
//!
//! # The LB-spec grammar
//!
//! A spec is a family name, optionally followed by `{key=value,...}`
//! parameters; omitted parameters keep the paper defaults, and a bare
//! family name *is* the default configuration:
//!
//! ```text
//! REPS                      REPS{evs=256,freeze=off}
//! OPS{evs=4096}             Flowlet{gap=80us}
//! PLB{thresh=0.1,rounds=3}  MPTCP{subflows=4}
//! BitMap{evs=1024,clear=50us}
//! ```
//!
//! Families and their parameters (defaults in parentheses):
//!
//! | family          | parameters                                                              |
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
//! Durations use [`Time::label`] syntax (`25us`, `500ns`, `77ps`).
//!
//! [`LbKind::spec`] renders the *canonical* form: parameters in a fixed
//! order, defaults omitted, no spaces — so a default config renders as the
//! bare family name and every pre-existing cell key is its own spec. Two
//! legacy spellings predate the grammar and stay canonical for exactly the
//! configurations they name (they appear in recorded cell keys, which pin
//! derived seeds, shard membership and cache addresses): `REPS-nofreeze`
//! (≡ `REPS{freeze=off}`) and `REPS+freeze@Nus` (≡ `REPS{freezeat=Nus}`).
//! [`LbKind::parse`] accepts canonical and non-canonical spellings alike
//! and [`LbKind::spec`] ∘ [`LbKind::parse`] canonicalizes; the pair is an
//! exact inverse over [`LbKind`] values (`parse(spec(k)) == k`, pinned by
//! proptests).

use netsim::engine::RoutingMode;
use netsim::rng::Rng64;
use netsim::time::Time;
use reps::lb::{AckFeedback, EvDecision, LoadBalancer};
use reps::reps::{Reps, RepsConfig};

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
/// The closed counterpart of [`LoadBalancer`] trait objects: [`LbKind::build`]
/// returns one, and a new spraying family is one more variant. Adaptive
/// RoCE hosts spray obliviously, so they build an [`Lb::Ops`].
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

/// Evaluates `$body` with `$lb` bound to the balancer inside `$self`.
macro_rules! dispatch {
    ($self:expr, $lb:ident => $body:expr) => {
        match $self {
            Lb::Reps($lb) => $body,
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

impl LoadBalancer for Lb {
    fn next_ev(&mut self, now: Time, rng: &mut Rng64) -> u16 {
        dispatch!(self, lb => lb.next_ev(now, rng))
    }

    fn on_ack(&mut self, fb: &AckFeedback, rng: &mut Rng64) {
        dispatch!(self, lb => lb.on_ack(fb, rng))
    }

    fn on_timeout(&mut self, now: Time) {
        dispatch!(self, lb => lb.on_timeout(now))
    }

    fn on_congestion_loss(&mut self, ev: u16, now: Time) {
        dispatch!(self, lb => lb.on_congestion_loss(ev, now))
    }

    fn name(&self) -> &'static str {
        dispatch!(self, lb => lb.name())
    }

    fn last_decision(&self) -> EvDecision {
        dispatch!(self, lb => lb.last_decision())
    }

    fn is_frozen(&self) -> bool {
        dispatch!(self, lb => lb.is_frozen())
    }

    fn diagnostics(&self, out: &mut Vec<(&'static str, u64)>) {
        dispatch!(self, lb => lb.diagnostics(out))
    }
}

/// The balancer as a trait object, for code written against
/// [`LoadBalancer`] (`kind.build(rng).as_mut()`).
impl AsMut<dyn LoadBalancer> for Lb {
    fn as_mut(&mut self) -> &mut (dyn LoadBalancer + 'static) {
        dispatch!(self, lb => lb)
    }
}

impl LbKind {
    /// Builds a fresh per-connection balancer instance.
    pub fn build(&self, rng: &mut Rng64) -> Lb {
        match self {
            LbKind::Reps(cfg) => Lb::Reps(Reps::new(cfg.clone())),
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

    /// Renders the canonical LB-spec string (see the module docs): the
    /// bare family name when every parameter is at its default, otherwise
    /// `Family{key=value,...}` listing only non-default parameters in a
    /// fixed order. The exact inverse of [`LbKind::parse`].
    pub fn spec(&self) -> String {
        fn braced(family: &str, params: Vec<(&str, String)>) -> String {
            if params.is_empty() {
                return family.to_string();
            }
            let body: Vec<String> = params
                .into_iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{family}{{{}}}", body.join(","))
        }
        fn diff<T: PartialEq>(
            params: &mut Vec<(&'static str, String)>,
            key: &'static str,
            value: &T,
            default: &T,
            render: impl Fn(&T) -> String,
        ) {
            if value != default {
                params.push((key, render(value)));
            }
        }
        match self {
            LbKind::Ecmp => "ECMP".to_string(),
            LbKind::Mprdma => "MPRDMA".to_string(),
            LbKind::AdaptiveRoce => "Adaptive RoCE".to_string(),
            LbKind::Ops { evs_size } => {
                let mut p = Vec::new();
                diff(&mut p, "evs", evs_size, &DEFAULT_EVS, u32::to_string);
                braced("OPS", p)
            }
            LbKind::MptcpLike { subflows } => {
                let mut p = Vec::new();
                diff(&mut p, "subflows", subflows, &8, usize::to_string);
                braced("MPTCP", p)
            }
            LbKind::Flowlet { gap } => {
                let mut p = Vec::new();
                diff(&mut p, "gap", gap, &(paper_rtt() / 2), |t| t.label());
                braced("Flowlet", p)
            }
            LbKind::Bitmap {
                evs_size,
                clear_period,
            } => {
                let mut p = Vec::new();
                diff(&mut p, "evs", evs_size, &DEFAULT_EVS, u32::to_string);
                diff(&mut p, "clear", clear_period, &(paper_rtt() * 2), |t| {
                    t.label()
                });
                braced("BitMap", p)
            }
            LbKind::Plb(cfg) => {
                let d = PlbConfig::default();
                let mut p = Vec::new();
                diff(&mut p, "evs", &cfg.evs_size, &d.evs_size, u32::to_string);
                diff(
                    &mut p,
                    "thresh",
                    &cfg.ecn_threshold,
                    &d.ecn_threshold,
                    |v| format!("{v}"),
                );
                diff(
                    &mut p,
                    "rounds",
                    &cfg.congested_rounds,
                    &d.congested_rounds,
                    u32::to_string,
                );
                braced("PLB", p)
            }
            LbKind::Reps(cfg) => {
                let d = RepsConfig::default();
                // The two pre-grammar spellings stay canonical for exactly
                // the configurations they historically named — recorded
                // cell keys (and with them derived seeds, shard membership
                // and cache addresses) must keep rendering byte-identically.
                if *cfg == d.clone().without_freezing() {
                    return "REPS-nofreeze".to_string();
                }
                if let Some(at) = cfg.force_freezing_at {
                    let only_freezeat = RepsConfig {
                        force_freezing_at: Some(at),
                        ..d.clone()
                    };
                    if *cfg == only_freezeat && at.as_ps() % 1_000_000 == 0 {
                        return format!("REPS+freeze@{}us", at.as_ps() / 1_000_000);
                    }
                }
                let mut p = Vec::new();
                diff(&mut p, "evs", &cfg.evs_size, &d.evs_size, u32::to_string);
                diff(&mut p, "buf", &cfg.buffer_size, &d.buffer_size, |v| {
                    v.to_string()
                });
                diff(
                    &mut p,
                    "freeze",
                    &cfg.freezing_enabled,
                    &d.freezing_enabled,
                    |v| if *v { "on" } else { "off" }.to_string(),
                );
                diff(
                    &mut p,
                    "fto",
                    &cfg.freezing_timeout,
                    &d.freezing_timeout,
                    |t| t.label(),
                );
                if let Some(at) = cfg.force_freezing_at {
                    p.push(("freezeat", at.label()));
                }
                braced("REPS", p)
            }
        }
    }

    /// Parses an LB-spec string (see the module docs) into a fully
    /// configured scheme. Accepts canonical and non-canonical spellings
    /// (spelled-out defaults, legacy forms, braced equivalents of the
    /// legacy forms); `parse(k.spec()) == k` for every [`LbKind`].
    pub fn parse(s: &str) -> Result<LbKind, String> {
        // Legacy spellings predating the grammar.
        if s == "REPS-nofreeze" {
            return Ok(LbKind::Reps(RepsConfig::default().without_freezing()));
        }
        if let Some(at) = s.strip_prefix("REPS+freeze@") {
            let at = Time::parse_label(at).map_err(|e| format!("lb spec {s:?}: {e}"))?;
            return Ok(LbKind::Reps(RepsConfig {
                force_freezing_at: Some(at),
                ..RepsConfig::default()
            }));
        }
        let (family, body) = match s.split_once('{') {
            None => (s, None),
            Some((family, rest)) => {
                let Some(body) = rest.strip_suffix('}') else {
                    return Err(format!("lb spec {s:?}: missing closing brace"));
                };
                (family, Some(body))
            }
        };
        let mut params = SpecParams::parse(s, body)?;
        let kind = match family {
            "ECMP" => LbKind::Ecmp,
            "MPRDMA" => LbKind::Mprdma,
            "Adaptive RoCE" => LbKind::AdaptiveRoce,
            "OPS" => LbKind::Ops {
                evs_size: params.evs(DEFAULT_EVS)?,
            },
            "MPTCP" => LbKind::MptcpLike {
                subflows: params.nonzero("subflows", 8u64, DEFAULT_EVS as u64)? as usize,
            },
            "Flowlet" => LbKind::Flowlet {
                gap: params.time("gap", paper_rtt() / 2)?,
            },
            "BitMap" => LbKind::Bitmap {
                evs_size: params.evs(DEFAULT_EVS)?,
                clear_period: params.time("clear", paper_rtt() * 2)?,
            },
            "PLB" => {
                let d = PlbConfig::default();
                LbKind::Plb(PlbConfig {
                    evs_size: params.evs(d.evs_size)?,
                    ecn_threshold: params.fraction("thresh", d.ecn_threshold)?,
                    congested_rounds: params.nonzero(
                        "rounds",
                        d.congested_rounds as u64,
                        u32::MAX as u64,
                    )? as u32,
                })
            }
            "REPS" => {
                let d = RepsConfig::default();
                LbKind::Reps(RepsConfig {
                    evs_size: params.evs(d.evs_size)?,
                    buffer_size: params.nonzero("buf", d.buffer_size as u64, DEFAULT_EVS as u64)?
                        as usize,
                    freezing_enabled: params.switch("freeze", d.freezing_enabled)?,
                    freezing_timeout: params.time("fto", d.freezing_timeout)?,
                    force_freezing_at: params.opt_time("freezeat")?,
                })
            }
            other => {
                return Err(format!(
                    "unknown lb family {other:?} (expected ECMP, OPS, REPS, PLB, MPRDMA, \
                     MPTCP, Flowlet, BitMap or Adaptive RoCE, optionally with \
                     {{key=value,...}} parameters, or the legacy REPS-nofreeze / \
                     REPS+freeze@Nus spellings)"
                ));
            }
        };
        params.finish()?;
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

/// The `{key=value,...}` parameter list of one spec under parse: getters
/// consume entries, [`SpecParams::finish`] rejects whatever is left, so an
/// unknown or misspelled key is an error naming the spec, never silence.
struct SpecParams<'a> {
    /// The full spec string (for error messages).
    spec: &'a str,
    entries: Vec<(&'a str, &'a str)>,
}

impl<'a> SpecParams<'a> {
    fn parse(spec: &'a str, body: Option<&'a str>) -> Result<SpecParams<'a>, String> {
        let mut entries: Vec<(&'a str, &'a str)> = Vec::new();
        // `Family{}` is accepted as the default config (empty body, like a
        // bare name); only *entries* must be well-formed.
        for item in body
            .into_iter()
            .filter(|b| !b.trim().is_empty())
            .flat_map(|b| b.split(','))
        {
            let item = item.trim();
            if item.is_empty() {
                return Err(format!(
                    "lb spec {spec:?}: empty parameter (trailing or doubled comma?)"
                ));
            }
            let Some((key, value)) = item.split_once('=') else {
                return Err(format!(
                    "lb spec {spec:?}: parameter {item:?} is not key=value"
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(format!("lb spec {spec:?}: duplicate parameter {key:?}"));
            }
            entries.push((key, value));
        }
        Ok(SpecParams { spec, entries })
    }

    /// Consumes `key`, returning its raw value (or `None` if absent).
    fn take(&mut self, key: &str) -> Option<&'a str> {
        let i = self.entries.iter().position(|(k, _)| *k == key)?;
        Some(self.entries.remove(i).1)
    }

    /// An EVS size: 1..=65536 (entropy values are 16-bit on the wire).
    fn evs(&mut self, default: u32) -> Result<u32, String> {
        let Some(v) = self.take("evs") else {
            return Ok(default);
        };
        let n: u32 = v
            .parse()
            .map_err(|e| format!("lb spec {}: bad evs {v:?}: {e}", self.spec))?;
        if n == 0 || n > DEFAULT_EVS {
            return Err(format!(
                "lb spec {}: evs {n} out of range 1..={DEFAULT_EVS}",
                self.spec
            ));
        }
        Ok(n)
    }

    /// A positive integer parameter in `1..=max` — range-checked before
    /// any narrowing cast, so an oversized value is an error, never a
    /// silent wrap to a different accepted configuration.
    fn nonzero(&mut self, key: &str, default: u64, max: u64) -> Result<u64, String> {
        let Some(v) = self.take(key) else {
            return Ok(default);
        };
        let n: u64 = v
            .parse()
            .map_err(|e| format!("lb spec {}: bad {key} {v:?}: {e}", self.spec))?;
        if n == 0 || n > max {
            return Err(format!(
                "lb spec {}: {key} {n} out of range 1..={max}",
                self.spec
            ));
        }
        Ok(n)
    }

    /// A duration parameter in [`Time::label`] syntax.
    fn time(&mut self, key: &str, default: Time) -> Result<Time, String> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => {
                Time::parse_label(v).map_err(|e| format!("lb spec {}: {key}: {e}", self.spec))
            }
        }
    }

    /// An optional duration parameter (absent means unset).
    fn opt_time(&mut self, key: &str) -> Result<Option<Time>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => Time::parse_label(v)
                .map(Some)
                .map_err(|e| format!("lb spec {}: {key}: {e}", self.spec)),
        }
    }

    /// An `on`/`off` switch parameter.
    fn switch(&mut self, key: &str, default: bool) -> Result<bool, String> {
        match self.take(key) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(v) => Err(format!(
                "lb spec {}: bad {key} {v:?} (expected on or off)",
                self.spec
            )),
        }
    }

    /// A fraction parameter in `[0, 1]`, rendered with `f64`'s shortest
    /// round-trip formatting.
    fn fraction(&mut self, key: &str, default: f64) -> Result<f64, String> {
        let Some(v) = self.take(key) else {
            return Ok(default);
        };
        let f: f64 = v
            .parse()
            .map_err(|e| format!("lb spec {}: bad {key} {v:?}: {e}", self.spec))?;
        if !(0.0..=1.0).contains(&f) {
            return Err(format!(
                "lb spec {}: {key} {f} out of range 0..=1",
                self.spec
            ));
        }
        Ok(f)
    }

    /// Rejects any parameter no getter consumed.
    fn finish(self) -> Result<(), String> {
        match self.entries.first() {
            None => Ok(()),
            Some((key, _)) => Err(format!("lb spec {}: unknown parameter {key:?}", self.spec)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        let mut rng = Rng64::new(1);
        let rtt = Time::from_us(10);
        for kind in LbKind::paper_lineup(rtt) {
            let mut lb = kind.build(&mut rng);
            let ev = lb.next_ev(Time::ZERO, &mut rng);
            let _ = ev;
            assert!(!lb.name().is_empty());
        }
    }

    /// Every sender holds an `Lb` inline, so its size is per-connection
    /// memory: the largest family's state (REPS, pinned field by field in
    /// `reps::footprint`), with the variant tag folded into a niche of it.
    #[test]
    fn lb_is_the_size_of_its_largest_family() {
        use std::mem::size_of;
        assert_eq!(size_of::<Lb>(), 112);
        assert_eq!(size_of::<Lb>(), size_of::<Reps>());
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
        let lb = kind.build(&mut rng);
        assert_eq!(lb.name(), kind.label());
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
            ("REPS{ evs=256 , freeze=off }", "REPS{evs=256,freeze=off}"),
            ("PLB{thresh=5e-2}", "PLB"),
            ("MPTCP{subflows=8}", "MPTCP"),
            ("Flowlet{gap=80000ns}", "Flowlet{gap=80us}"),
            ("OPS{}", "OPS"),
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
            ("REPS{evs=256", "missing closing brace"),
            ("REPS{evs=256,,freeze=off}", "empty parameter"),
            ("REPS{evs=256,evs=512}", "duplicate parameter"),
            ("REPS{freeze=maybe}", "expected on or off"),
            ("REPS{buf=0}", "out of range"),
            ("MPTCP{subflows=0}", "out of range"),
            ("MPTCP{subflows=65537}", "out of range"),
            ("PLB{rounds=4294967297}", "out of range"),
            ("PLB{thresh=1.5}", "out of range"),
            ("PLB{rounds}", "not key=value"),
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
