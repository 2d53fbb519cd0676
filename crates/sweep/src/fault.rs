//! The adversarial-fault axis: a typed grammar for gray failures,
//! payload corruption, link flapping and unidirectional blackholes.
//!
//! [`FaultSpec`] is to the `fault=` grid axis what
//! [`LbKind::parse`](baselines::kind::LbKind) is to the `lb =` axis: a
//! parse/render pair with one canonical string per configuration, so any
//! spelling of the same fault shares one cell key, one derived seed and
//! one cache address. The grammar:
//!
//! ```text
//! none                                   healthy fabric (the default)
//! gray                                   all defaults (p=0.01 on 1 cable)
//! gray{p=0.01,at=10us,for=100us,n=2}     silent loss, onset + heal
//! corrupt{p=0.001}                       payload corruption (distinct
//!                                        DropReason from gray loss)
//! flap{period=100us,duty=0.5,at=10us}    periodic down/up; duty is the
//!                                        up fraction of each period
//! unidir{n=1,at=10us,for=200us}          one direction of n cables
//! ```
//!
//! Probabilities and duty cycles are stored as integer parts-per-million
//! and rendered as plain decimals (`0.01` == 10 000 ppm), so
//! `parse(render(spec)) == spec` is exact — no float formatting reaches a
//! cell key. Durations use [`Time::label`]/[`Time::parse_label`]
//! (`10ms` is accepted as input and canonicalizes to `10000us`).
//! Canonical rendering omits parameters at their defaults; a bare family
//! name means "all defaults".
//!
//! [`FaultSpec::build`] materializes the plan against the cell's fabric
//! with a cell-derived [`Rng64`] choosing the affected cables, so a cell
//! is byte-deterministic and cacheable like every other axis value. Flap
//! schedules are expanded into a bounded control-event list truncated at
//! the cell's horizon (its deadline) — calendar growth is
//! `O(horizon / period)`, never unbounded.

use netsim::failures::{Failure, FailurePlan};
use netsim::ids::LinkId;
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, Topology};

/// Default onset instant for every fault family.
const DEFAULT_AT: Time = Time::from_us(10);
/// Default per-packet probability for `gray`/`corrupt` (0.01).
const DEFAULT_P_PPM: u32 = 10_000;
/// Default flap period.
const DEFAULT_PERIOD: Time = Time::from_us(100);
/// Default flap duty cycle (0.5 = up half of each period).
const DEFAULT_DUTY_PPM: u32 = 500_000;
/// Default number of affected cables.
const DEFAULT_N: u32 = 1;
/// One whole, in parts-per-million.
const PPM: u32 = 1_000_000;

/// A fault-plan description, materialized per cell against the topology.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FaultSpec {
    /// Healthy fabric: no fault machinery touches the run at all.
    #[default]
    None,
    /// `n` random cables silently drop packets with probability `p` from
    /// `at`, optionally healing after `heal`. Routing sees nothing.
    Gray {
        /// Per-packet silent-loss probability in parts-per-million.
        p_ppm: u32,
        /// Onset instant.
        at: Time,
        /// Optional heal delay (`None` = permanent).
        heal: Option<Time>,
        /// Number of affected cables.
        n: u32,
    },
    /// `n` random cables corrupt payloads with probability `p` from `at`;
    /// corrupted packets are discarded and counted apart from drops.
    Corrupt {
        /// Per-packet corruption probability in parts-per-million.
        p_ppm: u32,
        /// Onset instant.
        at: Time,
        /// Optional heal delay (`None` = permanent).
        heal: Option<Time>,
        /// Number of affected cables.
        n: u32,
    },
    /// `n` random cables flap: each period starts down and spends
    /// `duty * period` up, from `at` to the cell horizon.
    Flap {
        /// Full flap period (down + up).
        period: Time,
        /// Up fraction of each period in parts-per-million (0 = a plain
        /// cut at onset, 1 000 000 = never actually down).
        duty_ppm: u32,
        /// First down instant.
        at: Time,
        /// Number of affected cables.
        n: u32,
    },
    /// The forward direction of `n` random cables blackholes at `at`
    /// while the reverse keeps working, optionally recovering.
    Unidir {
        /// Number of affected cables.
        n: u32,
        /// Failure instant.
        at: Time,
        /// Optional recovery delay (`None` = permanent).
        heal: Option<Time>,
    },
}

/// Renders a ppm probability as its shortest exact decimal: `0`, `1`, or
/// `0.` + up to six digits with trailing zeros stripped.
fn render_ppm(ppm: u32) -> String {
    match ppm {
        0 => "0".to_string(),
        PPM => "1".to_string(),
        _ => {
            let frac = format!("{ppm:06}");
            format!("0.{}", frac.trim_end_matches('0'))
        }
    }
}

/// Parses a decimal probability in `[0, 1]` to parts-per-million; exact
/// inverse of [`render_ppm`] on canonical strings.
fn parse_ppm(s: &str) -> Result<u32, String> {
    let (int, frac) = match s.split_once('.') {
        None => (s, ""),
        Some((i, f)) => (i, f),
    };
    let digits = |v: &str| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit());
    if !digits(int) || (!frac.is_empty() && !digits(frac)) {
        return Err(format!(
            "bad probability {s:?} (expected a decimal in [0,1], e.g. 0.01)"
        ));
    }
    if frac.len() > 6 {
        return Err(format!(
            "probability {s:?} is finer than ppm (at most 6 decimal digits)"
        ));
    }
    let int: u32 = int
        .parse()
        .map_err(|_| format!("bad probability {s:?} (integer part overflows)"))?;
    let mut padded = frac.to_string();
    while padded.len() < 6 {
        padded.push('0');
    }
    let frac_ppm: u32 = padded.parse().expect("six ascii digits");
    let ppm = int
        .checked_mul(PPM)
        .and_then(|v| v.checked_add(frac_ppm))
        .filter(|&v| v <= PPM)
        .ok_or_else(|| format!("probability {s:?} out of range (must be <= 1)"))?;
    Ok(ppm)
}

/// A spec's `key=value` parameters, in written order.
type Params<'a> = Vec<(&'a str, &'a str)>;

/// Splits `family{k=v,...}` into the family name and its parameters, in
/// order — the front half of both the `fault=` and the `fidelity=`
/// grammar. A bare `family` and `family{}` mean "all defaults"; an empty
/// entry or a repeated key is rejected like the LB grammar does, because
/// "last one wins" would let two spellings of one line share a cell key
/// by accident.
pub(crate) fn split_spec(s: &str) -> Result<(&str, Params<'_>), String> {
    let Some(open) = s.find('{') else {
        return Ok((s, Params::new()));
    };
    let inner = s[open + 1..]
        .strip_suffix('}')
        .ok_or("missing closing brace")?;
    let mut params = Params::new();
    if !inner.trim().is_empty() {
        for kv in inner.split(',') {
            let kv = kv.trim();
            if kv.is_empty() {
                return Err("empty parameter (trailing or doubled comma?)".to_string());
            }
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("parameter {kv:?} is not key=value"))?;
            let (k, v) = (k.trim(), v.trim());
            if params.iter().any(|(seen, _)| *seen == k) {
                return Err(format!("duplicate parameter {k:?}"));
            }
            params.push((k, v));
        }
    }
    Ok((&s[..open], params))
}

impl FaultSpec {
    /// Whether this is the default (no fault): the only value that keeps
    /// the `/ft=` component out of a cell key.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSpec::None)
    }

    /// How many cables the fault takes: what a fabric must have at least
    /// (see [`FaultSpec::build`]).
    pub fn cables(&self) -> u32 {
        match self {
            FaultSpec::None => 0,
            FaultSpec::Gray { n, .. }
            | FaultSpec::Corrupt { n, .. }
            | FaultSpec::Flap { n, .. }
            | FaultSpec::Unidir { n, .. } => *n,
        }
    }

    /// The canonical label: one string per configuration, parameters at
    /// their defaults omitted, the exact inverse of [`FaultSpec::parse`].
    /// Feeds the cell key (as `/ft=<label>`, only when not `none`).
    pub fn label(&self) -> String {
        let mut params: Vec<String> = Vec::new();
        let family = match self {
            FaultSpec::None => return "none".to_string(),
            FaultSpec::Gray { p_ppm, at, heal, n } | FaultSpec::Corrupt { p_ppm, at, heal, n } => {
                if *p_ppm != DEFAULT_P_PPM {
                    params.push(format!("p={}", render_ppm(*p_ppm)));
                }
                if *at != DEFAULT_AT {
                    params.push(format!("at={}", at.label()));
                }
                if let Some(h) = heal {
                    params.push(format!("for={}", h.label()));
                }
                if *n != DEFAULT_N {
                    params.push(format!("n={n}"));
                }
                if matches!(self, FaultSpec::Gray { .. }) {
                    "gray"
                } else {
                    "corrupt"
                }
            }
            FaultSpec::Flap {
                period,
                duty_ppm,
                at,
                n,
            } => {
                if *period != DEFAULT_PERIOD {
                    params.push(format!("period={}", period.label()));
                }
                if *duty_ppm != DEFAULT_DUTY_PPM {
                    params.push(format!("duty={}", render_ppm(*duty_ppm)));
                }
                if *at != DEFAULT_AT {
                    params.push(format!("at={}", at.label()));
                }
                if *n != DEFAULT_N {
                    params.push(format!("n={n}"));
                }
                "flap"
            }
            FaultSpec::Unidir { n, at, heal } => {
                if *n != DEFAULT_N {
                    params.push(format!("n={n}"));
                }
                if *at != DEFAULT_AT {
                    params.push(format!("at={}", at.label()));
                }
                if let Some(h) = heal {
                    params.push(format!("for={}", h.label()));
                }
                "unidir"
            }
        };
        if params.is_empty() {
            family.to_string()
        } else {
            format!("{family}{{{}}}", params.join(","))
        }
    }

    /// Parses any spelling of a fault spec — `gray`, `gray{p=0.01}`,
    /// `flap{period=10ms,duty=0.5}` — into its typed form. Unknown
    /// families, unknown keys, malformed values and out-of-range
    /// parameters are reported, never panicked: the input is user text
    /// (a spec file line or a `--fault` flag).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let s = s.trim();
        let ctx = |e: String| format!("fault spec {s:?}: {e}");
        let (family, params) = split_spec(s).map_err(ctx)?;
        let time = |v: &str| Time::parse_label(v).map_err(ctx);
        let count = |v: &str| -> Result<u32, String> {
            let n: u32 = v
                .parse()
                .map_err(|e| ctx(format!("bad count {v:?}: {e}")))?;
            if n == 0 {
                return Err(ctx(format!("count {v:?} must be at least 1")));
            }
            Ok(n)
        };
        match family {
            "none" => {
                if !params.is_empty() {
                    return Err(ctx("none takes no parameters".to_string()));
                }
                Ok(FaultSpec::None)
            }
            "gray" | "corrupt" => {
                let (mut p_ppm, mut at, mut heal, mut n) =
                    (DEFAULT_P_PPM, DEFAULT_AT, None, DEFAULT_N);
                for (k, v) in params {
                    match k {
                        "p" => {
                            p_ppm = parse_ppm(v).map_err(ctx)?;
                            if p_ppm == 0 {
                                return Err(ctx(
                                    "p 0 is the healthy fabric — use fault=none".to_string()
                                ));
                            }
                        }
                        "at" => at = time(v)?,
                        "for" => heal = Some(time(v)?),
                        "n" => n = count(v)?,
                        other => {
                            return Err(ctx(format!(
                                "unknown {family} parameter {other:?} (p, at, for, n)"
                            )))
                        }
                    }
                }
                Ok(if family == "gray" {
                    FaultSpec::Gray { p_ppm, at, heal, n }
                } else {
                    FaultSpec::Corrupt { p_ppm, at, heal, n }
                })
            }
            "flap" => {
                let (mut period, mut duty_ppm, mut at, mut n) =
                    (DEFAULT_PERIOD, DEFAULT_DUTY_PPM, DEFAULT_AT, DEFAULT_N);
                for (k, v) in params {
                    match k {
                        "period" => {
                            period = time(v)?;
                            if period == Time::ZERO {
                                return Err(ctx("period must be positive".to_string()));
                            }
                        }
                        "duty" => duty_ppm = parse_ppm(v).map_err(ctx)?,
                        "at" => at = time(v)?,
                        "n" => n = count(v)?,
                        other => {
                            return Err(ctx(format!(
                                "unknown flap parameter {other:?} (period, duty, at, n)"
                            )))
                        }
                    }
                }
                Ok(FaultSpec::Flap {
                    period,
                    duty_ppm,
                    at,
                    n,
                })
            }
            "unidir" => {
                let (mut n, mut at, mut heal) = (DEFAULT_N, DEFAULT_AT, None);
                for (k, v) in params {
                    match k {
                        "n" => n = count(v)?,
                        "at" => at = time(v)?,
                        "for" => heal = Some(time(v)?),
                        other => {
                            return Err(ctx(format!(
                                "unknown unidir parameter {other:?} (n, at, for)"
                            )))
                        }
                    }
                }
                Ok(FaultSpec::Unidir { n, at, heal })
            }
            other => Err(format!(
                "unknown fault family {other:?} (none, gray, corrupt, flap, unidir)"
            )),
        }
    }

    /// Materializes the plan against `fabric`. The affected cables are a
    /// deterministic shuffle seeded by `seed` (cell-derived), and flap
    /// schedules are truncated at `horizon` (the cell deadline), so the
    /// same cell key always installs the same bounded control-event
    /// sequence.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds the fabric's cable count: the label
    /// advertises `n`, so an oversized request must fail loudly rather
    /// than silently model a different scenario. (A spec file is checked
    /// when it is parsed, so user text never gets here.)
    pub fn build(
        &self,
        fabric: &FatTreeConfig,
        topo_seed: u64,
        seed: u64,
        horizon: Time,
    ) -> FailurePlan {
        if self.is_none() {
            return FailurePlan::none();
        }
        let topo = Topology::build(fabric.clone(), topo_seed);
        let mut rng = Rng64::new(seed);
        let mut pairs = topo.cable_pairs();
        rng.shuffle(&mut pairs);
        let pick = |n: u32| -> &[(LinkId, LinkId)] {
            assert!(
                n as usize <= pairs.len(),
                "fault n={n} exceeds the fabric's {} cables",
                pairs.len()
            );
            &pairs[..n as usize]
        };
        let mut plan = FailurePlan::none();
        match self {
            FaultSpec::None => unreachable!("handled by the early return above"),
            FaultSpec::Gray { p_ppm, at, heal, n } => {
                for &pair in pick(*n) {
                    plan = plan.with(Failure::GrayDrop {
                        pair,
                        at: *at,
                        p: *p_ppm as f64 / PPM as f64,
                        duration: *heal,
                    });
                }
            }
            FaultSpec::Corrupt { p_ppm, at, heal, n } => {
                for &pair in pick(*n) {
                    plan = plan.with(Failure::Corrupt {
                        pair,
                        at: *at,
                        p: *p_ppm as f64 / PPM as f64,
                        duration: *heal,
                    });
                }
            }
            FaultSpec::Flap {
                period,
                duty_ppm,
                at,
                n,
            } => {
                // Integer ppm arithmetic: `up_time` is exact and the
                // duty=0 / duty=1 edges land exactly on ZERO / period.
                let up_time = Time::from_ps(
                    ((period.as_ps() as u128 * *duty_ppm as u128) / PPM as u128) as u64,
                );
                for &pair in pick(*n) {
                    plan = plan.with(Failure::Flap {
                        pair,
                        at: *at,
                        period: *period,
                        up_time,
                        until: horizon,
                    });
                }
            }
            FaultSpec::Unidir { n, at, heal } => {
                for &pair in pick(*n) {
                    plan = plan.with(Failure::UnidirBlackhole {
                        link: pair.0,
                        at: *at,
                        duration: *heal,
                    });
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> String {
        FaultSpec::parse(s).expect(s).label()
    }

    #[test]
    fn ppm_rendering_is_shortest_exact_decimal() {
        assert_eq!(render_ppm(0), "0");
        assert_eq!(render_ppm(PPM), "1");
        assert_eq!(render_ppm(10_000), "0.01");
        assert_eq!(render_ppm(500_000), "0.5");
        assert_eq!(render_ppm(1), "0.000001");
        assert_eq!(render_ppm(123_450), "0.12345");
        for ppm in [0, 1, 10_000, 123_456, 500_000, 999_999, PPM] {
            assert_eq!(parse_ppm(&render_ppm(ppm)), Ok(ppm), "ppm {ppm}");
        }
    }

    #[test]
    fn ppm_parsing_rejects_junk() {
        assert!(parse_ppm("").is_err());
        assert!(parse_ppm(".").is_err());
        assert!(parse_ppm("0.0000001").is_err(), "finer than ppm");
        assert!(parse_ppm("1.1").is_err(), "above 1");
        assert!(parse_ppm("2").is_err());
        assert!(parse_ppm("-0.1").is_err());
        assert!(parse_ppm("0.1e3").is_err());
        // Non-canonical but exact spellings normalize.
        assert_eq!(parse_ppm("0.010"), Ok(10_000));
        assert_eq!(parse_ppm("1.0"), Ok(PPM));
        assert_eq!(parse_ppm("0.000000"), Ok(0));
    }

    #[test]
    fn canonical_labels_omit_defaults() {
        assert_eq!(roundtrip("none"), "none");
        assert_eq!(roundtrip("gray"), "gray");
        assert_eq!(roundtrip("gray{p=0.01}"), "gray", "default p collapses");
        assert_eq!(roundtrip("gray{p=0.05}"), "gray{p=0.05}");
        assert_eq!(
            roundtrip("gray{n=2,at=20us,p=0.05,for=100us}"),
            "gray{p=0.05,at=20us,for=100us,n=2}",
            "canonical parameter order"
        );
        assert_eq!(roundtrip("corrupt{p=0.001}"), "corrupt{p=0.001}");
        assert_eq!(roundtrip("flap"), "flap");
        assert_eq!(
            roundtrip("flap{period=10ms,duty=0.5}"),
            "flap{period=10000us}",
            "ms input canonicalizes, default duty collapses"
        );
        assert_eq!(roundtrip("flap{duty=0}"), "flap{duty=0}");
        assert_eq!(roundtrip("flap{duty=1}"), "flap{duty=1}");
        assert_eq!(roundtrip("unidir{n=1}"), "unidir");
        assert_eq!(roundtrip("unidir{n=3,for=200us}"), "unidir{n=3,for=200us}");
    }

    #[test]
    fn parse_errors_name_the_problem() {
        let err = |s: &str| FaultSpec::parse(s).unwrap_err();
        assert!(err("blackhole").contains("unknown fault family"));
        assert!(err("gray{q=1}").contains("unknown gray parameter"));
        assert!(err("gray{p=2}").contains("out of range"));
        assert!(err("gray{p=0}").contains("use fault=none"));
        assert!(err("gray{p=0.01").contains("missing closing brace"));
        assert!(err("gray{p}").contains("not key=value"));
        assert!(err("flap{period=0us}").contains("period must be positive"));
        assert!(err("flap{duty=1.5}").contains("out of range"));
        assert!(err("unidir{n=0}").contains("at least 1"));
        assert!(err("none{p=0.1}").contains("no parameters"));
        assert!(err("gray{p=0.5,p=0.02}").contains("duplicate parameter \"p\""));
        assert!(err("gray{p=0.02,,}").contains("empty parameter"));
        assert!(err("flap{period=20us,}").contains("empty parameter"));
        assert_eq!(FaultSpec::parse("gray{}"), FaultSpec::parse("gray"));
    }

    #[test]
    fn build_is_deterministic_and_respects_n() {
        let fabric = FatTreeConfig::two_tier(8, 1);
        let spec = FaultSpec::parse("gray{p=0.02,n=3}").unwrap();
        let a = spec.build(&fabric, 7, 99, Time::from_ms(2));
        let b = spec.build(&fabric, 7, 99, Time::from_ms(2));
        assert_eq!(a.len(), 3);
        let dump = |p: &FailurePlan| -> Vec<String> {
            p.failures.iter().map(|f| format!("{f:?}")).collect()
        };
        assert_eq!(dump(&a), dump(&b));
        // A different seed picks different cables.
        let c = spec.build(&fabric, 7, 100, Time::from_ms(2));
        assert_ne!(dump(&a), dump(&c));
    }

    #[test]
    fn flap_build_converts_duty_exactly() {
        let fabric = FatTreeConfig::two_tier(8, 1);
        let horizon = Time::from_us(500);
        let up = |s: &str| -> Time {
            let plan = FaultSpec::parse(s).unwrap().build(&fabric, 1, 1, horizon);
            let Failure::Flap { up_time, until, .. } = plan.failures[0] else {
                panic!("expected a flap");
            };
            assert_eq!(until, horizon, "horizon threads through");
            up_time
        };
        assert_eq!(up("flap{period=100us,duty=0.5}"), Time::from_us(50));
        assert_eq!(up("flap{period=100us,duty=0}"), Time::ZERO);
        assert_eq!(up("flap{period=100us,duty=1}"), Time::from_us(100));
    }

    #[test]
    fn none_builds_an_empty_plan_without_touching_topology() {
        let fabric = FatTreeConfig::two_tier(8, 1);
        let plan = FaultSpec::None.build(&fabric, 1, 1, Time::from_ms(2));
        assert!(plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the fabric")]
    fn oversized_n_fails_loudly() {
        let fabric = FatTreeConfig::two_tier(8, 1);
        FaultSpec::parse("unidir{n=10000}")
            .unwrap()
            .build(&fabric, 1, 1, Time::from_ms(2));
    }
}
