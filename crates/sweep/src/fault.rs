//! The adversarial-fault axis: gray failures, payload corruption, link
//! flapping and unidirectional blackholes, as a family table in the shared
//! [`netsim::grammar`] syntax. Like the `lb =` axis, any spelling of one
//! fault has one canonical label, so it shares one cell key, one derived
//! seed and one cache address.
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
//! | family             | parameters (defaults in parentheses)                          |
//! |--------------------|---------------------------------------------------------------|
//! | `none`             | —                                                             |
//! | `gray`, `corrupt`  | `p` (0.01, not 0), `at` (`10us`), `for` (permanent), `n` (1)  |
//! | `flap`             | `period` (`100us`, not 0), `duty` (0.5), `at` (`10us`), `n` (1) |
//! | `unidir`           | `n` (1), `at` (`10us`), `for` (permanent)                     |
//!
//! `p` and `duty` are probabilities, `n` a cable count, the rest durations.
//!
//! [`FaultSpec::build`] materializes the plan against the cell's fabric
//! with a cell-derived [`Rng64`] choosing the affected cables, so a cell
//! is byte-deterministic and cacheable like every other axis value. Flap
//! schedules end at the cell's horizon (its deadline) and are generated as
//! they fire: the calendar holds one toggle pair per flapping cable,
//! however short the period and long the horizon.

use netsim::failures::{Failure, FailurePlan};
use netsim::grammar::{Ppm, Render, Spec, PPM};
use netsim::ids::LinkId;
use netsim::link::LossCause;
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

/// A fault-plan description, materialized per cell against the topology.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FaultSpec {
    /// Healthy fabric: no fault machinery touches the run at all.
    #[default]
    None,
    /// `n` random cables lose packets with probability `p` from `at`,
    /// optionally healing after `heal`; routing sees nothing. The `gray`
    /// family loses them silently, `corrupt` discards corrupted payloads,
    /// each counted under its own drop reason.
    Loss {
        /// What the loss models: [`LossCause::Gray`] or
        /// [`LossCause::Corrupt`]. Bit errors are the `failure` axis's
        /// (`berBpm-atTus`); this axis has no label for them.
        cause: LossCause,
        /// Per-packet loss probability in parts-per-million.
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
            FaultSpec::Loss { n, .. } | FaultSpec::Flap { n, .. } | FaultSpec::Unidir { n, .. } => {
                *n
            }
        }
    }

    /// The canonical label: one string per configuration, parameters at
    /// their defaults omitted, the exact inverse of [`FaultSpec::parse`].
    /// Feeds the cell key (as `/ft=<label>`, only when not `none`).
    pub fn label(&self) -> String {
        let render = match self {
            FaultSpec::None => Render::new("none"),
            FaultSpec::Loss {
                cause,
                p_ppm,
                at,
                heal,
                n,
            } => {
                let family = match cause {
                    LossCause::Gray => "gray",
                    LossCause::Corrupt => "corrupt",
                    LossCause::BitError => unreachable!("bit errors are the failure axis's"),
                };
                Render::new(family)
                    .param("p", Ppm(*p_ppm), Ppm(DEFAULT_P_PPM))
                    .time("at", *at, DEFAULT_AT)
                    .opt_time("for", *heal)
                    .param("n", *n, DEFAULT_N)
            }
            FaultSpec::Flap {
                period,
                duty_ppm,
                at,
                n,
            } => Render::new("flap")
                .time("period", *period, DEFAULT_PERIOD)
                .param("duty", Ppm(*duty_ppm), Ppm(DEFAULT_DUTY_PPM))
                .time("at", *at, DEFAULT_AT)
                .param("n", *n, DEFAULT_N),
            FaultSpec::Unidir { n, at, heal } => Render::new("unidir")
                .param("n", *n, DEFAULT_N)
                .time("at", *at, DEFAULT_AT)
                .opt_time("for", *heal),
        };
        render.finish()
    }

    /// Parses any spelling of a fault spec into its typed form. The input
    /// is user text (a spec file line or a `--fault` flag), so every
    /// problem is an error naming it, never a panic.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let cables = |spec: &mut Spec<'_>| spec.count("n", DEFAULT_N, u32::MAX.into());
        let mut spec = Spec::parse("fault", s)?;
        let fault = match spec.family {
            "none" => FaultSpec::None,
            family @ ("gray" | "corrupt") => {
                let Ppm(p_ppm) = spec.ppm("p", Ppm(DEFAULT_P_PPM))?;
                if p_ppm == 0 {
                    return Err(spec.err("p 0 is the healthy fabric — use fault=none"));
                }
                FaultSpec::Loss {
                    cause: if family == "gray" {
                        LossCause::Gray
                    } else {
                        LossCause::Corrupt
                    },
                    p_ppm,
                    at: spec.time("at", DEFAULT_AT)?,
                    heal: spec.opt_time("for")?,
                    n: cables(&mut spec)?,
                }
            }
            "flap" => {
                let period = spec.time("period", DEFAULT_PERIOD)?;
                if period == Time::ZERO {
                    return Err(spec.err("period must be positive"));
                }
                FaultSpec::Flap {
                    period,
                    duty_ppm: spec.ppm("duty", Ppm(DEFAULT_DUTY_PPM))?.0,
                    at: spec.time("at", DEFAULT_AT)?,
                    n: cables(&mut spec)?,
                }
            }
            "unidir" => FaultSpec::Unidir {
                n: cables(&mut spec)?,
                at: spec.time("at", DEFAULT_AT)?,
                heal: spec.opt_time("for")?,
            },
            _ => return Err(spec.unknown_family("none, gray, corrupt, flap or unidir")),
        };
        spec.finish()?;
        Ok(fault)
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
            FaultSpec::Loss {
                cause,
                p_ppm,
                at,
                heal,
                n,
            } => {
                for &pair in pick(*n) {
                    plan = plan.with(Failure::Loss {
                        pair,
                        at: *at,
                        p: *p_ppm as f64 / PPM as f64,
                        duration: *heal,
                        cause: *cause,
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
        assert!(err("gray{q=1}").contains("unknown parameter \"q\" (accepted: p, at, for, n)"));
        assert!(err("gray{p=2}").contains("out of range"));
        assert!(err("gray{p=0}").contains("use fault=none"));
        assert!(err("flap{period=0us}").contains("period must be positive"));
        assert!(err("flap{duty=1.5}").contains("out of range"));
        assert!(err("unidir{n=0}").contains("n 0 out of range"));
        assert!(err("none{p=0.1}").contains("no parameters"));
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
