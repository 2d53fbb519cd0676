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
//! [`FaultSpec::build`] turns a fault into [`Failure`]s against the
//! cell's topology, with a cell-derived [`Rng64`] choosing the affected
//! cables through the failure axis's picker, so a cell is
//! byte-deterministic and cacheable like every other axis value. Flap
//! schedules end at the cell's horizon (its deadline) and are generated as
//! they fire: the calendar holds one toggle pair per flapping cable,
//! however short the period and long the horizon. What a flap's duty
//! edges mean is decided here too, not in the simulator (see
//! [`FaultSpec::build`]).

use netsim::failures::Failure;
use netsim::grammar::{Ppm, Render, Spec, PPM};
use netsim::ids::LinkId;
use netsim::link::LossCause;
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::Topology;

use crate::spec::{pick, within_time};

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

    /// Checks that every instant the fault schedules is representable:
    /// an onset plus its heal, or a flap's onset plus one period, must not
    /// pass [`Time::MAX`].
    pub(crate) fn check(&self) -> Result<(), String> {
        let terms = match *self {
            FaultSpec::None => return Ok(()),
            FaultSpec::Loss { at, heal, .. } | FaultSpec::Unidir { at, heal, .. } => {
                [(1, at), (1, heal.unwrap_or(Time::ZERO))]
            }
            FaultSpec::Flap { period, at, .. } => [(1, at), (1, period)],
        };
        within_time("fault", &self.label(), &terms)
    }

    /// The failures this fault takes in `topo`, the cell's fabric. The
    /// affected cables are a deterministic shuffle seeded by `seed`
    /// (cell-derived), and flap schedules end at `horizon` (the cell
    /// deadline), so the same cell key always installs the same bounded
    /// control-event sequence.
    ///
    /// A flap's duty edges are decided here: a flap never up (`duty=0`,
    /// or a period too short to leave a picosecond up) is a permanent cut
    /// at its onset, if the onset comes before `horizon`, and one never
    /// down (`duty=1`) takes nothing, so every [`Failure::Flap`] built
    /// toggles.
    ///
    /// # Panics
    ///
    /// Panics when the cables the fault takes exceed the fabric's: the label
    /// advertises `n`, so an oversized request must fail loudly rather
    /// than silently model a different scenario. (A spec file is checked
    /// when it is parsed, so user text never gets here.)
    pub fn build(&self, topo: &Topology, seed: u64, horizon: Time) -> Vec<Failure> {
        let cables = |failure: &dyn Fn((LinkId, LinkId)) -> Failure| {
            let n = self.cables() as usize;
            let n = |len| {
                assert!(n <= len, "fault n={n} exceeds the fabric's {len} cables");
                n
            };
            pick(topo.cable_pairs(), &mut Rng64::new(seed), n, failure)
        };
        match *self {
            FaultSpec::None => Vec::new(),
            FaultSpec::Loss {
                cause,
                p_ppm,
                at,
                heal,
                ..
            } => cables(&|pair| Failure::Loss {
                pair,
                at,
                p: p_ppm as f64 / PPM as f64,
                duration: heal,
                cause,
            }),
            FaultSpec::Flap {
                period,
                duty_ppm,
                at,
                ..
            } => {
                // Integer ppm arithmetic: `up_time` is exact, and lands
                // exactly on ZERO or `period` at the edges.
                let up_time = Time::from_ps(
                    ((period.as_ps() as u128 * duty_ppm as u128) / PPM as u128) as u64,
                );
                if up_time == period || (up_time == Time::ZERO && at >= horizon) {
                    Vec::new()
                } else if up_time == Time::ZERO {
                    cables(&|pair| Failure::Cable {
                        pair,
                        at,
                        duration: None,
                    })
                } else {
                    cables(&|pair| Failure::Flap {
                        pair,
                        at,
                        period,
                        up_time,
                        until: horizon,
                    })
                }
            }
            FaultSpec::Unidir { at, heal, .. } => cables(&|pair| Failure::UnidirBlackhole {
                link: pair.0,
                at,
                duration: heal,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use netsim::config::SimConfig;
    use netsim::engine::Engine;

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

    /// The 2-tier k=8 fabric the build tests pick cables from.
    fn topo() -> Topology {
        Topology::build(netsim::topology::FatTreeConfig::two_tier(8, 1), 1)
    }

    #[test]
    fn build_is_deterministic_and_respects_n() {
        let spec = FaultSpec::parse("gray{p=0.02,n=3}").unwrap();
        let dump = |seed| format!("{:?}", spec.build(&topo(), seed, Time::from_ms(2)));
        assert_eq!(spec.build(&topo(), 99, Time::from_ms(2)).len(), 3);
        assert_eq!(dump(99), dump(99));
        // A different seed picks different cables.
        assert_ne!(dump(99), dump(100));
    }

    #[test]
    fn flap_build_converts_duty_exactly() {
        let horizon = Time::from_us(500);
        let up = |s: &str| -> Time {
            let plan = FaultSpec::parse(s).unwrap().build(&topo(), 1, horizon);
            let Failure::Flap { up_time, until, .. } = plan[0] else {
                panic!("expected a flap");
            };
            assert_eq!(until, horizon, "horizon threads through");
            up_time
        };
        assert_eq!(up("flap{period=100us,duty=0.5}"), Time::from_us(50));
        assert_eq!(up("flap{period=100us,duty=0.000001}"), Time::from_ps(100));
        assert_eq!(
            up("flap{period=100us,duty=0.999999}"),
            Time::from_ps(99_999_900)
        );
    }

    #[test]
    fn flap_duty_edges_build_a_cut_or_nothing() {
        let build = |s: &str, horizon| FaultSpec::parse(s).unwrap().build(&topo(), 1, horizon);
        // duty = 1: never down, so no failure at all.
        assert!(build("flap{duty=1,n=2}", Time::from_ms(100)).is_empty());
        // duty = 0: never up, a permanent cut at the onset, and nothing
        // when the onset is not before the horizon. A period too short to
        // leave a picosecond up is a cut too.
        assert!(build("flap{duty=0}", Time::from_us(10)).is_empty());
        assert!(matches!(
            build("flap{period=1ps,duty=0.5}", Time::from_ms(100))[..],
            [Failure::Cable { duration: None, .. }]
        ));
        let cuts = build("flap{duty=0,at=10us,n=2}", Time::from_ms(100));
        let onset =
            |f: &Failure| matches!(*f, Failure::Cable { at, .. } if at == Time::from_us(10));
        assert!(cuts.iter().all(onset), "{cuts:?}");
        let mut e = Engine::new(topo(), SimConfig::paper_default(), 1);
        let before = e.pending_events();
        netsim::failures::install(&cuts, &mut e);
        assert_eq!(e.pending_events(), before + 2 * 2, "one down per direction");
        let down = |e: &Engine| e.links.iter().filter(|l| !l.up).count();
        e.run_until(Time::from_us(15));
        assert_eq!(down(&e), 2 * 2);
        e.run_until(Time::from_ms(99));
        assert_eq!(down(&e), 2 * 2, "duty=0 never recovers");
    }

    #[test]
    fn none_builds_nothing() {
        assert!(FaultSpec::None
            .build(&topo(), 1, Time::from_ms(2))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the fabric")]
    fn oversized_n_fails_loudly() {
        FaultSpec::parse("unidir{n=10000}")
            .unwrap()
            .build(&topo(), 1, Time::from_ms(2));
    }
}
