//! Declarative axis values for a [`crate::matrix::ScenarioMatrix`].
//!
//! Each axis value is a pure *description* carrying a stable label; it is
//! only materialized into a concrete [`Workload`] / [`Failure`] list /
//! topology inside one cell, with randomness drawn from the cell's derived
//! seed. Labels feed the cell key, so they must be unique within an axis
//! and stable across releases (they determine per-cell RNG seeds).

use netsim::config::SimConfig;
use netsim::failures::Failure;
use netsim::ids::{HostId, LinkId};
use netsim::link::LossCause;
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, Topology};
use workloads::spec::Workload;
use workloads::traces::SizeCdf;
use workloads::{collectives, patterns, traces};

/// A labeled fabric shape.
#[derive(Debug, Clone)]
pub struct FabricSpec {
    /// Stable label used in cell keys (e.g. `2t-k8-o1`).
    pub label: String,
    /// The topology shape.
    pub config: FatTreeConfig,
}

impl FabricSpec {
    /// A full 2-tier fat tree from radix `k`, oversubscription `o:1`.
    pub fn two_tier(k: u32, oversubscription: u32) -> FabricSpec {
        FabricSpec {
            label: format!("2t-k{k}-o{oversubscription}"),
            config: FatTreeConfig::two_tier(k, oversubscription),
        }
    }

    /// A full 3-tier fat tree from radix `k`, oversubscription `o:1`.
    pub fn three_tier(k: u32, oversubscription: u32) -> FabricSpec {
        FabricSpec {
            label: format!("3t-k{k}-o{oversubscription}"),
            config: FatTreeConfig::three_tier(k, oversubscription),
        }
    }

    /// An irregular 2-tier fabric (the FPGA-testbed shapes).
    pub fn custom(tors: u32, hosts_per_tor: u32, tor_uplinks: u32) -> FabricSpec {
        FabricSpec {
            label: format!("2t-custom-{tors}x{hosts_per_tor}-u{tor_uplinks}"),
            config: FatTreeConfig::two_tier_custom(tors, hosts_per_tor, tor_uplinks),
        }
    }

    /// A 2-tier leaf/spine fabric with an explicit oversubscription ratio:
    /// `tors` ToRs of `hosts_per_tor` hosts each and `hosts_per_tor / o`
    /// uplinks per ToR. Unlike [`FabricSpec::two_tier`], which derives the
    /// shape from a switch radix (and so cannot express `o = 2` and `o = 4`
    /// at the same radix), this keeps the host count fixed while the
    /// uplink capacity shrinks — the oversubscription sweeps' axis.
    ///
    /// # Panics
    ///
    /// Panics unless `hosts_per_tor` is a positive multiple of `o`.
    pub fn leaf_spine(tors: u32, hosts_per_tor: u32, o: u32) -> FabricSpec {
        assert!(o >= 1, "oversubscription must be at least 1:1");
        assert!(
            hosts_per_tor >= o && hosts_per_tor.is_multiple_of(o),
            "hosts_per_tor {hosts_per_tor} not divisible by oversubscription {o}"
        );
        FabricSpec {
            label: format!("ls-{tors}x{hosts_per_tor}-o{o}"),
            config: FatTreeConfig::two_tier_custom(tors, hosts_per_tor, hosts_per_tor / o),
        }
    }

    /// Parses a fabric label (`2t-kK-oO`, `3t-kK-oO`, `ls-TxH-oO`,
    /// `2t-custom-TxH-uU`), rejecting shapes its constructor cannot build.
    pub fn parse(s: &str) -> Result<FabricSpec, String> {
        let bad = || {
            format!("bad fabric {s:?} (expected 2t-kK-oO, 3t-kK-oO, ls-TxH-oO or 2t-custom-TxH-uU)")
        };
        if let Some(rest) = s.strip_prefix("2t-custom-") {
            let (tors, rest) = rest.split_once('x').ok_or_else(bad)?;
            let (hosts, uplinks) = rest.split_once("-u").ok_or_else(bad)?;
            let (tors, hosts, uplinks) = (
                num::<u32>(tors, "ToR count")?,
                num::<u32>(hosts, "hosts per ToR")?,
                num::<u32>(uplinks, "uplinks per ToR")?,
            );
            if tors == 0 || hosts == 0 || uplinks == 0 {
                return Err(format!("fabric {s:?} has a zero dimension"));
            }
            return Ok(FabricSpec::custom(tors, hosts, uplinks));
        }
        if let Some(rest) = s.strip_prefix("ls-") {
            let (tors, rest) = rest.split_once('x').ok_or_else(bad)?;
            let (hosts, o) = rest.split_once("-o").ok_or_else(bad)?;
            let (tors, hosts, o) = (
                num::<u32>(tors, "ToR count")?,
                num::<u32>(hosts, "hosts per ToR")?,
                num::<u32>(o, "oversubscription")?,
            );
            if tors == 0 || o == 0 || hosts == 0 || !hosts.is_multiple_of(o) {
                return Err(format!(
                    "fabric {s:?}: hosts per ToR must be a positive multiple of the oversubscription"
                ));
            }
            return Ok(FabricSpec::leaf_spine(tors, hosts, o));
        }
        for (prefix, three_tier) in [("2t-k", false), ("3t-k", true)] {
            if let Some(rest) = s.strip_prefix(prefix) {
                let (k, o) = rest.split_once("-o").ok_or_else(bad)?;
                let (k, o) = (num::<u32>(k, "radix")?, num::<u32>(o, "oversubscription")?);
                if k == 0
                    || o == 0
                    || !k.is_multiple_of(o + 1)
                    || (three_tier && !k.is_multiple_of(2))
                {
                    return Err(format!(
                        "fabric {s:?}: radix {k} does not support oversubscription {o}:1 \
                         (needs k divisible by {}{})",
                        o + 1,
                        if three_tier { " and even" } else { "" }
                    ));
                }
                return Ok(if three_tier {
                    FabricSpec::three_tier(k, o)
                } else {
                    FabricSpec::two_tier(k, o)
                });
            }
        }
        Err(bad())
    }
}

/// Parses a number out of a label, naming `what` on failure.
pub(crate) fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse::<T>().map_err(|e| format!("bad {what} {s:?}: {e}"))
}

/// The `T` of a `…Tus` label as a time, through the checked
/// [`Time::parse_label`]: a count past [`Time::MAX`] is an error, never a
/// wrapped instant.
fn micros(t: &str, what: &str) -> Result<Time, String> {
    Time::parse_label(&format!("{t}us")).map_err(|e| format!("bad {what}: {e}"))
}

/// A percentage in `lo..=100`. The failure builders clamp anything else,
/// so a label outside the range would name a scenario that never runs.
fn percent(s: &str, what: &str, lo: u32) -> Result<u32, String> {
    let p: u32 = num(s, what)?;
    if !(lo..=100).contains(&p) {
        return Err(format!("{what} {p} out of range {lo}..=100"));
    }
    Ok(p)
}

/// Which [`SimConfig`] profile a matrix runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimProfile {
    /// 400 Gbps paper-default fabric.
    #[default]
    PaperDefault,
    /// The §4.4 FPGA-testbed profile (100 Gbps NICs, 8 KiB MTU).
    FpgaTestbed,
}

impl SimProfile {
    /// Stable label used in cell keys.
    pub fn label(&self) -> &'static str {
        match self {
            SimProfile::PaperDefault => "paper",
            SimProfile::FpgaTestbed => "fpga",
        }
    }

    /// Inverts [`SimProfile::label`].
    pub fn parse(s: &str) -> Result<SimProfile, String> {
        match s {
            "paper" => Ok(SimProfile::PaperDefault),
            "fpga" => Ok(SimProfile::FpgaTestbed),
            other => Err(format!("unknown sim profile {other:?} (paper or fpga)")),
        }
    }

    /// Materializes the profile.
    pub fn config(&self) -> SimConfig {
        match self {
            SimProfile::PaperDefault => SimConfig::paper_default(),
            SimProfile::FpgaTestbed => SimConfig::fpga_testbed(),
        }
    }
}

/// A workload description, materialized per cell.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Tornado: host `i` → twin `(i + n/2) % n`.
    Tornado {
        /// Bytes per flow.
        bytes: u64,
    },
    /// Seeded random derangement, every host sends once.
    Permutation {
        /// Bytes per flow.
        bytes: u64,
    },
    /// `degree`:1 incast onto host 0.
    Incast {
        /// Number of concurrent senders.
        degree: u32,
        /// Bytes per flow.
        bytes: u64,
    },
    /// Ring AllReduce of a `bytes` buffer.
    RingAllreduce {
        /// Buffer bytes.
        bytes: u64,
    },
    /// Butterfly (halving/doubling) AllReduce of a `bytes` buffer.
    ButterflyAllreduce {
        /// Buffer bytes.
        bytes: u64,
    },
    /// Windowed AllToAll.
    AllToAll {
        /// Bytes per pairwise message.
        bytes: u64,
        /// Concurrent sends per host.
        window: u32,
    },
    /// Poisson arrivals from the WebSearch size CDF at a target load.
    DcTrace {
        /// Offered load as a percentage of host line rate.
        load_pct: u32,
        /// Arrival window.
        duration: Time,
    },
}

impl WorkloadSpec {
    /// Stable label used in cell keys.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Tornado { bytes } => format!("tornado-{bytes}B"),
            WorkloadSpec::Permutation { bytes } => format!("perm-{bytes}B"),
            WorkloadSpec::Incast { degree, bytes } => format!("incast{degree}to1-{bytes}B"),
            WorkloadSpec::RingAllreduce { bytes } => format!("ringar-{bytes}B"),
            WorkloadSpec::ButterflyAllreduce { bytes } => format!("bflyar-{bytes}B"),
            WorkloadSpec::AllToAll { bytes, window } => format!("a2a-w{window}-{bytes}B"),
            WorkloadSpec::DcTrace { load_pct, duration } => {
                format!("dctrace-{load_pct}pct-{}us", duration.as_ps() / 1_000_000)
            }
        }
    }

    /// Inverts [`WorkloadSpec::label`].
    pub fn parse(s: &str) -> Result<WorkloadSpec, String> {
        let bytes = |v: &str| -> Result<u64, String> {
            num(
                v.strip_suffix('B')
                    .ok_or_else(|| format!("size {v:?} missing its B suffix"))?,
                "byte count",
            )
        };
        for (prefix, make) in [
            (
                "tornado-",
                (|bytes| WorkloadSpec::Tornado { bytes }) as fn(u64) -> _,
            ),
            ("perm-", |bytes| WorkloadSpec::Permutation { bytes }),
            ("ringar-", |bytes| WorkloadSpec::RingAllreduce { bytes }),
            ("bflyar-", |bytes| WorkloadSpec::ButterflyAllreduce {
                bytes,
            }),
        ] {
            if let Some(rest) = s.strip_prefix(prefix) {
                return Ok(make(bytes(rest)?));
            }
        }
        if let Some(rest) = s.strip_prefix("incast") {
            let (degree, b) = rest
                .split_once("to1-")
                .ok_or_else(|| format!("bad incast workload {s:?} (expected incastDto1-NB)"))?;
            return Ok(WorkloadSpec::Incast {
                degree: num(degree, "incast degree")?,
                bytes: bytes(b)?,
            });
        }
        if let Some(rest) = s.strip_prefix("a2a-w") {
            let (window, b) = rest
                .split_once('-')
                .ok_or_else(|| format!("bad alltoall workload {s:?} (expected a2a-wW-NB)"))?;
            let window = num(window, "alltoall window")?;
            if window == 0 {
                return Err(format!("alltoall window in {s:?} must be at least 1"));
            }
            return Ok(WorkloadSpec::AllToAll {
                bytes: bytes(b)?,
                window,
            });
        }
        if let Some(rest) = s.strip_prefix("dctrace-") {
            let (pct, dur) = rest
                .split_once("pct-")
                .ok_or_else(|| format!("bad trace workload {s:?} (expected dctrace-Ppct-Tus)"))?;
            let dur = dur
                .strip_suffix("us")
                .ok_or_else(|| format!("bad trace duration in {s:?}"))?;
            return Ok(WorkloadSpec::DcTrace {
                load_pct: num(pct, "load percentage")?,
                duration: micros(dur, "trace duration")?,
            });
        }
        Err(format!(
            "unknown workload {s:?} (expected tornado-NB, perm-NB, incastDto1-NB, ringar-NB, \
             bflyar-NB, a2a-wW-NB or dctrace-Ppct-Tus)"
        ))
    }

    /// Whether the workload runs as its label advertises on an `n_hosts`
    /// fabric: every workload needs two hosts, an incast its senders plus
    /// the receiver, and a trace an offered load in `1..=120` percent.
    pub fn fits(&self, n_hosts: u32) -> Result<(), String> {
        let need = match self {
            WorkloadSpec::Incast { degree, .. } => degree.saturating_add(1).max(2),
            WorkloadSpec::DcTrace { load_pct, .. } if !(1..=120).contains(load_pct) => {
                return Err(format!("load {load_pct}% out of range 1..=120"));
            }
            _ => 2,
        };
        if n_hosts < need {
            return Err(format!("needs {need} hosts, the fabric has {n_hosts}"));
        }
        Ok(())
    }

    /// Materializes the workload for an `n_hosts` fabric; all randomness is
    /// drawn from `rng` (derived from the cell seed by the caller).
    pub fn build(&self, n_hosts: u32, link_bps: u64, rng: &mut Rng64) -> Workload {
        match self {
            WorkloadSpec::Tornado { bytes } => patterns::tornado(n_hosts, *bytes),
            WorkloadSpec::Permutation { bytes } => patterns::permutation(n_hosts, *bytes, rng),
            // No silent clamping: the label (and with it the derived seed)
            // advertises `degree`, so an oversized degree must fail loudly
            // rather than masquerade as a different scenario.
            WorkloadSpec::Incast { degree, bytes } => {
                patterns::incast(n_hosts, *degree, HostId(0), *bytes)
            }
            WorkloadSpec::RingAllreduce { bytes } => collectives::ring_allreduce(n_hosts, *bytes),
            WorkloadSpec::ButterflyAllreduce { bytes } => {
                let n = if n_hosts.is_power_of_two() {
                    n_hosts
                } else {
                    n_hosts.next_power_of_two() / 2
                };
                collectives::butterfly_allreduce(n.max(2), *bytes)
            }
            WorkloadSpec::AllToAll { bytes, window } => {
                collectives::alltoall(n_hosts, *bytes, *window)
            }
            WorkloadSpec::DcTrace { load_pct, duration } => traces::poisson_trace(
                n_hosts,
                *load_pct as f64 / 100.0,
                *duration,
                link_bps,
                &SizeCdf::websearch(),
                rng,
            ),
        }
    }
}

/// A failure-plan description, materialized per cell against the topology.
#[derive(Debug, Clone)]
pub enum FailureSpec {
    /// Healthy network.
    None,
    /// The first cable of the fabric fails at `at` (optionally recovering).
    OneCable {
        /// Failure instant.
        at: Time,
        /// Optional recovery delay.
        duration: Option<Time>,
    },
    /// The first T1 switch fails at `at`.
    OneSwitch {
        /// Failure instant.
        at: Time,
        /// Optional recovery delay.
        duration: Option<Time>,
    },
    /// A random `pct`% of switch-to-switch cables fail at `at`.
    RandomCables {
        /// Percentage of cables (0–100).
        pct: u32,
        /// Failure instant.
        at: Time,
        /// Optional recovery delay.
        duration: Option<Time>,
    },
    /// A random `pct`% of T1 switches fail at `at`.
    RandomSwitches {
        /// Percentage of T1 switches (0–100).
        pct: u32,
        /// Failure instant.
        at: Time,
        /// Optional recovery delay.
        duration: Option<Time>,
    },
    /// A random `pct`% of ToR uplink cables degrade to `gbps` from t=0
    /// (the paper's asymmetric-network scenarios).
    DegradedUplinks {
        /// Percentage of ToR uplink cables (0–100).
        pct: u32,
        /// Degraded rate in Gbps.
        gbps: u32,
    },
    /// One cable develops a `ber_millis`/1000 per-packet error rate at `at`.
    BitErrorCable {
        /// Per-mille packet corruption probability.
        ber_millis: u32,
        /// Onset instant.
        at: Time,
    },
    /// Rolling maintenance: `count` cables fail one after another, `period`
    /// apart, each staying down for `down_for` (a new scenario beyond the
    /// paper: the fabric is never fully healthy but never loses more than a
    /// few cables at once).
    Rolling {
        /// How many cables the wave touches.
        count: u32,
        /// Gap between consecutive failures.
        period: Time,
        /// Downtime of each cable.
        down_for: Time,
    },
    /// Incremental permanent loss of `count` uplinks of ToR 0, `period`
    /// apart (Fig. 22).
    IncrementalTorUplinks {
        /// How many uplinks fail.
        count: u32,
        /// Gap between consecutive failures.
        period: Time,
    },
}

impl FailureSpec {
    /// Stable label used in cell keys.
    pub fn label(&self) -> String {
        let dur = |d: Option<Time>| d.map_or("perm".to_string(), |t| format!("{}us", t.as_us()));
        match *self {
            FailureSpec::None => "none".to_string(),
            FailureSpec::OneCable { at, duration } => {
                format!("cable1-at{}us-{}", at.as_us(), dur(duration))
            }
            FailureSpec::OneSwitch { at, duration } => {
                format!("switch1-at{}us-{}", at.as_us(), dur(duration))
            }
            FailureSpec::RandomCables { pct, at, duration } => {
                format!("cables{pct}pct-at{}us-{}", at.as_us(), dur(duration))
            }
            FailureSpec::RandomSwitches { pct, at, duration } => {
                format!("switches{pct}pct-at{}us-{}", at.as_us(), dur(duration))
            }
            FailureSpec::DegradedUplinks { pct, gbps } => format!("degraded{pct}pct-{gbps}G"),
            FailureSpec::BitErrorCable { ber_millis, at } => {
                format!("ber{ber_millis}pm-at{}us", at.as_us())
            }
            FailureSpec::Rolling {
                count,
                period,
                down_for,
            } => format!(
                "rolling{count}-every{}us-down{}us",
                period.as_us(),
                down_for.as_us()
            ),
            FailureSpec::IncrementalTorUplinks { count, period } => {
                format!("incuplinks{count}-every{}us", period.as_us())
            }
        }
    }

    /// Inverts [`FailureSpec::label`].
    pub fn parse(s: &str) -> Result<FailureSpec, String> {
        if s == "none" {
            return Ok(FailureSpec::None);
        }
        if let Some(rest) = s.strip_prefix("cable1-") {
            let (at, duration) = parse_at_dur(rest, s)?;
            return Ok(FailureSpec::OneCable { at, duration });
        }
        if let Some(rest) = s.strip_prefix("switch1-") {
            let (at, duration) = parse_at_dur(rest, s)?;
            return Ok(FailureSpec::OneSwitch { at, duration });
        }
        for (prefix, switches) in [("cables", false), ("switches", true)] {
            if let Some(rest) = s.strip_prefix(prefix) {
                if let Some((pct, tail)) = rest.split_once("pct-") {
                    let pct = percent(pct, "failure percentage", 0)?;
                    let (at, duration) = parse_at_dur(tail, s)?;
                    return Ok(if switches {
                        FailureSpec::RandomSwitches { pct, at, duration }
                    } else {
                        FailureSpec::RandomCables { pct, at, duration }
                    });
                }
            }
        }
        if let Some(rest) = s.strip_prefix("degraded") {
            let (pct, gbps) = rest
                .split_once("pct-")
                .and_then(|(p, g)| g.strip_suffix('G').map(|g| (p, g)))
                .ok_or_else(|| format!("bad failure {s:?} (expected degradedPpct-NG)"))?;
            return Ok(FailureSpec::DegradedUplinks {
                pct: percent(pct, "degraded percentage", 1)?,
                gbps: num(gbps, "degraded rate")?,
            });
        }
        if let Some(rest) = s.strip_prefix("ber") {
            let (pm, at) = rest
                .split_once("pm-at")
                .and_then(|(p, a)| a.strip_suffix("us").map(|a| (p, a)))
                .ok_or_else(|| format!("bad failure {s:?} (expected berBpm-atTus)"))?;
            return Ok(FailureSpec::BitErrorCable {
                ber_millis: num(pm, "bit-error rate")?,
                at: micros(at, "onset instant")?,
            });
        }
        if let Some(rest) = s.strip_prefix("rolling") {
            let bad = || format!("bad failure {s:?} (expected rollingC-everyPus-downDus)");
            let (count, tail) = rest.split_once("-every").ok_or_else(bad)?;
            let (period, down) = tail.split_once("us-down").ok_or_else(bad)?;
            let down = down.strip_suffix("us").ok_or_else(bad)?;
            return Ok(FailureSpec::Rolling {
                count: num(count, "cable count")?,
                period: micros(period, "failure period")?,
                down_for: micros(down, "downtime")?,
            });
        }
        if let Some(rest) = s.strip_prefix("incuplinks") {
            let bad = || format!("bad failure {s:?} (expected incuplinksC-everyPus)");
            let (count, period) = rest.split_once("-every").ok_or_else(bad)?;
            let period = period.strip_suffix("us").ok_or_else(bad)?;
            return Ok(FailureSpec::IncrementalTorUplinks {
                count: num(count, "uplink count")?,
                period: micros(period, "failure period")?,
            });
        }
        Err(format!(
            "unknown failure {s:?} (expected none, cable1-..., switch1-..., cablesPpct-..., \
             switchesPpct-..., degradedPpct-NG, berBpm-atTus, rollingC-everyPus-downDus or \
             incuplinksC-everyPus)"
        ))
    }

    /// Checks that every instant the failure schedules is representable:
    /// an onset plus its heal, or the last of a staggered wave plus its
    /// downtime, must not pass [`Time::MAX`] (a wrapped sum would take a
    /// cable long before, or heal it long before its cut).
    pub(crate) fn check(&self) -> Result<(), String> {
        let terms = match *self {
            FailureSpec::None
            | FailureSpec::DegradedUplinks { .. }
            | FailureSpec::BitErrorCable { .. } => return Ok(()),
            FailureSpec::OneCable { at, duration }
            | FailureSpec::OneSwitch { at, duration }
            | FailureSpec::RandomCables { at, duration, .. }
            | FailureSpec::RandomSwitches { at, duration, .. } => {
                [(1, at), (1, duration.unwrap_or(Time::ZERO))]
            }
            FailureSpec::Rolling {
                count,
                period,
                down_for,
            } => [(count.into(), period), (1, down_for)],
            FailureSpec::IncrementalTorUplinks { count, period } => {
                [(count.into(), period), (0, Time::ZERO)]
            }
        };
        within_time("failure", &self.label(), &terms)
    }

    /// The failures this spec takes in `topo`, the cell's fabric. Random
    /// choices draw from `seed` (derived from the cell key by the caller),
    /// so the same cell always fails the same cables.
    pub fn build(&self, topo: &Topology, seed: u64) -> Vec<Failure> {
        let mut rng = Rng64::new(seed);
        let share = |pct: u32, len: usize| (len as f64 * (pct as f64 / 100.0)).round() as usize;
        match *self {
            FailureSpec::None => Vec::new(),
            FailureSpec::OneCable { at, duration } => {
                let pair = topo.cable_pairs()[0];
                vec![Failure::Cable { pair, at, duration }]
            }
            FailureSpec::OneSwitch { at, duration } => {
                let sw = topo.t1_switches()[0];
                vec![Failure::Switch { sw, at, duration }]
            }
            FailureSpec::RandomCables { pct, at, duration } => {
                let n = |len| share(pct, len).min(len);
                pick(topo.cable_pairs(), &mut rng, n, |pair| Failure::Cable {
                    pair,
                    at,
                    duration,
                })
            }
            FailureSpec::RandomSwitches { pct, at, duration } => {
                let n = |len| share(pct, len).min(len);
                pick(topo.t1_switches(), &mut rng, n, |sw| Failure::Switch {
                    sw,
                    at,
                    duration,
                })
            }
            FailureSpec::DegradedUplinks { pct, gbps } => {
                let tors = topo.t0_switches().into_iter();
                let uplinks = tors.flat_map(|tor| topo.tor_uplink_pairs(tor)).collect();
                let (at, bps) = (Time::ZERO, gbps as u64 * 1_000_000_000);
                let n = |len| share(pct, len).clamp(1, len);
                pick(uplinks, &mut rng, n, |pair| Failure::Degrade {
                    pair,
                    at,
                    bps,
                })
            }
            FailureSpec::BitErrorCable { ber_millis, at } => vec![Failure::Loss {
                pair: topo.cable_pairs()[0],
                at,
                p: ber_millis as f64 / 1000.0,
                duration: None,
                cause: LossCause::BitError,
            }],
            FailureSpec::Rolling {
                count,
                period,
                down_for,
            } => staggered(&topo.cable_pairs(), count, period, Some(down_for)),
            FailureSpec::IncrementalTorUplinks { count, period } => {
                let uplinks = topo.tor_uplink_pairs(topo.t0_switches()[0]);
                staggered(&uplinks, count, period, None)
            }
        }
    }
}

/// Shuffles `items` with `rng`, keeps the first `n(len)` and makes each
/// a `failure`: the one way a failure or a fault picks the cables or
/// switches it takes.
pub(crate) fn pick<T>(
    mut items: Vec<T>,
    rng: &mut Rng64,
    n: impl FnOnce(usize) -> usize,
    failure: impl FnMut(T) -> Failure,
) -> Vec<Failure> {
    rng.shuffle(&mut items);
    let n = n(items.len());
    items.into_iter().take(n).map(failure).collect()
}

/// Cuts of the first `count` of `pairs`, one `period` apart from
/// `period` on, each healing after `duration` (`None` = permanent).
fn staggered(
    pairs: &[(LinkId, LinkId)],
    count: u32,
    period: Time,
    duration: Option<Time>,
) -> Vec<Failure> {
    (1..)
        .zip(pairs.iter().take(count as usize))
        .map(|(k, &pair)| Failure::Cable {
            pair,
            at: period * k,
            duration,
        })
        .collect()
}

/// Checks that `Σ k × t` over `terms` stays within [`Time::MAX`] (every
/// instant a failure or a fault schedules is such a sum); the error names
/// the `axis` value `label`.
pub(crate) fn within_time(axis: &str, label: &str, terms: &[(u64, Time)]) -> Result<(), String> {
    let sum = terms.iter().try_fold(0u64, |sum, &(k, t)| {
        t.as_ps().checked_mul(k)?.checked_add(sum)
    });
    sum.map(|_| ()).ok_or_else(|| {
        let max = Time::MAX.label();
        format!("{axis} {label:?} schedules an instant past the end of time ({max})")
    })
}

/// Parses the `atTus-perm` / `atTus-Dus` tail shared by failure labels.
fn parse_at_dur(rest: &str, label: &str) -> Result<(Time, Option<Time>), String> {
    let bad = || format!("bad failure {label:?} (expected ...-atTus-perm or ...-atTus-Dus)");
    let rest = rest.strip_prefix("at").ok_or_else(bad)?;
    let (at, dur) = rest.split_once("us-").ok_or_else(bad)?;
    let at = micros(at, "failure instant")?;
    let duration = if dur == "perm" {
        None
    } else {
        let d = dur.strip_suffix("us").ok_or_else(bad)?;
        Some(micros(d, "failure duration")?)
    };
    Ok((at, duration))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_labels_are_stable() {
        assert_eq!(FabricSpec::two_tier(8, 1).label, "2t-k8-o1");
        assert_eq!(FabricSpec::three_tier(4, 1).label, "3t-k4-o1");
        assert_eq!(FabricSpec::custom(2, 8, 4).label, "2t-custom-2x8-u4");
        assert_eq!(FabricSpec::leaf_spine(8, 8, 2).label, "ls-8x8-o2");
    }

    #[test]
    fn leaf_spine_scales_uplinks_not_hosts() {
        for (o, uplinks) in [(1, 8), (2, 4), (4, 2)] {
            let f = FabricSpec::leaf_spine(8, 8, o);
            assert_eq!(f.config.n_hosts(), 64, "o={o}");
            assert_eq!(f.config.tor_uplinks, uplinks, "o={o}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn leaf_spine_rejects_fractional_uplink_counts() {
        FabricSpec::leaf_spine(8, 8, 3);
    }

    #[test]
    fn workload_build_matches_label_shape() {
        let mut rng = Rng64::new(1);
        let spec = WorkloadSpec::Permutation { bytes: 1 << 16 };
        let w = spec.build(32, 400_000_000_000, &mut rng);
        assert_eq!(w.len(), 32);
        assert!(w.validate(32).is_ok());
        assert_eq!(spec.label(), "perm-65536B");
    }

    #[test]
    #[should_panic(expected = "incast degree")]
    fn oversized_incast_degree_fails_loudly() {
        // The label advertises the requested degree, so a fabric too small
        // for it must panic instead of silently building something else.
        let mut rng = Rng64::new(1);
        let spec = WorkloadSpec::Incast {
            degree: 64,
            bytes: 1024,
        };
        let _ = spec.build(8, 400_000_000_000, &mut rng);
    }

    /// `label`'s failures in the 2-tier k=8 fabric, drawn from `seed`.
    fn failures(label: &str, seed: u64) -> Vec<Failure> {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
        FailureSpec::parse(label).unwrap().build(&topo, seed)
    }

    #[test]
    fn failure_build_is_deterministic_in_seed() {
        let plan = |seed| format!("{:?}", failures("cables25pct-at5us-perm", seed));
        assert_eq!(plan(99), plan(99));
        assert_ne!(plan(99), plan(100), "another seed picks other cables");
    }

    #[test]
    fn random_cables_picks_requested_fraction() {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
        let pairs = topo.cable_pairs().len();
        let plan = failures("cables25pct-at0us-perm", 42);
        assert_eq!(plan.len(), pairs / 4);
        let mut e = netsim::engine::Engine::new(topo, SimConfig::paper_default(), 1);
        netsim::failures::install(&plan, &mut e);
        e.run_until(Time::from_ns(1));
        let down = e.links.iter().filter(|l| !l.up).count();
        assert_eq!(down, pairs / 4 * 2);
    }

    #[test]
    fn random_switches_fraction() {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
        let plan = failures("switches50pct-at0us-perm", 7);
        assert_eq!(plan.len(), topo.t1_switches().len() / 2);
        assert!(plan.iter().all(|f| matches!(f, Failure::Switch { .. })));
    }

    #[test]
    fn rolling_failures_are_staggered_and_recover() {
        let plan = failures("rolling3-every50us-down30us", 1);
        assert_eq!(plan.len(), 3);
        for (i, f) in plan.iter().enumerate() {
            let Failure::Cable { at, duration, .. } = f else {
                panic!("expected cable failures");
            };
            assert_eq!(*at, Time::from_us(50) * (i as u64 + 1));
            assert_eq!(*duration, Some(Time::from_us(30)));
        }
    }
}
