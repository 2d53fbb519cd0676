//! Named scenario presets: one [`ScenarioMatrix`] per simulation figure of
//! the paper, plus new scenarios beyond it.
//!
//! Presets cover every figure that runs fabric simulations (Figs. 2–13,
//! 15, 16, 19, 21–23). The theory figures (14, 17, 18, 20, 24 and
//! Table 1) evaluate closed-form balls-into-bins models, not experiments,
//! and are printed by the `bench` crate's `theory` binary. Preset grids
//! are *representative* slices of each figure, sized so the whole
//! quick-scale suite runs in minutes; a wider slice is a text grid
//! ([`crate::specfile`]), not a code change. The top-level `README.md`
//! indexes every figure with its command and the paper's expectation.
//!
//! New scenarios beyond the paper:
//!
//! * `incast-sweep` — incast degree sweep across the lineup,
//! * `permutation-sweep` — message-size sweep, multi-seed,
//! * `rolling-failures` — a rolling maintenance wave of transient cable
//!   outages (the fabric is never healthy, never badly broken),
//! * `mixed-collectives` — AI collectives with background AllToAll,
//! * `oversub-asym` — REPS vs. OPS across oversubscription ratios
//!   (`o ∈ {1, 2, 4}` leaf/spine plus a 2:1 three-tier), healthy and with
//!   degraded uplinks — the entropy-recycling-under-asymmetry claim on
//!   constrained fabrics,
//! * `reconv-delay` — the routing-reconvergence axis: how quickly must
//!   switches withdraw a cut path before spraying stops paying for it?
//! * `evs-sensitivity` — the §4.5.2 parameter ablation: OPS vs. REPS at
//!   EVS sizes 64 … 64K, every axis value a plain LB-spec string
//!   (`OPS{evs=64}`, `REPS{evs=64}`, …),
//! * `flowlet-gap` — flowlet inactivity-gap sweep (`Flowlet{gap=...}`)
//!   around the paper's RTT/2 default, under degraded uplinks,
//! * `gray-failures` — the adversarial-fault axis: gray (silent) loss at
//!   two severities, payload corruption and a unidirectional blackhole,
//!   none of which give routing a link-down signal to react to,
//! * `flap-reconv` — flapping links crossed with the reconvergence axis:
//!   does reconvergence help or hurt when the path keeps coming back?
//! * `hybrid-scale` — the fidelity axis: the same background-loaded cell
//!   at full packet fidelity and with the fluid background model, so the
//!   foreground FCT error the hybrid introduces is itself a measured,
//!   golden-pinned quantity.

use baselines::kind::{paper_rtt, LbKind};
use baselines::plb::PlbConfig;
use harness::Scale;
use netsim::time::Time;
use reps::reps::RepsConfig;
use transport::cc::CcKind;
use transport::config::CoalesceVariant;

use crate::axis::coalescing;
use crate::fault::FaultSpec;
use crate::fidelity::FidelitySpec;
use crate::matrix::{LabeledLb, ScenarioMatrix};
use crate::spec::{FabricSpec, FailureSpec, SimProfile, WorkloadSpec};

/// Parses a static fault-spec string; presets only use literals, so a
/// failure here is a bug caught by the preset tests.
fn fault(s: &str) -> FaultSpec {
    FaultSpec::parse(s).expect(s)
}

fn ops() -> LbKind {
    LbKind::Ops { evs_size: 1 << 16 }
}

fn reps() -> LbKind {
    LbKind::Reps(RepsConfig::default())
}

/// A load-balancer axis, each scheme labeled with its canonical spec.
fn labeled(lineup: impl IntoIterator<Item = LbKind>) -> Vec<LabeledLb> {
    lineup.into_iter().map(LabeledLb::plain).collect()
}

fn ops_vs_reps() -> Vec<LabeledLb> {
    labeled([ops(), reps()])
}

/// The macro comparison fabric (32 hosts quick, 128 full).
fn macro_fabric(scale: Scale) -> FabricSpec {
    FabricSpec::two_tier(scale.pick(8, 16), 1)
}

/// Macro message bytes scaled from the paper's MiB figure (1/16 quick).
fn macro_bytes(scale: Scale, full_mib: u64) -> u64 {
    scale.pick((full_mib << 20) / 16, full_mib << 20)
}

/// Micro message bytes (1/4 of paper scale when quick).
fn micro_bytes(scale: Scale, full_mib: u64) -> u64 {
    scale.pick((full_mib << 20) / 4, full_mib << 20)
}

/// All built-in presets at the given scale, in figure order.
pub fn all(scale: Scale) -> Vec<ScenarioMatrix> {
    let lineup = labeled(LbKind::paper_lineup(paper_rtt()));
    let failure_lineup = labeled(LbKind::failure_lineup(paper_rtt()));
    let synthetic = |mib: u64| {
        vec![
            WorkloadSpec::Incast {
                degree: 8,
                bytes: macro_bytes(scale, mib),
            },
            WorkloadSpec::Permutation {
                bytes: macro_bytes(scale, mib),
            },
            WorkloadSpec::Tornado {
                bytes: macro_bytes(scale, mib),
            },
        ]
    };
    let fail_at = scale.pick(Time::from_us(8), Time::from_us(30));

    vec![
        // === Paper figures ==============================================
        ScenarioMatrix::new("fig02-tornado-micro")
            .fabrics([FabricSpec::two_tier(16, 1)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Tornado {
                bytes: micro_bytes(scale, 16),
            }]),
        ScenarioMatrix::new("fig03-symmetric-macro")
            .fabrics([macro_fabric(scale)])
            .lbs(lineup.clone())
            .workloads(synthetic(8)),
        ScenarioMatrix::new("fig04-asymmetric-micro")
            .fabrics([FabricSpec::two_tier(16, 1)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Tornado {
                bytes: micro_bytes(scale, 32),
            }])
            .failures([FailureSpec::DegradedUplinks { pct: 1, gbps: 200 }]),
        ScenarioMatrix::new("fig05-asymmetric-macro")
            .fabrics([macro_fabric(scale)])
            .lbs(lineup.clone())
            .workloads(synthetic(8))
            .failures([FailureSpec::DegradedUplinks { pct: 3, gbps: 200 }]),
        ScenarioMatrix::new("fig06-mixed-traffic")
            .fabrics([macro_fabric(scale)])
            .lbs(lineup.clone())
            .workloads([
                WorkloadSpec::Permutation {
                    bytes: macro_bytes(scale, 8),
                },
                WorkloadSpec::Tornado {
                    bytes: macro_bytes(scale, 8),
                },
            ])
            .background(
                WorkloadSpec::Permutation {
                    bytes: macro_bytes(scale, 8) / 9,
                },
                LbKind::Ecmp,
            ),
        ScenarioMatrix::new("fig07-failure-micro")
            .fabrics([FabricSpec::two_tier(16, 1)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Permutation {
                bytes: micro_bytes(scale, 8),
            }])
            .failures([FailureSpec::Rolling {
                count: 2,
                period: Time::from_us(100),
                down_for: Time::from_us(100),
            }]),
        ScenarioMatrix::new("fig08-failure-macro")
            .fabrics([macro_fabric(scale)])
            .lbs(failure_lineup.clone())
            .workloads([WorkloadSpec::Permutation {
                bytes: macro_bytes(scale, 8),
            }])
            .failures([
                FailureSpec::OneCable {
                    at: fail_at,
                    duration: None,
                },
                FailureSpec::OneSwitch {
                    at: fail_at,
                    duration: None,
                },
                FailureSpec::RandomCables {
                    pct: 5,
                    at: fail_at,
                    duration: None,
                },
                FailureSpec::RandomSwitches {
                    pct: 5,
                    at: fail_at,
                    duration: None,
                },
                FailureSpec::BitErrorCable {
                    ber_millis: 10,
                    at: fail_at,
                },
            ]),
        ScenarioMatrix::new("fig09-extreme-failures")
            .fabrics([macro_fabric(scale)])
            .lbs(labeled([reps(), LbKind::Plb(PlbConfig::default())]))
            .workloads([WorkloadSpec::Permutation {
                bytes: macro_bytes(scale, 8),
            }])
            .failures(
                [0u32, 10, 20, 30, 40, 50]
                    .into_iter()
                    .map(|pct| FailureSpec::RandomCables {
                        pct,
                        at: Time::from_us(10),
                        duration: None,
                    })
                    .collect::<Vec<_>>(),
            ),
        ScenarioMatrix::new("fig10-fpga-goodput")
            .sim(SimProfile::FpgaTestbed)
            .fabrics([FabricSpec::custom(2, 32, 8)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::RingAllreduce {
                bytes: scale.pick(64u64 * (256 << 10), 64 * (4 << 20)),
            }])
            .deadline(Time::from_secs(5)),
        ScenarioMatrix::new("fig11-fpga-fct-drops")
            .sim(SimProfile::FpgaTestbed)
            .fabrics([FabricSpec::custom(2, 8, 4)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Permutation {
                bytes: scale.pick(1 << 20, 4 << 20),
            }])
            .failures([FailureSpec::OneCable {
                at: Time::from_us(50),
                duration: None,
            }])
            .deadline(Time::from_secs(5)),
        ScenarioMatrix::new("fig12-ack-coalescing")
            .fabrics([macro_fabric(scale)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Tornado {
                bytes: macro_bytes(scale, 8),
            }])
            .coalesce([1, 4, 16].map(|ratio| coalescing(ratio, CoalesceVariant::Plain))),
        ScenarioMatrix::new("fig13-coalescing-variants")
            .fabrics([macro_fabric(scale)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Tornado {
                bytes: macro_bytes(scale, 8),
            }])
            .coalesce(
                [
                    CoalesceVariant::Plain,
                    CoalesceVariant::CarryEvs,
                    CoalesceVariant::ReuseEvs,
                ]
                .map(|variant| coalescing(16, variant)),
            ),
        ScenarioMatrix::new("fig15-evs-and-cc")
            .fabrics([macro_fabric(scale)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Tornado {
                bytes: macro_bytes(scale, 8),
            }])
            .ccs([CcKind::Dctcp, CcKind::Eqds, CcKind::Internal]),
        ScenarioMatrix::new("fig16-topology-scaling")
            .fabrics([
                FabricSpec::two_tier(8, 1),
                FabricSpec::two_tier(16, 1),
                FabricSpec::three_tier(4, 1),
            ])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Permutation {
                bytes: macro_bytes(scale, 8),
            }]),
        ScenarioMatrix::new("fig19-forced-freezing")
            .fabrics([FabricSpec::two_tier(16, 1)])
            .lbs(labeled([
                ops(),
                reps(),
                // Canonical spec label: `REPS+freeze@50us`.
                LbKind::Reps(RepsConfig {
                    force_freezing_at: Some(Time::from_us(50)),
                    ..RepsConfig::default()
                }),
            ]))
            .workloads([WorkloadSpec::Tornado {
                bytes: micro_bytes(scale, 16),
            }]),
        ScenarioMatrix::new("fig21-three-tier")
            .fabrics([FabricSpec::three_tier(scale.pick(4, 8), 1)])
            .lbs(lineup.clone())
            .workloads(synthetic(4)),
        ScenarioMatrix::new("fig22-incremental-failures")
            .fabrics([FabricSpec::two_tier(8, 1)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Permutation {
                bytes: micro_bytes(scale, 8),
            }])
            .failures([FailureSpec::IncrementalTorUplinks {
                count: 3,
                period: scale.pick(Time::from_us(50), Time::from_us(200)),
            }])
            .deadline(Time::from_secs(5)),
        ScenarioMatrix::new("fig23-freezing-ablation")
            .fabrics([macro_fabric(scale)])
            .lbs(labeled([
                ops(),
                reps(),
                // Canonical spec label: `REPS-nofreeze`.
                LbKind::Reps(RepsConfig::default().without_freezing()),
            ]))
            .workloads([WorkloadSpec::Permutation {
                bytes: macro_bytes(scale, 8),
            }])
            .failures([FailureSpec::OneCable {
                at: fail_at,
                duration: None,
            }]),
        // === New scenarios beyond the paper =============================
        ScenarioMatrix::new("incast-sweep")
            .fabrics([macro_fabric(scale)])
            .lbs(labeled([
                LbKind::Ecmp,
                ops(),
                LbKind::Plb(PlbConfig::default()),
                reps(),
            ]))
            .workloads(
                [4u32, 8, 16]
                    .into_iter()
                    .map(|degree| WorkloadSpec::Incast {
                        degree,
                        bytes: macro_bytes(scale, 4),
                    })
                    .collect::<Vec<_>>(),
            )
            .seeds(3),
        ScenarioMatrix::new("permutation-sweep")
            .fabrics([macro_fabric(scale)])
            .lbs(labeled([LbKind::Ecmp, ops(), reps()]))
            .workloads(
                [1u64, 4, 16]
                    .into_iter()
                    .map(|mib| WorkloadSpec::Permutation {
                        bytes: macro_bytes(scale, mib),
                    })
                    .collect::<Vec<_>>(),
            )
            .seeds(3),
        ScenarioMatrix::new("rolling-failures")
            .fabrics([macro_fabric(scale)])
            .lbs(labeled([ops(), LbKind::Plb(PlbConfig::default()), reps()]))
            .workloads([WorkloadSpec::Permutation {
                bytes: macro_bytes(scale, 8),
            }])
            .failures([FailureSpec::Rolling {
                count: 4,
                period: Time::from_us(40),
                down_for: Time::from_us(80),
            }])
            .seeds(3),
        ScenarioMatrix::new("mixed-collectives")
            .fabrics([macro_fabric(scale)])
            .lbs(ops_vs_reps())
            .workloads([
                WorkloadSpec::RingAllreduce {
                    bytes: macro_bytes(scale, 16),
                },
                WorkloadSpec::ButterflyAllreduce {
                    bytes: macro_bytes(scale, 16),
                },
                WorkloadSpec::AllToAll {
                    bytes: scale.pick(16 << 10, 256 << 10),
                    window: 4,
                },
            ])
            .background(
                WorkloadSpec::AllToAll {
                    bytes: scale.pick(4 << 10, 64 << 10),
                    window: 2,
                },
                LbKind::Ecmp,
            )
            .deadline(Time::from_secs(5)),
        ScenarioMatrix::new("oversub-asym")
            .fabrics({
                let (tors, hosts) = scale.pick((8, 8), (16, 16));
                vec![
                    FabricSpec::leaf_spine(tors, hosts, 1),
                    FabricSpec::leaf_spine(tors, hosts, 2),
                    FabricSpec::leaf_spine(tors, hosts, 4),
                    FabricSpec::three_tier(scale.pick(6, 12), 2),
                ]
            })
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Permutation {
                bytes: macro_bytes(scale, 2),
            }])
            .failures([
                FailureSpec::None,
                FailureSpec::DegradedUplinks { pct: 10, gbps: 200 },
            ]),
        ScenarioMatrix::new("reconv-delay")
            .fabrics([FabricSpec::two_tier(8, 1)])
            .lbs(labeled([LbKind::Ecmp, ops(), reps()]))
            .workloads([WorkloadSpec::Permutation {
                bytes: micro_bytes(scale, 2),
            }])
            .failures([FailureSpec::OneCable {
                at: fail_at,
                duration: None,
            }])
            .reconv([
                None,
                Some(Time::from_us(10)),
                Some(Time::from_us(50)),
                Some(Time::from_us(200)),
            ]),
        // The §4.5.2 sensitivity claim as a sweep: REPS keeps its win down
        // to tiny entropy spaces while OPS degrades, because recycling
        // needs only *some* good entropies, not a large space of them.
        // Every axis value is a plain LB-spec string — the grid this
        // expands to is exactly what `examples/ablation.grid` spells.
        ScenarioMatrix::new("evs-sensitivity")
            .fabrics([FabricSpec::two_tier(8, 1)])
            .lbs(
                [64u32, 256, 4096, 1 << 16]
                    .into_iter()
                    .flat_map(|evs| {
                        [
                            LbKind::Ops { evs_size: evs },
                            LbKind::Reps(RepsConfig::default().with_evs_size(evs)),
                        ]
                    })
                    .map(LabeledLb::plain)
                    .collect::<Vec<_>>(),
            )
            .workloads([WorkloadSpec::Tornado {
                bytes: micro_bytes(scale, 2),
            }]),
        // How aggressive must flowlet switching be before it competes with
        // per-packet spraying? A gap sweep around the paper's RTT/2
        // default, under the asymmetry that makes path choice matter.
        ScenarioMatrix::new("flowlet-gap")
            .fabrics([FabricSpec::two_tier(8, 1)])
            .lbs(
                [
                    LbKind::Ops { evs_size: 1 << 16 },
                    LbKind::Reps(RepsConfig::default()),
                    LbKind::Flowlet {
                        gap: Time::from_us(1),
                    },
                    LbKind::Flowlet {
                        gap: paper_rtt() / 2,
                    },
                    LbKind::Flowlet {
                        gap: Time::from_us(20),
                    },
                    LbKind::Flowlet {
                        gap: Time::from_us(100),
                    },
                ]
                .into_iter()
                .map(LabeledLb::plain)
                .collect::<Vec<_>>(),
            )
            .workloads([WorkloadSpec::Tornado {
                bytes: micro_bytes(scale, 2),
            }])
            .failures([FailureSpec::DegradedUplinks { pct: 10, gbps: 200 }]),
        // Gray failures drop packets silently: the link stays up, routing
        // sees nothing, and only end-to-end loss detection can route
        // around it. Corruption and a one-direction blackhole complete the
        // adversarial set the failure axis (which always signals) misses.
        ScenarioMatrix::new("gray-failures")
            .fabrics([FabricSpec::two_tier(8, 1)])
            .lbs(labeled([LbKind::Ecmp, ops(), reps()]))
            .workloads([WorkloadSpec::Permutation {
                bytes: micro_bytes(scale, 2),
            }])
            .faults([
                FaultSpec::None,
                fault("gray{p=0.01}"),
                fault("gray{p=0.05,n=2}"),
                fault("corrupt{p=0.001}"),
                fault("unidir"),
            ]),
        // Flap period crossed with the reconvergence delay: when the dead
        // path keeps coming back, slow reconvergence never catches up and
        // fast reconvergence thrashes — entropy recycling reacts per
        // round-trip instead.
        ScenarioMatrix::new("flap-reconv")
            .fabrics([FabricSpec::two_tier(8, 1)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Permutation {
                bytes: micro_bytes(scale, 2),
            }])
            .faults([fault("flap{period=20us}"), fault("flap{period=100us}")])
            .reconv([None, Some(Time::from_us(25))]),
        // The same background-loaded cell, packet-accurate everywhere vs.
        // fluid background: the hybrid must reproduce the foreground FCT
        // distribution (the paper's quantity) while skipping every
        // background packet — the speedup that makes O(10k)-host cells
        // affordable. Pinned by goldens so the fidelity gap is a tracked
        // number, not a hope.
        ScenarioMatrix::new("hybrid-scale")
            .fabrics([macro_fabric(scale)])
            .lbs(ops_vs_reps())
            .workloads([WorkloadSpec::Permutation {
                bytes: macro_bytes(scale, 4),
            }])
            .background(
                WorkloadSpec::Tornado {
                    bytes: macro_bytes(scale, 4) / 8,
                },
                LbKind::Ecmp,
            )
            .fidelities([FidelitySpec::Pkt, FidelitySpec::Hybrid]),
    ]
}

/// Validates that every matrix name in a combined pool (built-in presets
/// plus `--spec-file` grids) is unique: name lookups and per-preset
/// filters take the first match, so a shadowed name would silently prefer
/// the built-in instead of the user's grid.
pub fn ensure_unique_names<'a>(
    matrices: impl IntoIterator<Item = &'a ScenarioMatrix>,
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for m in matrices {
        if !seen.insert(m.name.as_str()) {
            return Err(format!(
                "matrix name {:?} is defined twice (a spec file must not shadow a built-in \
                 preset or repeat a name)",
                m.name
            ));
        }
    }
    Ok(())
}

/// Looks up one preset by exact name.
pub fn by_name(name: &str, scale: Scale) -> Option<ScenarioMatrix> {
    all(scale).into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_expand_without_panicking() {
        for m in all(Scale::Quick) {
            let cells = m.expand();
            assert_eq!(cells.len(), m.len(), "{}", m.name);
            let keys: std::collections::BTreeSet<String> = cells.iter().map(|c| c.key()).collect();
            assert_eq!(keys.len(), cells.len(), "{}: duplicate keys", m.name);
        }
    }

    #[test]
    fn preset_names_are_unique_and_cover_new_scenarios() {
        let names: Vec<String> = all(Scale::Quick).into_iter().map(|m| m.name).collect();
        let set: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        for required in [
            "fig03-symmetric-macro",
            "fig08-failure-macro",
            "incast-sweep",
            "permutation-sweep",
            "rolling-failures",
            "mixed-collectives",
            "oversub-asym",
            "reconv-delay",
            "evs-sensitivity",
            "flowlet-gap",
            "gray-failures",
            "flap-reconv",
            "hybrid-scale",
        ] {
            assert!(names.iter().any(|n| n == required), "missing {required}");
        }
    }

    #[test]
    fn oversub_preset_sweeps_o_at_fixed_hosts() {
        let m = by_name("oversub-asym", Scale::Quick).expect("preset exists");
        let hosts: Vec<u32> = m.fabrics.iter().map(|f| f.config.n_hosts()).collect();
        assert_eq!(
            &hosts[..3],
            &[64, 64, 64],
            "leaf/spine hosts fixed across o"
        );
        let uplinks: Vec<u32> = m.fabrics.iter().map(|f| f.config.tor_uplinks).collect();
        assert_eq!(&uplinks[..3], &[8, 4, 2], "uplinks shrink with o");
        assert_eq!(m.fabrics[3].config.tiers, 3);
    }

    #[test]
    fn reconv_preset_sweeps_the_reconvergence_axis() {
        let m = by_name("reconv-delay", Scale::Quick).expect("preset exists");
        assert_eq!(m.reconv.len(), 4);
        assert_eq!(m.reconv[0], None);
        let keys: Vec<String> = m.expand().iter().map(|c| c.key()).collect();
        assert!(keys.iter().any(|k| k.contains("/rc=50us/")), "{keys:?}");
        assert!(
            keys.iter().filter(|k| k.contains("rc=")).count() == keys.len() / 4 * 3,
            "exactly the non-default reconv cells carry the rc= component"
        );
    }

    #[test]
    fn evs_sensitivity_sweeps_both_schemes_through_the_grammar() {
        let m = by_name("evs-sensitivity", Scale::Quick).expect("preset exists");
        let labels: Vec<&str> = m.lbs.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "OPS{evs=64}",
                "REPS{evs=64}",
                "OPS{evs=256}",
                "REPS{evs=256}",
                "OPS{evs=4096}",
                "REPS{evs=4096}",
                "OPS",
                "REPS",
            ]
        );
        for lb in &m.lbs {
            assert_eq!(LbKind::parse(&lb.label).unwrap(), lb.kind, "{}", lb.label);
        }
    }

    #[test]
    fn flowlet_gap_sweeps_around_the_default() {
        let m = by_name("flowlet-gap", Scale::Quick).expect("preset exists");
        let labels: Vec<&str> = m.lbs.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "OPS",
                "REPS",
                "Flowlet{gap=1us}",
                "Flowlet",
                "Flowlet{gap=20us}",
                "Flowlet{gap=100us}",
            ]
        );
    }

    #[test]
    fn every_preset_lb_label_is_its_canonical_spec() {
        for scale in [Scale::Quick, Scale::Full] {
            for m in all(scale) {
                for lb in &m.lbs {
                    assert_eq!(
                        lb.label,
                        lb.kind.spec(),
                        "{}: non-canonical lb label",
                        m.name
                    );
                    assert_eq!(
                        LbKind::parse(&lb.label).unwrap(),
                        lb.kind,
                        "{}: label does not reparse to its kind",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn gray_failures_preset_spans_the_fault_families() {
        let m = by_name("gray-failures", Scale::Quick).expect("preset exists");
        let labels: Vec<String> = m.faults.iter().map(FaultSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "none",
                "gray",
                "gray{p=0.05,n=2}",
                "corrupt{p=0.001}",
                "unidir",
            ]
        );
        let keys: Vec<String> = m.expand().iter().map(|c| c.key()).collect();
        // Exactly the non-default fault cells carry the ft= component.
        assert_eq!(
            keys.iter().filter(|k| k.contains("/ft=")).count(),
            keys.len() / 5 * 4,
        );
        assert!(keys.iter().any(|k| k.contains("/ft=gray{p=0.05,n=2}/")));
    }

    #[test]
    fn flap_reconv_preset_crosses_flapping_with_reconvergence() {
        let m = by_name("flap-reconv", Scale::Quick).expect("preset exists");
        assert_eq!(m.faults.len(), 2);
        assert_eq!(m.reconv, vec![None, Some(Time::from_us(25))]);
        let keys: Vec<String> = m.expand().iter().map(|c| c.key()).collect();
        assert!(
            keys.iter()
                .any(|k| k.contains("/rc=25us/ft=flap{period=20us}/")),
            "{keys:?}"
        );
        // Every cell is faulted; half also reconverge.
        assert!(keys.iter().all(|k| k.contains("/ft=flap")));
        assert_eq!(
            keys.iter().filter(|k| k.contains("/rc=")).count(),
            keys.len() / 2
        );
    }

    #[test]
    fn hybrid_scale_preset_crosses_the_fidelity_axis() {
        let m = by_name("hybrid-scale", Scale::Quick).expect("preset exists");
        assert_eq!(m.fidelities, vec![FidelitySpec::Pkt, FidelitySpec::Hybrid]);
        assert!(m.background.is_some(), "needs background traffic to model");
        let keys: Vec<String> = m.expand().iter().map(|c| c.key()).collect();
        // Exactly the hybrid half of the grid carries the fi= component;
        // the pkt half keys exactly like a pre-fidelity-axis cell.
        assert_eq!(
            keys.iter().filter(|k| k.contains("/fi=hybrid/")).count(),
            keys.len() / 2,
            "{keys:?}"
        );
        assert!(keys.iter().all(|k| !k.contains("fi=pkt")), "{keys:?}");
    }

    #[test]
    fn ensure_unique_names_rejects_shadowing() {
        let pool = all(Scale::Quick);
        ensure_unique_names(&pool).expect("built-ins are collision-free");
        let mut shadowed = pool;
        shadowed.push(ScenarioMatrix::new("fig02-tornado-micro"));
        let err = ensure_unique_names(&shadowed).expect_err("shadowing must fail");
        assert!(err.contains("fig02-tornado-micro"), "{err}");
    }

    #[test]
    fn full_scale_presets_expand_too() {
        let total: usize = all(Scale::Full).iter().map(|m| m.len()).sum();
        assert!(total > 100, "suite unexpectedly small: {total}");
    }

    #[test]
    fn by_name_finds_presets() {
        assert!(by_name("fig09-extreme-failures", Scale::Quick).is_some());
        assert!(by_name("no-such-preset", Scale::Quick).is_none());
    }
}
