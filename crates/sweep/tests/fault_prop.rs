//! Property tests for the adversarial-fault axis:
//!
//! 1. the fault grammar is a true parse/render pair — `parse ∘ label` is
//!    the identity on every representable spec, and labels are already
//!    canonical (`label ∘ parse` is stable), so any spelling of one
//!    configuration shares one cell key, one derived seed, one shard and
//!    one cache address;
//! 2. plan expansion is a pure function of the cell — the same cell key
//!    installs byte-for-byte the same control-event sequence no matter
//!    which thread or shard materializes it, so faulted grids stay
//!    deterministic and cacheable like healthy ones.

use proptest::prelude::*;

use baselines::kind::LbKind;
use netsim::link::LossCause;
use netsim::time::Time;
use sweep::matrix::{LabeledLb, ScenarioMatrix};
use sweep::spec::{FabricSpec, WorkloadSpec};
use sweep::{run_cells, to_jsonl, FaultSpec, Shard};

fn us(v: u64) -> Time {
    Time::from_us(v)
}

/// Maps independently-sampled knobs onto one fault family; every field of
/// every variant is reachable. `heal_us == 0` means "permanent" (a zero
/// heal delay is not representable in the grammar, so the strategy uses it
/// as the `None` marker rather than wasting a sampled case).
fn spec_from(
    family: u8,
    p_ppm: u32,
    at_us: u64,
    heal_us: u64,
    n: u32,
    period_us: u64,
    duty_ppm: u32,
) -> FaultSpec {
    let at = us(at_us);
    let heal = (heal_us > 0).then(|| us(heal_us));
    match family % 4 {
        f @ (0 | 1) => FaultSpec::Loss {
            cause: [LossCause::Gray, LossCause::Corrupt][f as usize],
            p_ppm,
            at,
            heal,
            n,
        },
        2 => FaultSpec::Flap {
            period: us(period_us),
            duty_ppm,
            at,
            n,
        },
        _ => FaultSpec::Unidir { n, at, heal },
    }
}

/// A one-fault micro matrix: 1 lb × 1 workload × `seeds`, small enough to
/// simulate inside a property loop.
fn faulted_matrix(fault: FaultSpec, seeds: u32) -> ScenarioMatrix {
    ScenarioMatrix::new("fault-prop")
        .fabrics([FabricSpec::two_tier(4, 1)])
        .lbs([LabeledLb::plain(LbKind::Ops { evs_size: 1 << 16 })])
        .workloads([WorkloadSpec::Permutation { bytes: 16 << 10 }])
        .faults([fault])
        .seeds(seeds)
}

proptest! {
    /// Grammar round-trip: `parse(label(spec)) == spec` exactly (ppm
    /// probabilities and ps-exact durations, no float formatting), and the
    /// label is already canonical.
    #[test]
    fn label_and_parse_are_exact_inverses(
        family in 0u8..4,
        p_ppm in 1u32..=1_000_000,
        at_us in 0u64..500,
        heal_us in 0u64..500,
        n in 1u32..4,
        period_us in 1u64..500,
        duty_ppm in 0u32..=1_000_000,
    ) {
        let spec = spec_from(family, p_ppm, at_us, heal_us, n, period_us, duty_ppm);
        let label = spec.label();
        let reparsed = FaultSpec::parse(&label).expect(&label);
        prop_assert_eq!(&reparsed, &spec, "label {} does not round-trip", label);
        prop_assert_eq!(reparsed.label(), label);
    }

    /// Plan expansion is a pure function of the cell: re-materializing the
    /// same cell yields an identical failure plan (same cables, same
    /// onsets, same bounded flap schedule), and a 2-way shard split hands
    /// every cell to exactly one shard with its plan unchanged — what a
    /// fleet run relies on.
    #[test]
    fn installed_plan_is_a_pure_function_of_the_cell_key(
        family in 0u8..4,
        heal_us in 0u64..100,
        n in 1u32..3,
        period_us in 5u64..80,
    ) {
        let spec = spec_from(family, 50_000, 10, heal_us, n, period_us, 500_000);
        let cells = faulted_matrix(spec, 3).expand();
        let plans: Vec<String> = cells
            .iter()
            .map(|c| format!("{:?}", c.experiment().failures))
            .collect();
        for (c, plan) in cells.iter().zip(&plans) {
            prop_assert_eq!(&format!("{:?}", c.experiment().failures), plan);
        }
        // Shard membership is a pure function of the key: the two shards
        // partition the cells, and each cell's plan is the one the full
        // expansion computed.
        let shard1 = Shard { index: 1, count: 2 }.select(cells.clone());
        let shard2 = Shard { index: 2, count: 2 }.select(cells.clone());
        prop_assert_eq!(shard1.len() + shard2.len(), cells.len());
        let by_key = |key: &str| {
            cells
                .iter()
                .position(|c| c.key() == key)
                .expect("shard cell came from the expansion")
        };
        for c in shard1.iter().chain(&shard2) {
            let i = by_key(&c.key());
            prop_assert_eq!(&format!("{:?}", c.experiment().failures), &plans[i]);
        }
    }
}

/// End-to-end: a faulted grid's JSONL is byte-identical between 1 thread
/// and 8, and a 2-shard split reproduces exactly the unsharded records —
/// the fault axis never leaks scheduling into result bytes.
#[test]
fn faulted_grid_bytes_survive_threads_and_shard_splits() {
    let faults = [
        FaultSpec::parse("gray{p=0.05}").unwrap(),
        FaultSpec::parse("flap{period=20us}").unwrap(),
        FaultSpec::parse("unidir{for=100us}").unwrap(),
    ];
    for fault in faults {
        let cells = faulted_matrix(fault, 2).expand();
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 8);
        assert_eq!(to_jsonl(&serial), to_jsonl(&parallel));
        // 2-shard split: the union of per-shard records is the full set.
        let mut full: Vec<String> = serial.iter().map(sweep::sink::jsonl_record).collect();
        let mut sharded: Vec<String> = Vec::new();
        for index in 1..=2 {
            let shard = Shard { index, count: 2 }.select(cells.clone());
            sharded.extend(run_cells(&shard, 4).iter().map(sweep::sink::jsonl_record));
        }
        full.sort();
        sharded.sort();
        assert_eq!(full, sharded);
    }
}
