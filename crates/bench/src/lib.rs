//! What the sweep engine does not cover: theory figures and benchmarks.
//!
//! Every *simulation* figure of the paper is a declarative preset run by
//! `repsbench run --filter 'figNN*'` (see the top-level `README.md` for
//! the figure → command index). This crate keeps the three things that
//! are not sweeps:
//!
//! * [`theory`] and the `theory [GLOB]` binary — Table 1 and the
//!   balls-into-bins / trace-CDF figures (14, 17, 18, 20, 24), which are
//!   closed-form or Monte-Carlo models with no simulated fabric;
//! * `microbench` — the tinybench hot-path suite CI gates on;
//! * `alloctrace` — allocation accounting for the two cells below, which
//!   it shares with `microbench`.

use baselines::kind::LbKind;
use harness::experiment::Experiment;
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::FatTreeConfig;
use reps::reps::RepsConfig;
use workloads::patterns;

pub mod theory;

/// The permutation-workload cell the hot-path work targets: a 32-host
/// two-tier fabric running a 1 MiB-per-host permutation under REPS — the
/// same shape as the `permutation-sweep` preset's cells.
pub fn hotpath_experiment() -> Experiment {
    let mut rng = Rng64::new(3);
    let w = patterns::permutation(32, 1 << 20, &mut rng);
    let mut exp = Experiment::new(
        "hotpath",
        FatTreeConfig::two_tier(8, 1),
        LbKind::Reps(RepsConfig::default()),
        w,
    );
    exp.seed = 3;
    exp.deadline = Time::from_ms(100);
    exp
}

/// The 10k-host hybrid cell (160 ToRs × 64 hosts, 2:1 oversubscribed):
/// a foreground permutation over the first eight racks under REPS plus
/// an all-hosts tornado background. The two fidelities differ only in
/// `fluid_background`, so their wall-time ratio is pure
/// background-modelling cost at matched offered load.
pub fn hybrid_experiment(fluid: bool) -> Experiment {
    let mut rng = Rng64::new(11);
    let fg = patterns::permutation(512, 32 << 10, &mut rng);
    let mut exp = Experiment::new(
        "hybrid10k",
        FatTreeConfig::two_tier_custom(160, 64, 32),
        LbKind::Reps(RepsConfig::default()),
        fg,
    );
    exp.background = Some((patterns::tornado(10_240, 32 << 10), LbKind::Ecmp));
    exp.fluid_background = fluid;
    exp.seed = 11;
    exp.deadline = Time::from_ms(5);
    exp
}
