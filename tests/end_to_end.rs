//! Cross-crate integration tests: full simulations exercising the public
//! API end to end, checking the paper's headline *shapes* (who wins, by
//! roughly what factor) rather than absolute microseconds.

use reps_repro::prelude::*;

fn run(
    fabric: &FatTreeConfig,
    lb: LbKind,
    workload: workloads::spec::Workload,
    failures: Vec<Failure>,
    seed: u64,
) -> Summary {
    let mut exp = Experiment::new("it", fabric.clone(), lb, workload);
    exp.failures = failures;
    exp.seed = seed;
    exp.deadline = Time::from_secs(10);
    exp.run().summary
}

#[test]
fn every_load_balancer_completes_a_permutation() {
    let fabric = FatTreeConfig::two_tier(8, 1);
    let rtt = SimConfig::paper_default().base_rtt(3);
    for lb in LbKind::paper_lineup(rtt) {
        let mut rng = netsim::rng::Rng64::new(1);
        let w = permutation(fabric.n_hosts(), 512 << 10, &mut rng);
        let s = run(&fabric, lb.clone(), w, Vec::new(), 1);
        assert!(s.completed, "{} did not complete", lb.label());
        assert_eq!(s.fg_flows, fabric.n_hosts() as usize);
    }
}

#[test]
fn deterministic_across_runs() {
    // Identical seeds must give bit-identical results (the repo's core
    // reproducibility guarantee).
    let fabric = FatTreeConfig::two_tier(8, 1);
    let results: Vec<Summary> = (0..2)
        .map(|_| {
            let mut rng = netsim::rng::Rng64::new(42);
            let w = permutation(fabric.n_hosts(), 1 << 20, &mut rng);
            run(
                &fabric,
                LbKind::Reps(RepsConfig::default()),
                w,
                Vec::new(),
                42,
            )
        })
        .collect();
    assert_eq!(results[0].max_fct, results[1].max_fct);
    assert_eq!(results[0].avg_fct, results[1].avg_fct);
    assert_eq!(results[0].counters, results[1].counters);
}

#[test]
fn different_seeds_differ() {
    let fabric = FatTreeConfig::two_tier(8, 1);
    let fcts: Vec<Time> = [1u64, 2]
        .iter()
        .map(|&seed| {
            let mut rng = netsim::rng::Rng64::new(seed);
            let w = permutation(fabric.n_hosts(), 1 << 20, &mut rng);
            run(
                &fabric,
                LbKind::Ops { evs_size: 1 << 16 },
                w,
                Vec::new(),
                seed,
            )
            .max_fct
        })
        .collect();
    assert_ne!(
        fcts[0], fcts[1],
        "seeds should shift the stochastic details"
    );
}

#[test]
fn spraying_beats_ecmp_on_tornado() {
    // The paper's headline symmetric-network result, in miniature.
    let fabric = FatTreeConfig::two_tier(8, 1);
    let w = tornado(fabric.n_hosts(), 2 << 20);
    let ecmp = run(&fabric, LbKind::Ecmp, w.clone(), Vec::new(), 3);
    let reps = run(
        &fabric,
        LbKind::Reps(RepsConfig::default()),
        w,
        Vec::new(),
        3,
    );
    assert!(ecmp.completed && reps.completed);
    let speedup = ecmp.max_fct.as_ps() as f64 / reps.max_fct.as_ps() as f64;
    assert!(speedup > 1.5, "REPS vs ECMP speedup only {speedup:.2}x");
}

#[test]
fn reps_survives_failure_far_better_than_ops() {
    // §4.3.3: under a mid-run cable failure REPS must beat OPS clearly on
    // both completion time and blackhole drops.
    let fabric = FatTreeConfig::two_tier(16, 1);
    let topo = Topology::build(fabric.clone(), 5);
    let pair = topo.tor_uplink_pairs(SwitchId(0))[0];
    let plan = vec![Failure::Cable {
        pair,
        at: Time::from_us(30),
        duration: None,
    }];
    let mut rng = netsim::rng::Rng64::new(5);
    let w = permutation(fabric.n_hosts(), 4 << 20, &mut rng);
    let ops = run(
        &fabric,
        LbKind::Ops { evs_size: 1 << 16 },
        w.clone(),
        plan.clone(),
        5,
    );
    let reps = run(&fabric, LbKind::Reps(RepsConfig::default()), w, plan, 5);
    assert!(ops.completed && reps.completed);
    assert!(
        reps.max_fct.as_ps() * 2 < ops.max_fct.as_ps(),
        "REPS {} vs OPS {} under failure",
        reps.max_fct,
        ops.max_fct
    );
    assert!(
        reps.counters.drops_link_down * 2 < ops.counters.drops_link_down,
        "REPS drops {} vs OPS drops {}",
        reps.counters.drops_link_down,
        ops.counters.drops_link_down
    );
}

#[test]
fn reps_adapts_to_degraded_uplink() {
    // §4.3.2: with one uplink at half rate, REPS must finish well ahead of
    // OPS (which splits traffic evenly and is capped by the slow link).
    let fabric = FatTreeConfig::two_tier(16, 1);
    let topo = Topology::build(fabric.clone(), 7);
    let pair = topo.tor_uplink_pairs(SwitchId(0))[0];
    let plan = vec![Failure::Degrade {
        pair,
        at: Time::ZERO,
        bps: 200_000_000_000,
    }];
    let w = tornado(fabric.n_hosts(), 8 << 20);
    let ops = run(
        &fabric,
        LbKind::Ops { evs_size: 1 << 16 },
        w.clone(),
        plan.clone(),
        7,
    );
    let reps = run(&fabric, LbKind::Reps(RepsConfig::default()), w, plan, 7);
    assert!(
        (reps.max_fct.as_ps() as f64) < ops.max_fct.as_ps() as f64 * 0.8,
        "REPS {} not clearly faster than OPS {} under asymmetry",
        reps.max_fct,
        ops.max_fct
    );
}

#[test]
fn ring_allreduce_is_lb_insensitive() {
    // §4.3.1: "the ring AllReduce has the same performance for most load
    // balancing algorithms" — no congestion can accumulate on a ring.
    let fabric = FatTreeConfig::two_tier(8, 1);
    let w = ring_allreduce(fabric.n_hosts(), 8 << 20);
    let runtimes: Vec<f64> = [
        LbKind::Ops { evs_size: 1 << 16 },
        LbKind::Reps(RepsConfig::default()),
        LbKind::Ecmp,
    ]
    .iter()
    .map(|lb| {
        let s = run(&fabric, lb.clone(), w.clone(), Vec::new(), 9);
        assert!(s.completed);
        s.makespan.as_us_f64()
    })
    .collect();
    let max = runtimes.iter().cloned().fold(0.0, f64::max);
    let min = runtimes.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 1.25,
        "ring AllReduce spread too wide: {runtimes:?}"
    );
}

#[test]
fn three_tier_fabric_works_end_to_end() {
    let fabric = FatTreeConfig::three_tier(4, 1);
    let mut rng = netsim::rng::Rng64::new(11);
    let w = permutation(fabric.n_hosts(), 1 << 20, &mut rng);
    let s = run(
        &fabric,
        LbKind::Reps(RepsConfig::default()),
        w,
        Vec::new(),
        11,
    );
    assert!(s.completed);
    assert_eq!(s.fg_flows, 16);
}

#[test]
fn oversubscribed_fabric_works_end_to_end() {
    let fabric = FatTreeConfig::two_tier(16, 3); // 3:1 oversubscription.
    let mut rng = netsim::rng::Rng64::new(13);
    let w = permutation(fabric.n_hosts(), 512 << 10, &mut rng);
    let s = run(
        &fabric,
        LbKind::Reps(RepsConfig::default()),
        w,
        Vec::new(),
        13,
    );
    assert!(s.completed);
}

#[test]
fn incast_is_cc_bound_not_lb_bound() {
    // §4.3.1: incast performance is driven by congestion control — the
    // per-packet sprayers land together, and even ECMP "performs well"
    // (within a collision-sized constant, not 3-6x as in tornado).
    let fabric = FatTreeConfig::two_tier(8, 1);
    let w = incast(fabric.n_hosts(), 8, HostId(0), 1 << 20);
    let fcts: Vec<f64> = [
        LbKind::Ecmp,
        LbKind::Ops { evs_size: 1 << 16 },
        LbKind::Reps(RepsConfig::default()),
    ]
    .iter()
    .map(|lb| {
        let s = run(&fabric, lb.clone(), w.clone(), Vec::new(), 15);
        assert!(s.completed);
        s.max_fct.as_us_f64()
    })
    .collect();
    let spray_ratio = fcts[1].max(fcts[2]) / fcts[1].min(fcts[2]);
    assert!(spray_ratio < 1.2, "OPS vs REPS spread too wide: {fcts:?}");
    assert!(
        fcts[0] / fcts[2] < 2.0,
        "ECMP should stay within a small factor on incast: {fcts:?}"
    );
}

#[test]
fn eqds_and_internal_cc_complete_with_reps() {
    let fabric = FatTreeConfig::two_tier(8, 1);
    for cc in [CcKind::Eqds, CcKind::Internal] {
        let mut rng = netsim::rng::Rng64::new(17);
        let w = permutation(fabric.n_hosts(), 1 << 20, &mut rng);
        let mut exp = Experiment::new("cc", fabric.clone(), LbKind::Reps(RepsConfig::default()), w);
        exp.cc = cc;
        exp.seed = 17;
        exp.deadline = Time::from_secs(10);
        let s = exp.run().summary;
        assert!(s.completed, "{cc:?} stalled");
    }
}

#[test]
fn coalescing_variants_complete_and_cut_acks() {
    let fabric = FatTreeConfig::two_tier(8, 1);
    let mut ctrl = Vec::new();
    for (ratio, variant) in [
        (1, CoalesceVariant::Plain),
        (8, CoalesceVariant::Plain),
        (8, CoalesceVariant::CarryEvs),
        (8, CoalesceVariant::ReuseEvs),
    ] {
        let mut rng = netsim::rng::Rng64::new(19);
        let w = permutation(fabric.n_hosts(), 1 << 20, &mut rng);
        let mut exp = Experiment::new(
            "coalesce",
            fabric.clone(),
            LbKind::Reps(RepsConfig::default()),
            w,
        );
        exp.coalesce = CoalesceConfig::ratio(ratio, variant);
        exp.seed = 19;
        exp.deadline = Time::from_secs(10);
        let s = exp.run().summary;
        assert!(s.completed, "ratio {ratio} {variant:?} stalled");
        ctrl.push(s.counters.ctrl_tx);
    }
    assert!(
        ctrl[1] < ctrl[0] / 4,
        "coalescing 8:1 must cut control packets: {ctrl:?}"
    );
}

#[test]
fn mixed_traffic_classes_complete_and_separate() {
    let fabric = FatTreeConfig::two_tier(8, 1);
    let n = fabric.n_hosts();
    let mut rng = netsim::rng::Rng64::new(23);
    let main = permutation(n, 1 << 20, &mut rng);
    let bg = tornado(n, 128 << 10);
    let mut exp = Experiment::new("mixed", fabric, LbKind::Reps(RepsConfig::default()), main);
    exp.background = Some((bg, LbKind::Ecmp));
    exp.seed = 23;
    exp.deadline = Time::from_secs(10);
    let s = exp.run().summary;
    assert!(s.completed);
    assert_eq!(s.fg_flows, n as usize);
    assert!(s.bg_max_fct.is_some());
}

#[test]
fn dc_trace_workload_runs_at_load() {
    let fabric = FatTreeConfig::two_tier(8, 1);
    let mut rng = netsim::rng::Rng64::new(29);
    let w = poisson_trace(
        fabric.n_hosts(),
        0.6,
        Time::from_us(100),
        400_000_000_000,
        &SizeCdf::websearch(),
        &mut rng,
    );
    assert!(!w.is_empty());
    let s = run(
        &fabric,
        LbKind::Reps(RepsConfig::default()),
        w,
        Vec::new(),
        29,
    );
    assert!(s.completed, "trace flows must all finish after load stops");
}

#[test]
fn adaptive_roce_uses_switch_side_routing() {
    let fabric = FatTreeConfig::two_tier(8, 1);
    let w = tornado(fabric.n_hosts(), 1 << 20);
    let s = run(&fabric, LbKind::AdaptiveRoce, w, Vec::new(), 31);
    assert!(s.completed);
}
