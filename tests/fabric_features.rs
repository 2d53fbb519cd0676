//! Integration tests for fabric features the figures rely on: packet
//! trimming, bit-error injection, ECMP failover reconvergence, and the
//! FPGA profile's mixed link rates.

use reps_repro::prelude::*;

#[test]
fn trimming_replaces_timeouts_under_congestion() {
    // With trimming on, congestion overflow produces NACK-driven recovery
    // instead of RTO stalls: far fewer timeouts for the same incast.
    let fabric = FatTreeConfig::two_tier(8, 1);
    let mut timeouts = Vec::new();
    let mut trims = Vec::new();
    for trimming in [false, true] {
        let w = incast(fabric.n_hosts(), 16, HostId(0), 2 << 20);
        let mut exp = Experiment::new(
            "trim",
            fabric.clone(),
            LbKind::Reps(RepsConfig::default()),
            w,
        );
        exp.sim.trimming = trimming;
        exp.seed = 33;
        exp.deadline = Time::from_secs(10);
        let s = exp.run().summary;
        assert!(s.completed, "incast (trimming={trimming}) stalled");
        timeouts.push(s.counters.timeouts);
        trims.push(s.counters.trims);
    }
    assert_eq!(trims[0], 0, "no trims expected when disabled");
    assert!(trims[1] > 0, "trimming must engage under a 16:1 incast");
    assert!(
        timeouts[1] < timeouts[0] || timeouts[0] == 0,
        "trimming should not increase timeouts: {timeouts:?}"
    );
}

#[test]
fn bit_error_links_lose_packets_but_flows_recover() {
    let fabric = FatTreeConfig::two_tier(8, 1);
    let topo = Topology::build(fabric.clone(), 35);
    let pair = topo.tor_uplink_pairs(SwitchId(0))[0];
    let mut rng = netsim::rng::Rng64::new(35);
    let w = permutation(fabric.n_hosts(), 2 << 20, &mut rng);
    let mut exp = Experiment::new("ber", fabric, LbKind::Reps(RepsConfig::default()), w);
    exp.failures = vec![Failure::Loss {
        pair,
        at: Time::ZERO,
        p: 0.01,
        duration: None,
        cause: LossCause::BitError,
    }];
    exp.seed = 35;
    exp.deadline = Time::from_secs(10);
    let s = exp.run().summary;
    assert!(s.completed, "BER run stalled");
    assert!(s.counters.drops_bit_error > 0, "BER must drop something");
    assert!(s.counters.retransmissions > 0);
}

#[test]
fn ecmp_failover_reroutes_after_reconvergence_delay() {
    // With routing reconvergence enabled, even static ECMP eventually stops
    // hashing onto a dead link — drops stop growing after the delay.
    let fabric = FatTreeConfig::two_tier(16, 1);
    let mut drops = Vec::new();
    for failover in [None, Some(Time::from_us(50))] {
        let topo = Topology::build(fabric.clone(), 37);
        let pair = topo.tor_uplink_pairs(SwitchId(0))[0];
        let mut rng = netsim::rng::Rng64::new(37);
        let w = permutation(fabric.n_hosts(), 4 << 20, &mut rng);
        let mut exp = Experiment::new(
            "failover",
            fabric.clone(),
            LbKind::Ops { evs_size: 1 << 16 },
            w,
        );
        exp.sim.ecmp_failover = failover;
        exp.failures = vec![Failure::Cable {
            pair,
            at: Time::from_us(20),
            duration: None,
        }];
        exp.seed = 37;
        exp.deadline = Time::from_secs(10);
        let s = exp.run().summary;
        assert!(s.completed);
        drops.push(s.counters.drops_link_down);
    }
    // Without reconvergence, blackhole drops accrue for the whole run;
    // with a 50 us delay they stop once routing converges, leaving only the
    // pre-convergence window.
    assert!(
        drops[1] * 2 <= drops[0],
        "reconvergence should cut blackhole drops well down: {drops:?}"
    );
}

#[test]
fn fpga_profile_uses_faster_fabric_links() {
    let fabric = FatTreeConfig::two_tier_custom(2, 8, 4);
    let topo = Topology::build(fabric.clone(), 39);
    let mut exp = Experiment::new(
        "fpga",
        fabric,
        LbKind::Reps(RepsConfig::default()),
        tornado(16, 1 << 20),
    );
    exp.sim = SimConfig::fpga_testbed();
    exp.seed = 39;
    exp.deadline = Time::from_secs(10);
    let engine = exp.build();
    // Host links at 100 G, spine links at 400 G.
    let host_up = engine.topo.host_up[0];
    assert_eq!(engine.links[host_up.index()].rate_bps(), 100_000_000_000);
    let spine = topo.tor_uplink_pairs(SwitchId(0))[0].0;
    assert_eq!(engine.links[spine.index()].rate_bps(), 400_000_000_000);
    // And the workload completes on this profile.
    let s = exp.run().summary;
    assert!(s.completed);
}

#[test]
fn adaptive_routing_balances_better_than_hash_under_skew() {
    // Switch-side adaptive routing (Adaptive RoCE stand-in) should spread a
    // skewed offered load with fewer ECN marks than oblivious hashing.
    let fabric = FatTreeConfig::two_tier(8, 1);
    let mut marks = Vec::new();
    for lb in [LbKind::Ops { evs_size: 1 << 16 }, LbKind::AdaptiveRoce] {
        let w = tornado(fabric.n_hosts(), 4 << 20);
        let mut exp = Experiment::new("ar", fabric.clone(), lb, w);
        exp.seed = 41;
        exp.deadline = Time::from_secs(10);
        let s = exp.run().summary;
        assert!(s.completed);
        marks.push(s.counters.ecn_marks);
    }
    assert!(
        marks[1] <= marks[0],
        "adaptive routing should not mark more than OPS: {marks:?}"
    );
}
