//! The closed [`Lb`] enum must be observably the balancer it wraps: for
//! every family, `LbKind::build` and the concrete type built from an equal
//! RNG, driven through one seeded stream of sends, ACKs, timeouts and
//! trimming NACKs, choose the same entropies and report the same decision,
//! freeze state and diagnostics after every call.

use baselines::kind::{Lb, LbKind};
use baselines::{Bitmap, Ecmp, Flowlet, Mprdma, MptcpLike, Ops, Plb};
use netsim::rng::Rng64;
use netsim::time::Time;
use reps::lb::{AckFeedback, LoadBalancer};
use reps::reps::{Reps, RepsCounters};

/// The concrete balancer a kind names, built the way a connection builds
/// it — independently of [`LbKind::build`].
fn concrete(kind: &LbKind, rng: &mut Rng64) -> Box<dyn LoadBalancer> {
    match kind {
        LbKind::Reps(cfg) => Box::new(Reps::new(cfg.clone())),
        LbKind::Ops { evs_size } => Box::new(Ops::new(*evs_size)),
        LbKind::Ecmp => Box::new(Ecmp::new(rng)),
        LbKind::Plb(cfg) => Box::new(Plb::new(cfg.clone(), rng)),
        LbKind::Flowlet { gap } => Box::new(Flowlet::new(1 << 16, *gap, rng)),
        LbKind::Mprdma => Box::new(Mprdma::default()),
        LbKind::Bitmap {
            evs_size,
            clear_period,
        } => Box::new(Bitmap::new(*evs_size, *clear_period)),
        LbKind::MptcpLike { subflows } => Box::new(MptcpLike::new(*subflows, 1 << 16, rng)),
        LbKind::AdaptiveRoce => Box::new(Ops::default()),
    }
}

/// Every observable of a balancer besides the entropies it returns.
fn observe(lb: &dyn LoadBalancer) -> String {
    let mut diag = Vec::new();
    lb.diagnostics(&mut diag);
    format!(
        "{} {:?} frozen={} {diag:?}",
        lb.name(),
        lb.last_decision(),
        lb.is_frozen()
    )
}

#[test]
fn lb_enum_dispatches_like_the_concrete_balancers() {
    let specs = [
        "REPS",
        "REPS-nofreeze",
        "REPS+freeze@50us",
        "REPS{evs=16,buf=4,fto=3us}",
        "OPS",
        "ECMP",
        "PLB",
        "Flowlet",
        "MPRDMA",
        "BitMap",
        "BitMap{evs=16}",
        "MPTCP",
        "Adaptive RoCE",
    ];
    for (i, spec) in specs.into_iter().enumerate() {
        let kind = LbKind::parse(spec).expect(spec);
        let (mut rng_enum, mut rng_concrete) = (Rng64::new(i as u64), Rng64::new(i as u64));
        let mut lb: Lb = kind.build(&mut rng_enum);
        let mut counters = RepsCounters::default();
        let mut reference = concrete(&kind, &mut rng_concrete);
        assert_eq!(
            observe(&lb.with(&kind, &mut counters)),
            observe(&*reference),
            "{spec}: as built"
        );

        let mut stream = Rng64::new(0x5eed + i as u64);
        let mut now = Time::ZERO;
        let mut last_ev = 0u16;
        for step in 0..4_000 {
            now += Time::from_ns(stream.gen_range(2_000));
            let call = match stream.gen_range(10) {
                0..=3 => {
                    let ev = lb.with(&kind, &mut counters).next_ev(now, &mut rng_enum);
                    assert_eq!(
                        ev,
                        reference.next_ev(now, &mut rng_concrete),
                        "{spec}: entropy at step {step}"
                    );
                    last_ev = ev;
                    "next_ev"
                }
                4..=7 => {
                    let fb = AckFeedback {
                        // Mostly the entropy just sent, as a real ACK echoes.
                        ev: if stream.gen_bool(0.8) {
                            last_ev
                        } else {
                            stream.gen_range(1 << 16) as u16
                        },
                        ecn: stream.gen_bool(0.2),
                        now,
                        cwnd_packets: stream.gen_range(64) as u32,
                        rtt: Time::from_us(10),
                    };
                    lb.with(&kind, &mut counters).on_ack(&fb, &mut rng_enum);
                    reference.on_ack(&fb, &mut rng_concrete);
                    "on_ack"
                }
                8 => {
                    lb.with(&kind, &mut counters).on_timeout(now);
                    reference.on_timeout(now);
                    "on_timeout"
                }
                _ => {
                    lb.with(&kind, &mut counters)
                        .on_congestion_loss(last_ev, now);
                    reference.on_congestion_loss(last_ev, now);
                    "on_congestion_loss"
                }
            };
            assert_eq!(
                observe(&lb.with(&kind, &mut counters)),
                observe(&*reference),
                "{spec}: after {call} at step {step}"
            );
        }
        // Both consumed the same randomness.
        assert_eq!(rng_enum.next_u64(), rng_concrete.next_u64(), "{spec}");
    }
}
