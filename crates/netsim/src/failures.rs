//! Failures of the paper's §4.3.3 and Appendix C.3, and their install.
//!
//! A [`Failure`] names the cable, link or switch it takes and when; this
//! module only turns failures into the link/switch control events the
//! engine executes ([`install`]). Which cables a scenario takes — every
//! random pick — and what a flap's duty cycle means at its edges (a
//! never-up flap is a plain cut, a never-down one no failure) are
//! decided where the scenario is described, in the sweep's `failure` and
//! `fault` axes, so a [`Failure::Flap`] here always toggles.
//!
//! The per-packet loss faults — bit errors, gray loss and payload
//! corruption — are one [`Failure::Loss`] that names its [`LossCause`]:
//! they install as one [`ControlEvent::LinkLoss`] per direction, set one
//! entry of the link's [`LossCause`]-indexed probabilities, and differ
//! only in the drop counter a lost packet is charged to.

use crate::engine::{Endpoint, Engine};
use crate::event::ControlEvent;
use crate::ids::{LinkId, SwitchId};
use crate::link::LossCause;
use crate::time::Time;
use crate::trace::TraceSink;

/// A single failure instance in a scenario.
#[derive(Debug, Clone)]
pub enum Failure {
    /// Both directions of a cable go down at `at`; recover after `duration`
    /// (`None` = permanent).
    Cable {
        /// The `(forward, reverse)` unidirectional link pair.
        pair: (LinkId, LinkId),
        /// Failure instant.
        at: Time,
        /// Optional recovery delay.
        duration: Option<Time>,
    },
    /// A whole switch fails.
    Switch {
        /// The switch.
        sw: SwitchId,
        /// Failure instant.
        at: Time,
        /// Optional recovery delay.
        duration: Option<Time>,
    },
    /// A cable degrades to `bps` (both directions).
    Degrade {
        /// The `(forward, reverse)` link pair.
        pair: (LinkId, LinkId),
        /// Degradation instant.
        at: Time,
        /// New rate.
        bps: u64,
    },
    /// A cable loses packets with probability `p` per packet from `at`,
    /// each lost packet counted under `cause`'s
    /// [`DropReason`](crate::link::DropReason): the paper's bit-error
    /// cable, a gray failure (silent loss while both directions keep
    /// reporting healthy, so routing gets no signal) or payload
    /// corruption. The causes of one cable combine: each keeps its own
    /// probability, and a packet draws against them in
    /// [`LossCause::ALL`] order.
    Loss {
        /// The `(forward, reverse)` link pair.
        pair: (LinkId, LinkId),
        /// Onset instant.
        at: Time,
        /// Per-packet loss probability.
        p: f64,
        /// Optional heal delay (restores 0.0; `None` = permanent).
        duration: Option<Time>,
        /// What the loss models, and so which counter it is charged to.
        cause: LossCause,
    },
    /// A cable flaps: down for `period - up_time` then up for `up_time`,
    /// repeating from `at` until `until`. The toggles are generated as
    /// they fire (`Engine::schedule_flap`): the calendar holds one toggle
    /// pair per flapping cable, whatever the period and the horizon.
    Flap {
        /// The `(forward, reverse)` link pair.
        pair: (LinkId, LinkId),
        /// First down instant.
        at: Time,
        /// Full flap period (down + up).
        period: Time,
        /// Portion of each period the link is up, strictly between
        /// `ZERO` and `period`: both edges are other failures (a cut, or
        /// none), and installing one panics.
        up_time: Time,
        /// Horizon: no control event is scheduled at or beyond it.
        until: Time,
    },
    /// One direction of a cable blackholes; the reverse keeps working —
    /// the asymmetric failure ECMP-style reconvergence cannot see.
    UnidirBlackhole {
        /// The failing unidirectional link.
        link: LinkId,
        /// Failure instant.
        at: Time,
        /// Optional recovery delay (`None` = permanent).
        duration: Option<Time>,
    },
}

/// Schedules every failure onto the engine calendar, in slice order (the
/// order fixes the calendar's sequence numbers, and so ties between
/// control events at one instant).
///
/// The engine emits [`crate::trace::TraceEvent`] link/switch events as
/// each scheduled control event executes, so a traced run records the
/// full failure/recovery timeline without extra bookkeeping here.
pub fn install<S: TraceSink, E: Endpoint<S>>(failures: &[Failure], engine: &mut Engine<S, E>) {
    for f in failures {
        match f {
            Failure::Cable { pair, at, duration } => {
                engine.schedule_control(*at, ControlEvent::LinkDown(pair.0));
                engine.schedule_control(*at, ControlEvent::LinkDown(pair.1));
                if let Some(d) = duration {
                    engine.schedule_control(*at + *d, ControlEvent::LinkUp(pair.0));
                    engine.schedule_control(*at + *d, ControlEvent::LinkUp(pair.1));
                }
            }
            Failure::Switch { sw, at, duration } => {
                engine.schedule_control(*at, ControlEvent::SwitchDown(*sw));
                if let Some(d) = duration {
                    engine.schedule_control(*at + *d, ControlEvent::SwitchUp(*sw));
                }
            }
            Failure::Degrade { pair, at, bps } => {
                engine.schedule_control(*at, ControlEvent::LinkRate(pair.0, *bps));
                engine.schedule_control(*at, ControlEvent::LinkRate(pair.1, *bps));
            }
            Failure::Loss {
                pair,
                at,
                p,
                duration,
                cause,
            } => {
                let mut set = |t, p| {
                    engine.schedule_control(t, ControlEvent::LinkLoss(pair.0, *cause, p));
                    engine.schedule_control(t, ControlEvent::LinkLoss(pair.1, *cause, p));
                };
                set(*at, *p);
                if let Some(d) = duration {
                    set(*at + *d, 0.0);
                }
            }
            Failure::Flap {
                pair,
                at,
                period,
                up_time,
                until,
            } => engine.schedule_flap(*pair, *at, *period, *up_time, *until),
            Failure::UnidirBlackhole { link, at, duration } => {
                engine.schedule_control(*at, ControlEvent::LinkDown(*link));
                if let Some(d) = duration {
                    engine.schedule_control(*at + *d, ControlEvent::LinkUp(*link));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::topology::{FatTreeConfig, Topology};
    use crate::trace::{Recorder, TraceEvent};

    fn engine() -> Engine {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
        Engine::new(topo, SimConfig::paper_default(), 1)
    }

    /// `l`'s per-packet loss probability for `cause`.
    fn loss<S: TraceSink>(e: &Engine<S>, l: LinkId, cause: LossCause) -> f64 {
        e.link_side(l).loss[cause as usize]
    }

    #[test]
    fn cable_failure_takes_both_directions_down_then_recovers() {
        let mut e = engine();
        let pair = e.topo.cable_pairs()[0];
        install(
            &[Failure::Cable {
                pair,
                at: Time::from_us(10),
                duration: Some(Time::from_us(20)),
            }],
            &mut e,
        );
        e.run_until(Time::from_us(15));
        assert!(!e.links[pair.0.index()].up);
        assert!(!e.links[pair.1.index()].up);
        e.run_until(Time::from_us(40));
        assert!(e.links[pair.0.index()].up);
        assert!(e.links[pair.1.index()].up);
    }

    #[test]
    fn degrade_changes_rate_both_ways() {
        let mut e = engine();
        let pair = e.topo.cable_pairs()[3];
        let degrade = Failure::Degrade {
            pair,
            at: Time::ZERO,
            bps: 200_000_000_000,
        };
        install(&[degrade], &mut e);
        e.run_until(Time::from_ns(1));
        assert_eq!(e.links[pair.0.index()].rate_bps(), 200_000_000_000);
        assert_eq!(e.links[pair.1.index()].rate_bps(), 200_000_000_000);
    }

    #[test]
    fn bit_error_sets_probability() {
        let mut e = engine();
        let pair = e.topo.cable_pairs()[1];
        install(
            &[Failure::Loss {
                pair,
                at: Time::from_us(1),
                p: 0.01,
                duration: None,
                cause: LossCause::BitError,
            }],
            &mut e,
        );
        e.run_until(Time::from_us(2));
        assert!((loss(&e, pair.0, LossCause::BitError) - 0.01).abs() < 1e-12);
        // No heal was scheduled: the probability is permanent.
        e.run_until(Time::from_ms(10));
        assert!((loss(&e, pair.0, LossCause::BitError) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn bit_error_duration_heals_both_directions() {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
        let mut e: Engine<Recorder> =
            Engine::with_trace(topo, SimConfig::paper_default(), 1, Recorder::new());
        let pair = e.topo.cable_pairs()[1];
        install(
            &[Failure::Loss {
                pair,
                at: Time::from_us(1),
                p: 0.05,
                duration: Some(Time::from_us(10)),
                cause: LossCause::BitError,
            }],
            &mut e,
        );
        e.run_until(Time::from_us(5));
        assert!((loss(&e, pair.0, LossCause::BitError) - 0.05).abs() < 1e-12);
        assert!((loss(&e, pair.1, LossCause::BitError) - 0.05).abs() < 1e-12);
        e.run_until(Time::from_us(20));
        assert_eq!(
            loss(&e, pair.0, LossCause::BitError),
            0.0,
            "heal must restore 0.0"
        );
        assert_eq!(loss(&e, pair.1, LossCause::BitError), 0.0);
        // The trace tells the onset from the heal.
        let ber = |at, link, on| TraceEvent::LinkBer { at, link, on };
        let ((a, b), t) = (pair, [1, 11].map(Time::from_us));
        let onset = [ber(t[0], a, true), ber(t[0], b, true)];
        let heal = [ber(t[1], a, false), ber(t[1], b, false)];
        assert_eq!(e.trace.events, [onset, heal].concat());
    }

    #[test]
    fn gray_and_corrupt_set_then_heal() {
        let mut e = engine();
        let pair = e.topo.cable_pairs()[2];
        install(
            &[
                Failure::Loss {
                    pair,
                    at: Time::from_us(1),
                    p: 0.02,
                    duration: Some(Time::from_us(10)),
                    cause: LossCause::Gray,
                },
                Failure::Loss {
                    pair,
                    at: Time::from_us(1),
                    p: 0.03,
                    duration: None,
                    cause: LossCause::Corrupt,
                },
            ],
            &mut e,
        );
        e.run_until(Time::from_us(5));
        assert!((loss(&e, pair.0, LossCause::Gray) - 0.02).abs() < 1e-12);
        assert!((loss(&e, pair.1, LossCause::Corrupt) - 0.03).abs() < 1e-12);
        // The link stays "up" throughout: gray failures give routing no
        // signal to react to.
        assert!(e.links[pair.0.index()].up);
        e.run_until(Time::from_us(20));
        assert_eq!(loss(&e, pair.0, LossCause::Gray), 0.0);
        assert!((loss(&e, pair.0, LossCause::Corrupt) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn flap_alternates_down_and_up() {
        let mut e = engine();
        let pair = e.topo.cable_pairs()[0];
        install(
            &[Failure::Flap {
                pair,
                at: Time::from_us(10),
                period: Time::from_us(20),
                up_time: Time::from_us(10),
                until: Time::from_us(100),
            }],
            &mut e,
        );
        // Down at 10, up at 20, down at 30, up at 40, ...
        e.run_until(Time::from_us(15));
        assert!(!e.links[pair.0.index()].up);
        e.run_until(Time::from_us(25));
        assert!(e.links[pair.0.index()].up);
        e.run_until(Time::from_us(35));
        assert!(!e.links[pair.0.index()].up);
    }

    #[test]
    fn flap_horizon_bounds_the_schedule() {
        // The horizon truncates the schedule, and the calendar holds one
        // toggle pair of it at a time: a 20us period over a 100us window
        // is 5 cycles x (2 down + 2 up) toggles, never more than 2 pending.
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
        let pair = topo.cable_pairs()[0];
        let flap = |at, until| Failure::Flap {
            pair,
            at,
            period: Time::from_us(20),
            up_time: Time::from_us(10),
            until,
        };
        let mut e: Engine<Toggles> =
            Engine::with_trace(topo, SimConfig::paper_default(), 1, Toggles::default());
        install(&[flap(Time::ZERO, Time::from_us(100))], &mut e);
        assert_eq!(e.pending_events(), 2, "one toggle pair after install");
        for us in 1..=120 {
            e.run_until(Time::from_us(us));
            assert!(e.pending_events() <= 2, "{} pending", e.pending_events());
        }
        assert_eq!(e.batch_stats.calendar.heap_peak, 2, "one pair at a time");
        assert_eq!(
            (e.trace.down, e.trace.up),
            (10, 10),
            "5 cycles x (2 down + 2 up) toggles"
        );
        assert_eq!(e.batch_stats.kinds.controls, 20, "toggles are all it ran");
        assert_eq!(e.pending_events(), 0, "nothing at or after the horizon");
        // An onset at/after the horizon schedules nothing at all.
        install(&[flap(Time::from_us(100), Time::from_us(100))], &mut e);
        assert_eq!(e.pending_events(), 0);

        // A long horizon: the same flap out to 2 s is 400 000 toggles,
        // and still 2 entries on the calendar at any time.
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
        let mut e: Engine<Toggles> =
            Engine::with_trace(topo, SimConfig::paper_default(), 1, Toggles::default());
        install(&[flap(Time::ZERO, Time::from_secs(2))], &mut e);
        assert_eq!(e.pending_events(), 2, "one toggle pair after install");
        e.run_until(Time::from_secs(3));
        assert_eq!((e.trace.down, e.trace.up), (200_000, 200_000));
        assert_eq!(e.batch_stats.calendar.heap_peak, 2);
        assert!(e.links[pair.0.index()].up && e.links[pair.1.index()].up);
    }

    #[test]
    fn flap_toggles_keep_the_tie_order_of_an_up_front_schedule() {
        // Two flapping cables whose ups coincide, and rate changes pushed
        // after both at those same instants. A toggle pushed as the one
        // before it fires must run exactly where the whole schedule,
        // pushed at install, put it: ties between the runs and with the
        // later pushes included. (Plain re-pushes would draw fresh seqs
        // and run the toggles after the rate changes.)
        let trace = |lazy: bool| {
            let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
            let mut e: Engine<Recorder> =
                Engine::with_trace(topo, SimConfig::paper_default(), 1, Recorder::new());
            let cables = e.topo.cable_pairs();
            let (period, until) = (Time::from_us(20), Time::from_us(200));
            for (i, &pair) in cables[..2].iter().enumerate() {
                let at = Time::from_us(5 * i as u64);
                let up_time = Time::from_us(10 + 5 * i as u64);
                if lazy {
                    e.schedule_flap(pair, at, period, up_time, until);
                    continue;
                }
                // The up-front expansion the runs replace.
                let mut t = at;
                while t < until {
                    e.schedule_control(t, ControlEvent::LinkDown(pair.0));
                    e.schedule_control(t, ControlEvent::LinkDown(pair.1));
                    let up_at = t + (period - up_time);
                    if up_at >= until {
                        break;
                    }
                    e.schedule_control(up_at, ControlEvent::LinkUp(pair.0));
                    e.schedule_control(up_at, ControlEvent::LinkUp(pair.1));
                    t += period;
                }
            }
            for k in 0..25 {
                let bps = 100_000_000_000 + k;
                e.schedule_control(
                    Time::from_us(10 * k),
                    ControlEvent::LinkRate(cables[2].0, bps),
                );
            }
            e.run_until(Time::from_us(300));
            e.trace.events
        };
        let lazy = trace(true);
        assert_eq!(lazy.len(), 2 * 40 + 25, "every toggle and rate change ran");
        assert_eq!(lazy, trace(false));
    }

    /// Counts the link toggles a run dispatches.
    #[derive(Default)]
    struct Toggles {
        down: u64,
        up: u64,
    }

    impl TraceSink for Toggles {
        fn emit(&mut self, event: TraceEvent) {
            match event {
                TraceEvent::LinkDown { .. } => self.down += 1,
                TraceEvent::LinkUp { .. } => self.up += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn unidir_blackhole_kills_one_direction_only() {
        let mut e = engine();
        let pair = e.topo.cable_pairs()[4];
        install(
            &[Failure::UnidirBlackhole {
                link: pair.0,
                at: Time::from_us(10),
                duration: Some(Time::from_us(20)),
            }],
            &mut e,
        );
        e.run_until(Time::from_us(15));
        assert!(!e.links[pair.0.index()].up, "failed direction is down");
        assert!(e.links[pair.1.index()].up, "reverse direction stays up");
        e.run_until(Time::from_us(40));
        assert!(e.links[pair.0.index()].up, "recovers after duration");
    }
}
