//! Static ECMP (per-flow hashing, §2.2).
//!
//! Every packet of a connection carries the same entropy value, so the
//! fabric's ECMP hash pins the whole flow to one path — fast to reorder
//! nothing, fragile to hash collisions, blind to failures.

use netsim::rng::Rng64;
use netsim::time::Time;
use reps::lb::{AckFeedback, LoadBalancer};

/// Per-flow static path selection.
#[derive(Debug, Clone)]
pub struct Ecmp {
    ev: u16,
}

impl Ecmp {
    /// Creates a flow with a random five-tuple surrogate.
    pub fn new(rng: &mut Rng64) -> Ecmp {
        Ecmp {
            ev: rng.gen_range(1 << 16) as u16,
        }
    }
}

impl LoadBalancer for Ecmp {
    fn next_ev(&mut self, _now: Time, _rng: &mut Rng64) -> u16 {
        self.ev
    }

    fn on_ack(&mut self, _fb: &AckFeedback, _rng: &mut Rng64) {}

    fn on_timeout(&mut self, _now: Time) {}

    fn name(&self) -> &'static str {
        "ECMP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ev_is_constant_for_flow_lifetime() {
        let mut rng = Rng64::new(3);
        let mut ecmp = Ecmp::new(&mut rng);
        let first = ecmp.next_ev(Time::ZERO, &mut rng);
        for i in 1..100 {
            assert_eq!(ecmp.next_ev(Time::from_us(i), &mut rng), first);
        }
        ecmp.on_timeout(Time::from_us(200));
        assert_eq!(ecmp.next_ev(Time::from_us(201), &mut rng), first);
    }

    #[test]
    fn different_flows_usually_differ() {
        let mut rng = Rng64::new(4);
        let a = Ecmp::new(&mut rng).ev;
        let b = Ecmp::new(&mut rng).ev;
        assert_ne!(a, b);
    }
}
