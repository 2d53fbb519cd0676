//! REPS — Recycled Entropy Packet Spraying.
//!
//! This crate implements the paper's primary contribution: a decentralized,
//! per-packet adaptive load balancer for out-of-order datacenter transports
//! (Bonato et al., *REPS: Recycled Entropy Packet Spraying for Adaptive Load
//! Balancing and Failure Mitigation*, EUROSYS '26).
//!
//! The algorithm caches entropy values (EVs) of uncongested paths in a small
//! circular buffer — about 25 bytes of state per connection regardless of
//! topology size — and recycles them for future packets, falling back to
//! uniform exploration when the cache runs dry. On failure suspicion it
//! enters *freezing mode*, replaying only cached entropies so traffic steers
//! away from black holes within a round-trip or two.
//!
//! # Examples
//!
//! ```
//! use reps::{AckFeedback, LoadBalancer, Reps};
//! use netsim::{Rng64, Time};
//!
//! let mut lb = Reps::default_paper();
//! let mut rng = Rng64::new(7);
//!
//! // Before any feedback REPS explores random entropies.
//! let ev = lb.next_ev(Time::ZERO, &mut rng);
//!
//! // A clean (non-ECN) ACK caches its entropy for reuse...
//! lb.on_ack(
//!     &AckFeedback { ev, ecn: false, now: Time::from_us(10), cwnd_packets: 16, rtt: Time::from_us(10) },
//!     &mut rng,
//! );
//! // ...and the next send recycles it.
//! assert_eq!(lb.next_ev(Time::from_us(11), &mut rng), ev);
//! ```

pub mod footprint;
pub mod lb;
pub mod reps;

pub use lb::{AckFeedback, EvDecision, LoadBalancer};
pub use reps::{OwnedReps, Reps, RepsConfig, RepsCounters};
