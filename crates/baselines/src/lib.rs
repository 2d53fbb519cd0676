//! Baseline load balancers for the REPS evaluation.
//!
//! Every comparison point from the paper's §4.1 lineup, implemented against
//! the same [`reps::lb::LoadBalancer`] trait as REPS itself:
//!
//! * [`ops::Ops`] — oblivious packet spraying (per-packet random EV),
//! * [`ecmp::Ecmp`] — static per-flow hashing,
//! * [`plb::Plb`] — flow repathing on persistent ECN (aggressive tuning),
//! * [`flowlet::Flowlet`] — gap-based flowlet switching,
//! * [`mprdma::Mprdma`] — one-deep ACK-clocked entropy reuse,
//! * [`bitmap::Bitmap`] — STrack-like per-EV congestion bits,
//! * [`mptcp::MptcpLike`] — static striping over 8 subflows,
//! * `Adaptive RoCE` — switch-side least-queue routing, provided by the
//!   fabric ([`netsim::engine::RoutingMode::Adaptive`]) with oblivious hosts.
//!
//! [`kind::LbKind`] names a scheme and its tuning; [`kind::LbKind::build`]
//! instantiates a per-connection balancer as a [`kind::Lb`], the closed
//! enum the transport stores inline in every sender.

pub mod bitmap;
pub mod ecmp;
pub mod flowlet;
pub mod kind;
pub mod mprdma;
pub mod mptcp;
pub mod ops;
pub mod plb;

pub use bitmap::Bitmap;
pub use ecmp::Ecmp;
pub use flowlet::Flowlet;
pub use kind::{Lb, LbKind};
pub use mprdma::Mprdma;
pub use mptcp::MptcpLike;
pub use ops::Ops;
pub use plb::{Plb, PlbConfig};
