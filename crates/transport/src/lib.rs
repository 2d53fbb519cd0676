//! An out-of-order, Ultra-Ethernet-like transport for the REPS evaluation.
//!
//! The transport accepts and acknowledges packets out of order (the paper's
//! prerequisite for per-packet spraying), tracks delivery with SACK bitmaps,
//! detects losses by retransmission timeout (optionally accelerated by
//! fabric packet trimming), and supports per-packet or coalesced ACKs,
//! including the paper's *Carry EVs* and *Reuse EVs* variants (§4.5.1).
//!
//! Three congestion controllers are provided (§4.5.3): a per-ACK DCTCP
//! variant (the default, as used by MPRDMA), an EQDS-like receiver-driven
//! credit scheme, and a DCQCN-like stand-in for the paper's proprietary
//! "internal" algorithm. Any [`reps::lb::LoadBalancer`] plugs in per
//! connection through [`baselines::kind::LbKind`].

pub mod cc;
pub mod config;
pub mod conn;
pub mod endpoint;
pub mod sack;

pub use cc::{Cc, CcKind, CcParams, CongestionControl};
pub use config::{CoalesceConfig, CoalesceVariant, TransportConfig};
pub use conn::{ReceiverConn, SenderConn};
pub use endpoint::HostEndpoint;
pub use sack::OooTracker;

/// Makes room in `v` for `additional` more elements, like
/// [`Vec::reserve`] but growing to exactly the length needed the first
/// time and doubling after that. A host's connection tables and schedule
/// mostly hold one or two entries for their whole life; this keeps growth
/// amortised O(1) without `Vec`'s minimum capacity of four.
pub(crate) fn reserve_doubling<T>(v: &mut Vec<T>, additional: usize) {
    let needed = v.len() + additional;
    if needed > v.capacity() {
        v.reserve_exact(needed.max(2 * v.capacity()) - v.len());
    }
}
