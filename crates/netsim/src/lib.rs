//! A deterministic, packet-level datacenter network simulator.
//!
//! `netsim` is the substrate of the REPS reproduction: an htsim-equivalent
//! discrete-event simulator modelling output-queued switches with RED/ECN
//! marking and optional packet trimming, 2-/3-tier fat-tree fabrics with
//! ECMP (or per-packet adaptive) routing, link/switch failure injection, and
//! the statistics the paper's figures are computed from.
//!
//! # Architecture
//!
//! * [`engine::Engine`] owns the event calendar, link arena and endpoints.
//! * Transport stacks implement [`engine::Endpoint`] and interact with the
//!   fabric exclusively through [`engine::Ctx`].
//! * [`topology::Topology`] describes switches/links and answers routing
//!   queries; the engine executes them.
//! * Everything is deterministic for a fixed seed: the calendar breaks ties
//!   FIFO and all randomness flows from [`rng::Rng64`].
//!
//! # Hot-path design
//!
//! The per-packet inner loop is allocation-free in steady state:
//!
//! * in-fabric packets live in the engine-owned [`arena::PacketArena`];
//!   the calendar ([`event::EventQueue`]) and link queues move 4-byte
//!   [`arena::PacketRef`]s, so heap sifts and queue rotations never copy
//!   packet bodies, and a hop reads and writes only the packet's 16-byte
//!   [`arena::Header`]. A link's bands are threaded through the arena's
//!   successor array, so a [`link::Link`] owns no heap block;
//! * [`topology::Topology::route`] returns compact by-value
//!   [`topology::LinkRange`] descriptors (closed-form base/stride/count —
//!   no per-switch tables), and [`engine::RoutingView`] selects uplinks by
//!   index over a reusable engine-owned scratch buffer (failover filter)
//!   — no `Vec` is constructed on any packet path;
//! * every buffer (arena slots and free list, heap, action scratch)
//!   retains its high-water capacity across packets, and the arena's
//!   across the cells a thread runs.
//!
//! These invariants are pinned by an allocation-counting integration test
//! (`tests/alloc.rs`), routing-equivalence property tests
//! (`tests/properties.rs`) and the sweep crate's golden-output tests.
//!
//! # Examples
//!
//! ```
//! use netsim::config::SimConfig;
//! use netsim::engine::Engine;
//! use netsim::topology::{FatTreeConfig, Topology};
//!
//! // The paper's 128-node, radix-16, non-oversubscribed 2-tier fabric.
//! let topo = Topology::build(FatTreeConfig::two_tier(16, 1), 42);
//! let engine = Engine::new(topo, SimConfig::paper_default(), 42);
//! assert_eq!(engine.topo.n_hosts, 128);
//! ```

pub mod arena;
pub mod config;
pub mod engine;
pub mod event;
pub mod failures;
pub mod fluid;
pub mod grammar;
pub mod hash;
pub mod ids;
pub mod link;
pub mod packet;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use config::SimConfig;
pub use engine::{Command, Ctx, Endpoint, Engine, MessageSpec, RoutingMode, RoutingView};
pub use ids::{ConnId, FlowId, HostId, LinkId, NodeRef, SwitchId};
pub use packet::{Ack, Body, EvEcho, Packet, HEADER_BYTES};
pub use rng::Rng64;
pub use stats::{FlowRecord, Stats};
pub use time::Time;
pub use topology::{FatTreeConfig, Topology};
pub use trace::{EvDecision, NoTrace, Recorder, TraceEvent, TraceSink};
