//! Flight-recorder tracing: typed per-decision events, recorded only when
//! a caller asks for them.
//!
//! The simulator's summaries observe *outcomes* (FCTs, drops, utilization);
//! this module observes *decisions* — which uplink a switch picked for a
//! packet, which entropy value a load balancer chose and why, how deep a
//! receiver's reorder window ran, when a link died and when the transport
//! reacted. Every hook in the engine and transport is generic over a
//! [`TraceSink`]; the default sink is [`NoTrace`], a zero-sized no-op that
//! monomorphizes every `emit` call to nothing, so an untraced engine
//! compiles to exactly the pre-trace hot path (pinned by the
//! allocation-counting tests in `tests/alloc.rs`).
//!
//! [`Recorder`] is the opt-in sink: an append-only event log a traced run
//! can render into the per-cell `*.trace.jsonl` documents (`sweep::trace`)
//! and the `repsbench explain` report.
//!
//! The engine's batched event execution (`netsim::engine`, batch-drained
//! same-timestamp events and chained link service) dispatches in the
//! exact `(time, seq)` order the one-pop-at-a-time loop used, so hooks
//! fire in the same sequence and recorded trace documents stay
//! byte-identical — the sweep-level determinism tests pin this.

use crate::ids::{HostId, LinkId, SwitchId};
use crate::time::Time;

/// How a load balancer arrived at the entropy value it returned.
///
/// Lives here (rather than in the `reps` core crate) so the engine-level
/// event type can carry it without a dependency cycle; `reps::lb`
/// re-exports it as part of the [`LoadBalancer`](../../reps/lb/trait.LoadBalancer.html)
/// probe surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvDecision {
    /// A fresh draw from the entropy-value space (exploration).
    Fresh,
    /// A cached entropy recycled from a clean ACK (REPS' steady state).
    Recycled,
    /// A cached entropy replayed in freezing mode (failure reaction).
    FrozenReplay,
}

impl EvDecision {
    /// Stable lowercase label used in trace documents.
    pub fn label(self) -> &'static str {
        match self {
            EvDecision::Fresh => "fresh",
            EvDecision::Recycled => "recycled",
            EvDecision::FrozenReplay => "frozen",
        }
    }
}

/// One recorded decision or reaction.
///
/// Every variant carries the simulated instant `at`; identifiers are the
/// engine's own ([`SwitchId`], [`LinkId`], [`HostId`], connection ids), so
/// events can be joined against topology and series data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A switch sprayed a packet onto `link` (the per-hop path choice).
    PathChoice {
        /// When the choice was made.
        at: Time,
        /// The deciding switch.
        sw: SwitchId,
        /// The chosen uplink.
        link: LinkId,
        /// The packet's entropy value.
        ev: u16,
    },
    /// A sender's load balancer chose `ev` for an outgoing data packet.
    EvChoice {
        /// When the packet was committed.
        at: Time,
        /// The sending host.
        host: HostId,
        /// The sender-side connection id.
        conn: u32,
        /// The chosen entropy value.
        ev: u16,
        /// How the balancer arrived at it.
        decision: EvDecision,
        /// Whether the balancer was in freezing mode for this send.
        frozen: bool,
    },
    /// The balancer entered freezing mode (failure suspicion).
    Freeze {
        /// When freezing began.
        at: Time,
        /// The sending host.
        host: HostId,
        /// The sender-side connection id.
        conn: u32,
    },
    /// The balancer left freezing mode.
    Thaw {
        /// When freezing ended.
        at: Time,
        /// The sending host.
        host: HostId,
        /// The sender-side connection id.
        conn: u32,
    },
    /// A receiver accepted a data packet `depth` positions ahead of the
    /// in-order frontier (only out-of-order arrivals are recorded).
    Reorder {
        /// Arrival instant.
        at: Time,
        /// The receiving host.
        host: HostId,
        /// The receiver-side connection id.
        conn: u32,
        /// Out-of-order depth at acceptance.
        depth: u32,
    },
    /// A sender retransmitted sequence `seq` on entropy `ev`.
    Retransmit {
        /// When the retransmission was committed.
        at: Time,
        /// The sending host.
        host: HostId,
        /// The sender-side connection id.
        conn: u32,
        /// The retransmitted sequence number.
        seq: u64,
        /// The entropy value it was resent on.
        ev: u16,
    },
    /// A sender's RTO sweep expired `expired` in-flight packets.
    Timeout {
        /// The sweep instant.
        at: Time,
        /// The sending host.
        host: HostId,
        /// The sender-side connection id.
        conn: u32,
        /// Packets declared lost by this sweep.
        expired: u32,
    },
    /// A link went down (cable cut or switch failure).
    LinkDown {
        /// Failure instant.
        at: Time,
        /// The failed link.
        link: LinkId,
    },
    /// A link came back up.
    LinkUp {
        /// Recovery instant.
        at: Time,
        /// The recovered link.
        link: LinkId,
    },
    /// A link was degraded (or restored) to a new rate.
    LinkRate {
        /// Change instant.
        at: Time,
        /// The affected link.
        link: LinkId,
        /// The new rate in bits/s.
        bps: u64,
    },
    /// A link's bit-error rate changed.
    LinkBer {
        /// Change instant.
        at: Time,
        /// The affected link.
        link: LinkId,
    },
    /// A link entered (`on`) or left (`on == false`) gray failure —
    /// silent per-packet loss while reporting healthy.
    LinkGray {
        /// Onset or heal instant.
        at: Time,
        /// The affected link.
        link: LinkId,
        /// True at onset, false at heal.
        on: bool,
    },
    /// A link started (`on`) or stopped (`on == false`) corrupting
    /// payloads.
    LinkCorrupt {
        /// Onset or heal instant.
        at: Time,
        /// The affected link.
        link: LinkId,
        /// True at onset, false at heal.
        on: bool,
    },
    /// A whole switch went down (all its links with it).
    SwitchDown {
        /// Failure instant.
        at: Time,
        /// The failed switch.
        sw: SwitchId,
    },
    /// A switch came back up.
    SwitchUp {
        /// Recovery instant.
        at: Time,
        /// The recovered switch.
        sw: SwitchId,
    },
    /// The fluid background solver re-ran (hybrid-fidelity cells only).
    FluidResolve {
        /// Solve instant.
        at: Time,
        /// Active background flows after the solve.
        active: u32,
        /// Links whose residual rate changed.
        updated: u32,
    },
}

impl TraceEvent {
    /// The event's simulated instant.
    pub fn at(&self) -> Time {
        match *self {
            TraceEvent::PathChoice { at, .. }
            | TraceEvent::EvChoice { at, .. }
            | TraceEvent::Freeze { at, .. }
            | TraceEvent::Thaw { at, .. }
            | TraceEvent::Reorder { at, .. }
            | TraceEvent::Retransmit { at, .. }
            | TraceEvent::Timeout { at, .. }
            | TraceEvent::LinkDown { at, .. }
            | TraceEvent::LinkUp { at, .. }
            | TraceEvent::LinkRate { at, .. }
            | TraceEvent::LinkBer { at, .. }
            | TraceEvent::LinkGray { at, .. }
            | TraceEvent::LinkCorrupt { at, .. }
            | TraceEvent::SwitchDown { at, .. }
            | TraceEvent::SwitchUp { at, .. }
            | TraceEvent::FluidResolve { at, .. } => at,
        }
    }
}

/// A flight-recorder sink. The engine, transport and load balancers call
/// [`TraceSink::emit`] at every decision point; implementations choose
/// whether to keep the event.
///
/// Implementations must not observe or mutate simulation state — tracing
/// is read-only by contract, so a traced run produces byte-identical
/// results to an untraced one.
pub trait TraceSink {
    /// Records one event.
    fn emit(&mut self, event: TraceEvent);

    /// Whether events are being kept. Hooks may use this to skip work that
    /// exists only to build an event; [`NoTrace`] returns `false` so the
    /// optimizer drops the whole block.
    fn enabled(&self) -> bool {
        true
    }
}

/// The default sink: keeps nothing, costs nothing. Every generic hook
/// monomorphized with `NoTrace` compiles to the untraced hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    #[inline(always)]
    fn emit(&mut self, _event: TraceEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// The opt-in sink: an append-only in-memory event log.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// Every recorded event, in emission order (deterministic for a fixed
    /// seed — emission order is simulation order).
    pub events: Vec<TraceEvent>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }
}

impl TraceSink for Recorder {
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_discards_and_reports_disabled() {
        let mut sink = NoTrace;
        assert!(!sink.enabled());
        sink.emit(TraceEvent::LinkDown {
            at: Time::from_us(1),
            link: LinkId(3),
        });
    }

    #[test]
    fn recorder_keeps_emission_order() {
        let mut rec = Recorder::new();
        assert!(rec.enabled());
        rec.emit(TraceEvent::LinkDown {
            at: Time::from_us(1),
            link: LinkId(3),
        });
        rec.emit(TraceEvent::LinkUp {
            at: Time::from_us(2),
            link: LinkId(3),
        });
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].at(), Time::from_us(1));
        assert_eq!(rec.events[1].at(), Time::from_us(2));
    }

    #[test]
    fn decision_labels_are_stable() {
        assert_eq!(EvDecision::Fresh.label(), "fresh");
        assert_eq!(EvDecision::Recycled.label(), "recycled");
        assert_eq!(EvDecision::FrozenReplay.label(), "frozen");
    }
}
