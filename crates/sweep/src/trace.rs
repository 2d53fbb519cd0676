//! Opt-in per-cell flight-recorder sink (`repsbench run --trace DIR`).
//!
//! Where `--series` records what the fabric *carried*, `--trace` records
//! what the simulation *decided*: every per-hop path choice, every entropy
//! value a load balancer picked (and whether it was fresh, recycled or a
//! frozen replay), every reorder a receiver absorbed, and every failure
//! plus the transport's reaction to it. Each executed cell writes one
//! self-describing document at
//!
//! ```text
//! DIR/<derived_seed as 16 hex digits>.trace.jsonl
//! ```
//!
//! # Record schema
//!
//! Line 1 is a header, then one record per event in simulation order:
//!
//! ```text
//! {"key":"<cell key>","derived_seed":N,"events":N}
//! {"t":<ps>,"kind":"ev_choice","host":H,"conn":C,"ev":E,
//!  "decision":"recycled","frozen":false}
//! ```
//!
//! Every record carries `t` (simulated picoseconds) and `kind`; the
//! remaining fields are the event's own identifiers (switch, link, host,
//! connection, entropy value). Kinds: `path_choice`, `ev_choice`,
//! `freeze`, `thaw`, `reorder`, `retransmit`, `timeout`, `link_down`,
//! `link_up`, `link_rate`, `link_ber`, `link_gray`, `link_corrupt`,
//! `switch_down`, `switch_up`, `fluid_resolve`. The gray/corrupt records
//! carry `on` (true at fault onset, false at heal), so a trace shows the
//! full fault timeline; `fluid_resolve` records carry `active`
//! (background flows) and `updated` (links whose residual rate changed),
//! so a hybrid cell's trace shows every background re-solve.
//!
//! # Determinism contract
//!
//! A cell's trace is a pure function of its key: events are emitted in
//! simulation order by a single-threaded engine whose RNG seed derives
//! from the key alone, so the same cell writes byte-identical trace
//! documents at any `--threads` value or shard split (pinned by
//! `tests/trace.rs`). Documents are the `Trace` kind of the per-cell
//! store ([`crate::store`]), which writes them atomically, one file per
//! cell, and gates `--cache` hits on them like every sidecar.

use netsim::trace::TraceEvent;

use crate::matrix::Cell;

/// Renders one recorded event as its canonical JSON line (no newline).
pub fn event_record(e: &TraceEvent) -> String {
    use harness::json::Object;
    let base = |kind: &str| Object::new().u64("t", e.at().as_ps()).str("kind", kind);
    match *e {
        TraceEvent::PathChoice { sw, link, ev, .. } => base("path_choice")
            .u64("sw", sw.0 as u64)
            .u64("link", link.0 as u64)
            .u64("ev", ev as u64)
            .render(),
        TraceEvent::EvChoice {
            host,
            conn,
            ev,
            decision,
            frozen,
            ..
        } => base("ev_choice")
            .u64("host", host.0 as u64)
            .u64("conn", conn as u64)
            .u64("ev", ev as u64)
            .str("decision", decision.label())
            .bool("frozen", frozen)
            .render(),
        TraceEvent::Freeze { host, conn, .. } => base("freeze")
            .u64("host", host.0 as u64)
            .u64("conn", conn as u64)
            .render(),
        TraceEvent::Thaw { host, conn, .. } => base("thaw")
            .u64("host", host.0 as u64)
            .u64("conn", conn as u64)
            .render(),
        TraceEvent::Reorder {
            host, conn, depth, ..
        } => base("reorder")
            .u64("host", host.0 as u64)
            .u64("conn", conn as u64)
            .u64("depth", depth as u64)
            .render(),
        TraceEvent::Retransmit {
            host,
            conn,
            seq,
            ev,
            ..
        } => base("retransmit")
            .u64("host", host.0 as u64)
            .u64("conn", conn as u64)
            .u64("seq", seq)
            .u64("ev", ev as u64)
            .render(),
        TraceEvent::Timeout {
            host,
            conn,
            expired,
            ..
        } => base("timeout")
            .u64("host", host.0 as u64)
            .u64("conn", conn as u64)
            .u64("expired", expired as u64)
            .render(),
        TraceEvent::LinkDown { link, .. } => base("link_down").u64("link", link.0 as u64).render(),
        TraceEvent::LinkUp { link, .. } => base("link_up").u64("link", link.0 as u64).render(),
        TraceEvent::LinkRate { link, bps, .. } => base("link_rate")
            .u64("link", link.0 as u64)
            .u64("bps", bps)
            .render(),
        TraceEvent::LinkBer { link, .. } => base("link_ber").u64("link", link.0 as u64).render(),
        TraceEvent::LinkGray { link, on, .. } => base("link_gray")
            .u64("link", link.0 as u64)
            .bool("on", on)
            .render(),
        TraceEvent::LinkCorrupt { link, on, .. } => base("link_corrupt")
            .u64("link", link.0 as u64)
            .bool("on", on)
            .render(),
        TraceEvent::SwitchDown { sw, .. } => base("switch_down").u64("sw", sw.0 as u64).render(),
        TraceEvent::SwitchUp { sw, .. } => base("switch_up").u64("sw", sw.0 as u64).render(),
        TraceEvent::FluidResolve {
            active, updated, ..
        } => base("fluid_resolve")
            .u64("active", active as u64)
            .u64("updated", updated as u64)
            .render(),
    }
}

/// Renders one cell's canonical trace document (header + one JSON object
/// per event in simulation order, trailing newline).
pub fn trace_doc(cell: &Cell, events: &[TraceEvent]) -> String {
    use harness::json::Object;
    let mut doc = String::new();
    doc.push_str(
        &Object::new()
            .str("key", &cell.key())
            .u64("derived_seed", cell.derived_seed())
            .u64("events", events.len() as u64)
            .render(),
    );
    doc.push('\n');
    for e in events {
        doc.push_str(&event_record(e));
        doc.push('\n');
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;
    use crate::spec::WorkloadSpec;
    use netsim::ids::{HostId, LinkId, SwitchId};
    use netsim::time::Time;
    use netsim::trace::EvDecision;

    fn cell() -> Cell {
        ScenarioMatrix::new("trace-unit")
            .workloads([WorkloadSpec::Tornado { bytes: 32 << 10 }])
            .expand()
            .remove(0)
    }

    #[test]
    fn every_event_kind_renders_canonically() {
        let at = Time::from_us(7);
        let events = [
            TraceEvent::PathChoice {
                at,
                sw: SwitchId(1),
                link: LinkId(2),
                ev: 3,
            },
            TraceEvent::EvChoice {
                at,
                host: HostId(4),
                conn: 5,
                ev: 6,
                decision: EvDecision::Recycled,
                frozen: false,
            },
            TraceEvent::Freeze {
                at,
                host: HostId(4),
                conn: 5,
            },
            TraceEvent::Thaw {
                at,
                host: HostId(4),
                conn: 5,
            },
            TraceEvent::Reorder {
                at,
                host: HostId(4),
                conn: 5,
                depth: 9,
            },
            TraceEvent::Retransmit {
                at,
                host: HostId(4),
                conn: 5,
                seq: 77,
                ev: 6,
            },
            TraceEvent::Timeout {
                at,
                host: HostId(4),
                conn: 5,
                expired: 2,
            },
            TraceEvent::LinkDown {
                at,
                link: LinkId(2),
            },
            TraceEvent::LinkUp {
                at,
                link: LinkId(2),
            },
            TraceEvent::LinkRate {
                at,
                link: LinkId(2),
                bps: 100_000_000_000,
            },
            TraceEvent::LinkBer {
                at,
                link: LinkId(2),
            },
            TraceEvent::LinkGray {
                at,
                link: LinkId(2),
                on: true,
            },
            TraceEvent::LinkCorrupt {
                at,
                link: LinkId(2),
                on: false,
            },
            TraceEvent::SwitchDown {
                at,
                sw: SwitchId(1),
            },
            TraceEvent::SwitchUp {
                at,
                sw: SwitchId(1),
            },
        ];
        let mut kinds = Vec::new();
        for e in &events {
            let line = event_record(e);
            let v = harness::json::Value::parse(&line).expect("record parses");
            // Canonical: every record re-renders byte-exactly.
            assert_eq!(v.render(), line);
            assert_eq!(v.get("t").unwrap().as_u64(), Some(at.as_ps()));
            kinds.push(v.get("kind").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(
            kinds,
            [
                "path_choice",
                "ev_choice",
                "freeze",
                "thaw",
                "reorder",
                "retransmit",
                "timeout",
                "link_down",
                "link_up",
                "link_rate",
                "link_ber",
                "link_gray",
                "link_corrupt",
                "switch_down",
                "switch_up"
            ]
        );
    }

    #[test]
    fn doc_is_self_describing() {
        let c = cell();
        let events = [TraceEvent::LinkDown {
            at: Time::from_us(1),
            link: LinkId(0),
        }];
        let doc = trace_doc(&c, &events);
        assert!(doc.ends_with('\n'));
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        let header = harness::json::Value::parse(lines[0]).expect("header parses");
        assert_eq!(header.get("key").unwrap().as_str(), Some(c.key().as_str()));
        assert_eq!(
            header.get("derived_seed").unwrap().as_u64(),
            Some(c.derived_seed())
        );
        assert_eq!(header.get("events").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn store_validates_ownership() {
        crate::store::tests::assert_store_validates_ownership(crate::store::DocKind::Trace);
    }
}
