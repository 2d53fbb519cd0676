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
//! Every record carries `t` (simulated picoseconds) and `kind`, then
//! the event's own fields, named as in [`TraceEvent`]: switch, link, host,
//! connection, entropy value. The `trace_records!` table below ([`kind`],
//! [`event_record`] and [`decode_event`] are generated from it) is the one
//! list of kinds and their fields in record order. All three loss kinds
//! (bit errors, gray loss, corruption) carry `on` (true at fault onset,
//! false at heal), so a trace shows the full fault timeline.
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

use harness::json::{Object, Value};
use netsim::ids::{HostId, LinkId, SwitchId};
use netsim::time::Time;
use netsim::trace::{EvDecision, TraceEvent};

use crate::matrix::Cell;

/// One field of a trace record: how its value is written and read back.
trait Field: Sized {
    /// What the value must be, for errors.
    const WHAT: &'static str;
    fn put(self, o: Object, key: &str) -> Object;
    /// `None` for a value of another type, or out of this type's range.
    fn get(v: &Value<'_>) -> Option<Self>;
}

/// `key`'s value, or an error naming the field and what it must be.
fn take<T: Field>(v: &Value<'_>, key: &str) -> Result<T, String> {
    let field = v.get(key).ok_or_else(|| format!("no \"{key}\""))?;
    T::get(field).ok_or_else(|| format!("\"{key}\":{} is not {}", field.render(), T::WHAT))
}

/// Unsigned integers (never truncated) and the engine ids, written as
/// their `u32` index.
macro_rules! int_fields {
    ($($id:ident(u32)),*) => {$(
        impl Field for $id {
            const WHAT: &'static str = u32::WHAT;
            fn put(self, o: Object, key: &str) -> Object {
                self.0.put(o, key)
            }
            fn get(v: &Value<'_>) -> Option<$id> {
                u32::get(v).map($id)
            }
        }
    )*};
    ($($t:ty),*) => {$(
        impl Field for $t {
            const WHAT: &'static str = concat!("a ", stringify!($t));
            fn put(self, o: Object, key: &str) -> Object {
                o.u64(key, self.into())
            }
            fn get(v: &Value<'_>) -> Option<$t> {
                v.as_u64()?.try_into().ok()
            }
        }
    )*};
}
int_fields!(u16, u32, u64);
int_fields!(HostId(u32), LinkId(u32), SwitchId(u32));

impl Field for bool {
    const WHAT: &'static str = "a boolean";
    fn put(self, o: Object, key: &str) -> Object {
        o.bool(key, self)
    }
    fn get(v: &Value<'_>) -> Option<bool> {
        v.as_bool()
    }
}

impl Field for EvDecision {
    const WHAT: &'static str = "an EV decision";
    fn put(self, o: Object, key: &str) -> Object {
        o.str(key, self.label())
    }
    fn get(v: &Value<'_>) -> Option<EvDecision> {
        let label = v.as_str()?;
        EvDecision::ALL.into_iter().find(|d| d.label() == label)
    }
}

/// Generates [`kind`], [`event_record`] and [`decode_event`] from one row
/// per [`TraceEvent`] variant: its kind name and its fields (all but `at`,
/// which every record carries as `t`) in record order. A variant's fields
/// must all be listed, or the encoder's pattern does not compile.
macro_rules! trace_records {
    ($($variant:ident $kind:literal { $($field:ident),* },)*) => {
        /// The record kind an event is written as.
        pub fn kind(e: &TraceEvent) -> &'static str {
            match e {
                $(TraceEvent::$variant { .. } => $kind,)*
            }
        }

        /// Renders one recorded event as its canonical JSON line (no
        /// newline).
        pub fn event_record(e: &TraceEvent) -> String {
            match *e {
                $(TraceEvent::$variant { at, $($field),* } => {
                    let o = Object::new().u64("t", at.as_ps()).str("kind", $kind);
                    $(let o = $field.put(o, stringify!($field));)*
                    o.render()
                })*
            }
        }

        /// Reads one record back into the event [`event_record`] wrote it
        /// from. A record of an unknown kind, with a field missing, extra,
        /// out of order, mistyped or out of its type's range is an error.
        pub fn decode_event(v: &Value<'_>) -> Result<TraceEvent, String> {
            let at = Time::from_ps(take(v, "t")?);
            let kind = v.get("kind").and_then(Value::as_str).ok_or("no string \"kind\"")?;
            Ok(match kind {
                $($kind => {
                    let keys = ["t", "kind", $(stringify!($field)),*];
                    if !v.as_obj().is_some_and(|f| f.iter().map(|(k, _)| k.as_ref()).eq(keys)) {
                        return Err(format!("a {kind} record has the fields {keys:?}, in that order"));
                    }
                    TraceEvent::$variant { at, $($field: take(v, stringify!($field))?),* }
                })*
                _ => return Err(format!("unknown kind {kind:?}")),
            })
        }
    };
}

trace_records! {
    PathChoice "path_choice" { sw, link, ev },
    EvChoice "ev_choice" { host, conn, ev, decision, frozen },
    Freeze "freeze" { host, conn },
    Thaw "thaw" { host, conn },
    Reorder "reorder" { host, conn, depth },
    Retransmit "retransmit" { host, conn, seq, ev },
    Timeout "timeout" { host, conn, expired },
    LinkDown "link_down" { link },
    LinkUp "link_up" { link },
    LinkRate "link_rate" { link, bps },
    LinkBer "link_ber" { link, on },
    LinkGray "link_gray" { link, on },
    LinkCorrupt "link_corrupt" { link, on },
    SwitchDown "switch_down" { sw },
    SwitchUp "switch_up" { sw },
    FluidResolve "fluid_resolve" { active, updated },
}

/// Renders one cell's canonical trace document (header + one JSON object
/// per event in simulation order, trailing newline).
pub fn trace_doc(cell: &Cell, events: &[TraceEvent]) -> String {
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

    fn cell() -> Cell {
        ScenarioMatrix::new("trace-unit")
            .workloads([WorkloadSpec::Tornado { bytes: 32 << 10 }])
            .expand()
            .remove(0)
    }

    /// One record of each kind, at the edges of the fields' ranges: the
    /// wire format the table must keep.
    const RECORDS: &str = r#"{"t":7000000,"kind":"path_choice","sw":1,"link":2,"ev":65535}
        {"t":7000000,"kind":"ev_choice","host":4,"conn":4294967295,"ev":6,"decision":"recycled","frozen":true}
        {"t":7000000,"kind":"freeze","host":4,"conn":5}
        {"t":7000000,"kind":"thaw","host":4,"conn":5}
        {"t":7000000,"kind":"reorder","host":4,"conn":5,"depth":9}
        {"t":7000000,"kind":"retransmit","host":4,"conn":5,"seq":18446744073709551615,"ev":0}
        {"t":7000000,"kind":"timeout","host":4,"conn":5,"expired":2}
        {"t":7000000,"kind":"link_down","link":2}
        {"t":7000000,"kind":"link_up","link":2}
        {"t":7000000,"kind":"link_rate","link":2,"bps":100000000000}
        {"t":7000000,"kind":"link_ber","link":2,"on":true}
        {"t":7000000,"kind":"link_gray","link":2,"on":true}
        {"t":7000000,"kind":"link_corrupt","link":2,"on":false}
        {"t":7000000,"kind":"switch_down","sw":1}
        {"t":7000000,"kind":"switch_up","sw":1}
        {"t":0,"kind":"fluid_resolve","active":3,"updated":5}"#;

    #[test]
    fn every_event_kind_renders_canonically() {
        let mut kinds = Vec::new();
        for line in RECORDS.lines().map(str::trim) {
            let e = decode_event(&Value::parse(line).unwrap()).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(event_record(&e), line);
            assert_eq!(
                decode_event(&Value::parse(&event_record(&e)).unwrap()),
                Ok(e)
            );
            kinds.push(kind(&e));
        }
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 16, "one record per kind, all distinct");
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
