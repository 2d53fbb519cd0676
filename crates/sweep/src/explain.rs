//! `repsbench explain`: render a per-cell trace or series document into
//! a human-readable account of what the cell actually did.
//!
//! The summary JSONL says a REPS cell finished in N µs; the trace says
//! *why*: how often the balancer recycled a proven entropy versus drawing
//! fresh, how often it switched paths, how deep the receiver's reorder
//! window ran, and — under a failure plan — the exact timeline of
//! link-down, timeout, freeze, retransmit and thaw. [`explain_doc`] takes
//! the raw `*.trace.jsonl` contents ([`crate::trace`]) and produces that
//! report; the CLI wires it to `repsbench explain FILE`.
//!
//! Given a `*.series.jsonl` document ([`crate::series`]) instead — told
//! apart by its header — the report is the paper's micro-figure view: per
//! tracked ToR uplink, one row of utilization (Gbps) and one of queue
//! occupancy (KB), downsampled to [`SERIES_POINTS`] evenly spaced points.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use harness::json::Value;
use netsim::ids::HostId;
use netsim::time::Time;
use netsim::trace::TraceEvent;

use crate::trace::decode_event;

/// Maximum failure-reaction timeline rows before eliding the middle.
const TIMELINE_CAP: usize = 30;

/// Points per row of a series report: enough to see a queue build and
/// drain, few enough to fit a terminal line.
const SERIES_POINTS: usize = 12;

/// Downsamples a series to at most `n` evenly-spaced points.
fn downsample(points: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if points.len() <= n || n == 0 {
        return points.to_vec();
    }
    let step = points.len() as f64 / n as f64;
    (0..n).map(|i| points[(i as f64 * step) as usize]).collect()
}

#[derive(Default)]
struct Tally {
    /// EV choices by decision, in `EvDecision::ALL` order.
    decisions: [u64; 3],
    path_choices: u64,
    ev_changes: u64,
    /// The entropy of each sender connection's last send.
    senders: BTreeMap<(HostId, u32), u16>,
    retransmits: u64,
    timeouts: u64,
    expired: u64,
    freezes: u64,
    thaws: u64,
    reorders: u64,
    reorder_hist: BTreeMap<u32, u64>,
    max_depth: u64,
    timeline: Vec<String>,
    timeline_total: usize,
}

/// The log2-style histogram bucket for a reorder depth: 1, 2, 3-4, 5-8, …
fn depth_bucket(depth: u64) -> u32 {
    let mut hi = 1u64;
    let mut b = 0u32;
    while depth > hi {
        hi *= 2;
        b += 1;
    }
    b
}

fn bucket_label(b: u32) -> String {
    if b <= 1 {
        format!("{}", 1u64 << b)
    } else {
        format!("{}-{}", (1u64 << (b - 1)) + 1, 1u64 << b)
    }
}

/// Renders the report for one trace or series document. Errors (neither
/// kind of file, torn line, missing records) come back as messages, never
/// panics — the input is a user-supplied path.
pub fn explain_doc(doc: &str) -> Result<String, String> {
    let mut lines = doc.lines();
    let header = lines.next().ok_or("empty trace document")?;
    let header = Value::parse(header).map_err(|e| format!("bad trace header: {e}"))?;
    let key = header
        .get("key")
        .and_then(Value::as_str)
        .ok_or("trace header has no \"key\" — not a trace document?")?
        .to_string();
    if let Some(bucket_ps) = header.get("bucket_width_ps").and_then(Value::as_u64) {
        return explain_series(&key, &header, Time::from_ps(bucket_ps), lines);
    }
    let declared = header
        .get("events")
        .and_then(Value::as_u64)
        .ok_or("trace header has no \"events\" count")?;

    let mut t = Tally::default();
    let mut parsed = 0u64;
    for (i, line) in lines.enumerate() {
        let e = Value::parse(line).and_then(|v| decode_event(&v));
        t.add(&e.map_err(|e| format!("trace line {}: {e}", i + 2))?);
        parsed += 1;
    }
    if parsed != declared {
        return Err(format!(
            "trace header declares {declared} events but the document has {parsed} — truncated?"
        ));
    }

    let mut out = String::new();
    t.render(&key, &mut out)
        .expect("writing to a String cannot fail");
    Ok(out)
}

/// One array field of a series record as `(index, y)` points.
fn points(
    record: &Value<'_>,
    field: &str,
    y: impl Fn(&Value<'_>) -> Option<f64>,
) -> Result<Vec<(f64, f64)>, String> {
    let Some(Value::Arr(items)) = record.get(field) else {
        return Err(format!("no \"{field}\" array"));
    };
    items
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let y = y(v).ok_or_else(|| format!("malformed \"{field}\" entry {i}"))?;
            Ok((i as f64, y))
        })
        .collect()
}

/// The series half of [`explain_doc`]: one utilization and one queue row
/// per tracked link, in the document's (deterministic tracking) order.
fn explain_series(
    key: &str,
    header: &Value<'_>,
    bucket: Time,
    records: std::str::Lines<'_>,
) -> Result<String, String> {
    let declared = header
        .get("links")
        .and_then(Value::as_u64)
        .ok_or("series header has no \"links\" count")?;
    let mut out = format!(
        "# {key}\n\n## Link series\n{declared} tracked uplinks, {} utilization buckets, \
         at most {SERIES_POINTS} evenly spaced points per row\n",
        bucket.label()
    );
    let row = |points: &[(f64, f64)]| -> String {
        let shown: Vec<String> = downsample(points, SERIES_POINTS)
            .iter()
            .map(|(_, y)| format!("{y:.0}"))
            .collect();
        shown.join(" ")
    };
    let mut parsed = 0u64;
    for (port, line) in records.enumerate() {
        let ctx = |e: String| format!("series line {}: {e}", port + 2);
        let v = Value::parse(line).map_err(ctx)?;
        let link = v
            .get("link")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("no \"link\"".to_string()))?;
        let util = points(&v, "bucket_bytes", |bytes| {
            Some(netsim::stats::bucket_gbps(bytes.as_u64()?, bucket))
        })
        .map_err(ctx)?;
        // Samples are `[at_ps, queued_bytes]` pairs.
        let queue = points(&v, "queue_samples", |sample| match sample {
            Value::Arr(pair) if pair.len() == 2 => Some(pair[1].as_u64()? as f64 / 1e3),
            _ => None,
        })
        .map_err(ctx)?;
        out.push_str(&format!(
            "  port{port} (link {link}) util(Gbps): {}\n",
            row(&util)
        ));
        out.push_str(&format!(
            "  port{port} (link {link}) queue(KB):  {}\n",
            row(&queue)
        ));
        parsed += 1;
    }
    if parsed != declared {
        return Err(format!(
            "series header declares {declared} links but the document has {parsed} — truncated?"
        ));
    }
    Ok(out)
}

impl Tally {
    fn add(&mut self, e: &TraceEvent) {
        let kind = crate::trace::kind(e);
        let phase = |on| if on { "begins" } else { "heals" };
        let (label, text) = match *e {
            TraceEvent::PathChoice { .. } => return self.path_choices += 1,
            TraceEvent::EvChoice {
                host,
                conn,
                ev,
                decision,
                ..
            } => {
                self.decisions[decision as usize] += 1;
                if let Some(last) = self.senders.insert((host, conn), ev) {
                    self.ev_changes += u64::from(last != ev);
                }
                return;
            }
            TraceEvent::Reorder { depth, .. } => {
                self.reorders += 1;
                self.max_depth = self.max_depth.max(depth.into());
                let bucket = depth_bucket(depth.into());
                *self.reorder_hist.entry(bucket).or_default() += 1;
                return;
            }
            TraceEvent::Retransmit { .. } => return self.retransmits += 1,
            TraceEvent::Timeout {
                host,
                conn,
                expired,
                ..
            } => {
                self.timeouts += 1;
                self.expired += u64::from(expired);
                let text = format!("host {} conn {conn} expired {expired} in-flight", host.0);
                (kind, text)
            }
            TraceEvent::Freeze { host, conn, .. } => {
                self.freezes += 1;
                let text = format!("host {} conn {conn} replays last good EVs", host.0);
                (kind, text)
            }
            TraceEvent::Thaw { host, conn, .. } => {
                self.thaws += 1;
                let text = format!("host {} conn {conn} resumes recycling", host.0);
                (kind, text)
            }
            TraceEvent::LinkDown { link, .. } | TraceEvent::LinkUp { link, .. } => {
                (kind, format!("link {}", link.0))
            }
            TraceEvent::LinkRate { link, bps, .. } => {
                (kind, format!("link {} -> {bps} bps", link.0))
            }
            TraceEvent::LinkBer { link, on, .. } => {
                let phase = if on { "begin" } else { "heal" };
                (kind, format!("link {} bit errors {phase}", link.0))
            }
            TraceEvent::LinkGray { link, on, .. } => {
                (kind, format!("link {} gray loss {}", link.0, phase(on)))
            }
            TraceEvent::LinkCorrupt { link, on, .. } => {
                (kind, format!("link {} corruption {}", link.0, phase(on)))
            }
            TraceEvent::FluidResolve {
                active, updated, ..
            } => (
                "fluid",
                format!("re-solve: {active} bg flows active, {updated} links updated"),
            ),
            TraceEvent::SwitchDown { sw, .. } => ("sw_down", format!("switch {}", sw.0)),
            TraceEvent::SwitchUp { sw, .. } => ("sw_up", format!("switch {}", sw.0)),
        };
        self.timeline_total += 1;
        if self.timeline.len() < TIMELINE_CAP {
            let at = format!("{:.3}us", e.at().as_ps() as f64 / 1e6);
            self.timeline.push(format!("{at:>14}  {label:<10} {text}"));
        }
    }

    fn render(&self, key: &str, out: &mut String) -> fmt::Result {
        writeln!(out, "# {key}\n")?;

        let [fresh, recycled, frozen] = self.decisions;
        let choices = fresh + recycled + frozen;
        writeln!(out, "## EV decisions")?;
        if choices == 0 {
            writeln!(out, "no ev_choice events recorded")?;
        } else {
            let pct = |n: u64| 100.0 * n as f64 / choices as f64;
            let senders = self.senders.len();
            writeln!(out, "{choices} choices across {senders} sender connections")?;
            writeln!(out, "  fresh draws     {fresh:>8}  ({:.1}%)", pct(fresh))?;
            writeln!(
                out,
                "  recycled        {recycled:>8}  ({:.1}%)",
                pct(recycled)
            )?;
            writeln!(out, "  frozen replays  {frozen:>8}  ({:.1}%)", pct(frozen))?;
            let reuse = pct(recycled + frozen);
            writeln!(
                out,
                "  reuse rate {reuse:.1}% (recycled + frozen of all choices)"
            )?;
            let (changes, sends) = (self.ev_changes, choices.saturating_sub(senders as u64));
            writeln!(
                out,
                "  ev changed on {changes} of {sends} consecutive sends per connection"
            )?;
        }

        writeln!(out, "\n## Path choices")?;
        writeln!(
            out,
            "{} per-hop spray decisions recorded",
            self.path_choices
        )?;

        writeln!(out, "\n## Reordering")?;
        if self.reorders == 0 {
            writeln!(out, "no out-of-order arrivals")?;
        } else {
            let (n, depth) = (self.reorders, self.max_depth);
            writeln!(
                out,
                "{n} out-of-order arrivals, max depth {depth}\ndepth histogram:"
            )?;
            let max = self.reorder_hist.values().copied().max().unwrap_or(1);
            for (&b, &n) in &self.reorder_hist {
                let bar = "#".repeat(((n as f64 / max as f64) * 40.0).ceil() as usize);
                writeln!(out, "  {:>9} {n:>8}  {bar}", bucket_label(b))?;
            }
        }

        writeln!(out, "\n## Failure reactions")?;
        writeln!(
            out,
            "{} timeouts ({} packets expired), {} retransmits, {} freezes, {} thaws",
            self.timeouts, self.expired, self.retransmits, self.freezes, self.thaws
        )?;
        if self.timeline.is_empty() {
            return writeln!(out, "no failure or reaction events");
        }
        writeln!(out, "timeline:")?;
        for l in &self.timeline {
            writeln!(out, "{l}")?;
        }
        match self.timeline_total - self.timeline.len() {
            0 => Ok(()),
            more => writeln!(out, "  ... {more} more events"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;
    use crate::spec::{FailureSpec, WorkloadSpec};
    use crate::store::DocKind;
    use netsim::time::Time;

    #[test]
    fn depth_buckets_are_log2_ranges() {
        assert_eq!(depth_bucket(1), 0);
        assert_eq!(depth_bucket(2), 1);
        assert_eq!(depth_bucket(3), 2);
        assert_eq!(depth_bucket(4), 2);
        assert_eq!(depth_bucket(5), 3);
        assert_eq!(depth_bucket(8), 3);
        assert_eq!(depth_bucket(9), 4);
        assert_eq!(bucket_label(0), "1");
        assert_eq!(bucket_label(1), "2");
        assert_eq!(bucket_label(2), "3-4");
        assert_eq!(bucket_label(3), "5-8");
    }

    #[test]
    fn malformed_documents_report_errors() {
        assert!(explain_doc("").is_err());
        assert!(explain_doc("not json\n").is_err());
        // Wrong header shape.
        assert!(explain_doc("{\"links\":3}\n").unwrap_err().contains("key"));
        // Declared count disagrees with the body.
        let torn = "{\"key\":\"k\",\"derived_seed\":1,\"events\":5}\n";
        assert!(explain_doc(torn).unwrap_err().contains("truncated"));
        // A damaged record fails at its line, naming what is wrong.
        let cases = r#"{"t":1,"kind":"link_sideways","link":2} | unknown kind "link_sideways"
            {"t":1,"kind":"link_down"} | a link_down record has the fields ["t", "kind", "link"]
            {"t":1,"kind":"link_down","link":"2"} | "link":"2" is not a u32
            {"kind":"link_down","link":2} | no "t"
            {"t":1,"kind":"link_gray","link":2,"on":1} | "on":1 is not a boolean
            {"t":1,"kind":"ev_choice","host":0,"conn":0,"ev":1,"decision":"lucky","frozen":false} | "decision":"lucky" is not an EV decision
            {"t":1,"kind":"path_choice","sw":0,"link":1,"ev":65536} | "ev":65536 is not a u16
            {"t":1,"kind":"freeze","host":0,"conn":4294967296} | "conn":4294967296 is not a u32"#;
        for case in cases.lines() {
            let (record, why) = case.trim().split_once(" | ").unwrap();
            let doc = format!("{{\"key\":\"k\",\"derived_seed\":1,\"events\":1}}\n{record}\n");
            let err = explain_doc(&doc).unwrap_err();
            assert!(err.starts_with(&format!("trace line 2: {why}")), "{err}");
        }
    }

    #[test]
    fn explains_a_bit_error_onset_and_heal() {
        let doc = r#"{"key":"k","derived_seed":1,"events":2}
            {"t":1000000,"kind":"link_ber","link":3,"on":true}
            {"t":11000000,"kind":"link_ber","link":3,"on":false}"#;
        let report = explain_doc(&doc.replace("\n            ", "\n")).expect("report");
        assert!(
            report.contains(" 1.000us  link_ber   link 3 bit errors begin\n"),
            "{report}"
        );
        assert!(
            report.contains(" 11.000us  link_ber   link 3 bit errors heal\n"),
            "{report}"
        );
    }

    #[test]
    fn explains_a_series_document_per_tracked_uplink() {
        // Fig. 2's shape at a fraction of its size: a tornado on the
        // radix-16 fabric, whose vantage ToR has 8 uplinks.
        let cell = ScenarioMatrix::new("explain-series-unit")
            .fabrics([crate::spec::FabricSpec::two_tier(16, 1)])
            .workloads([WorkloadSpec::Tornado { bytes: 256 << 10 }])
            .expand()
            .into_iter()
            .find(|c| c.lb.label == "REPS")
            .expect("REPS cell");
        let out = cell.run_instrumented(&[DocKind::Series], false);
        let doc = out.doc(DocKind::Series).expect("series requested");
        let report = explain_doc(doc).expect("report");
        assert!(report.contains(&cell.key()), "{report}");
        assert!(report.contains("8 tracked uplinks"), "{report}");
        for port in 0..8 {
            for what in ["util(Gbps):", "queue(KB):"] {
                let rows: Vec<&str> = report
                    .lines()
                    .filter(|l| l.contains(&format!("port{port} ")) && l.contains(what))
                    .collect();
                assert_eq!(rows.len(), 1, "port{port} {what}: {report}");
                let shown = rows[0].split(": ").nth(1).expect("values");
                let n = shown.split_whitespace().count();
                assert!((1..=SERIES_POINTS).contains(&n), "{n} points: {report}");
            }
        }
        assert!(!report.contains("port8 "), "{report}");

        // Truncation is an error, never a panic: a missing record, a torn
        // last line, and a record cut inside an array.
        let lines: Vec<&str> = doc.lines().collect();
        let short = lines[..lines.len() - 1].join("\n");
        assert!(explain_doc(&short).unwrap_err().contains("truncated"));
        let torn = &doc[..doc.len() - 20];
        assert!(explain_doc(torn).unwrap_err().contains("series line 9"));
        let no_samples = format!("{}\n{{\"link\":1,\"bucket_bytes\":[1]}}\n", lines[0]);
        assert!(explain_doc(&no_samples)
            .unwrap_err()
            .contains("no \"queue_samples\" array"));
    }

    #[test]
    fn explains_a_reps_cell_under_link_failure() {
        // A REPS cell under a mid-run link failure: the acceptance
        // scenario — the report must show a nonzero EV reuse rate, the
        // reorder histogram and the failure-reaction timeline.
        let cell = ScenarioMatrix::new("explain-unit")
            .workloads([WorkloadSpec::Permutation { bytes: 1 << 20 }])
            .failures([FailureSpec::OneCable {
                at: Time::from_us(30),
                duration: None,
            }])
            .expand()
            .into_iter()
            .find(|c| c.lb.label == "REPS")
            .expect("REPS cell");
        let out = cell.run_instrumented(&[DocKind::Trace], false);
        let report =
            explain_doc(out.doc(DocKind::Trace).expect("trace requested")).expect("report");
        assert!(report.contains(&cell.key()), "{report}");
        assert!(report.contains("reuse rate"), "{report}");
        assert!(!report.contains("reuse rate 0.0%"), "{report}");
        assert!(report.contains("depth histogram"), "{report}");
        assert!(report.contains("link_down"), "{report}");
        assert!(report.contains("timeout"), "{report}");
        assert!(report.contains("retransmits"), "{report}");
    }

    #[test]
    fn explains_a_fault_timeline() {
        // A gray fault with a heal: the timeline must show both the onset
        // and the heal, in fault vocabulary rather than raw field dumps.
        let cell = ScenarioMatrix::new("explain-fault-unit")
            .workloads([WorkloadSpec::Permutation { bytes: 1 << 18 }])
            .faults([crate::fault::FaultSpec::parse("gray{p=0.2,at=5us,for=40us}").unwrap()])
            .expand()
            .into_iter()
            .find(|c| c.lb.label == "REPS")
            .expect("REPS cell");
        let out = cell.run_instrumented(&[DocKind::Trace], false);
        let report =
            explain_doc(out.doc(DocKind::Trace).expect("trace requested")).expect("report");
        assert!(report.contains("link_gray"), "{report}");
        assert!(report.contains("gray loss begins"), "{report}");
        assert!(report.contains("gray loss heals"), "{report}");
    }

    #[test]
    fn downsample_limits_points() {
        let points: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, 0.0)).collect();
        let d = downsample(&points, 50);
        assert_eq!(d.len(), 50);
        assert_eq!(d[0].0, 0.0);
    }
}
