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

use harness::json::Value;
use netsim::time::Time;

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

fn us(t_ps: u64) -> String {
    format!("{:.3}us", t_ps as f64 / 1e6)
}

#[derive(Default)]
struct Tally {
    fresh: u64,
    recycled: u64,
    frozen: u64,
    path_choices: u64,
    ev_changes: u64,
    senders: BTreeMap<(u64, u64), u64>,
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
    let mut last_ev: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut parsed = 0u64;
    for (i, line) in lines.enumerate() {
        let v = Value::parse(line).map_err(|e| format!("trace line {}: {e}", i + 2))?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("trace line {}: no \"kind\"", i + 2))?;
        let at = v.get("t").and_then(Value::as_u64).unwrap_or(0);
        let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        parsed += 1;
        match kind {
            "path_choice" => t.path_choices += 1,
            "ev_choice" => {
                match v.get("decision").and_then(Value::as_str) {
                    Some("fresh") => t.fresh += 1,
                    Some("recycled") => t.recycled += 1,
                    Some("frozen") => t.frozen += 1,
                    _ => {}
                }
                let sender = (field("host"), field("conn"));
                let ev = field("ev");
                if let Some(&prev) = last_ev.get(&sender) {
                    if prev != ev {
                        t.ev_changes += 1;
                    }
                }
                last_ev.insert(sender, ev);
                *t.senders.entry(sender).or_insert(0) += 1;
            }
            "reorder" => {
                let depth = field("depth");
                t.reorders += 1;
                t.max_depth = t.max_depth.max(depth);
                *t.reorder_hist.entry(depth_bucket(depth)).or_insert(0) += 1;
            }
            "retransmit" => t.retransmits += 1,
            "timeout" => {
                t.timeouts += 1;
                t.expired += field("expired");
                t.push_timeline(format!(
                    "{:>14}  timeout    host {} conn {} expired {} in-flight",
                    us(at),
                    field("host"),
                    field("conn"),
                    field("expired")
                ));
            }
            "freeze" => {
                t.freezes += 1;
                t.push_timeline(format!(
                    "{:>14}  freeze     host {} conn {} replays last good EVs",
                    us(at),
                    field("host"),
                    field("conn")
                ));
            }
            "thaw" => {
                t.thaws += 1;
                t.push_timeline(format!(
                    "{:>14}  thaw       host {} conn {} resumes recycling",
                    us(at),
                    field("host"),
                    field("conn")
                ));
            }
            "link_down" => {
                t.push_timeline(format!("{:>14}  link_down  link {}", us(at), field("link")))
            }
            "link_up" => {
                t.push_timeline(format!("{:>14}  link_up    link {}", us(at), field("link")))
            }
            "link_rate" => t.push_timeline(format!(
                "{:>14}  link_rate  link {} -> {} bps",
                us(at),
                field("link"),
                field("bps")
            )),
            "link_ber" => {
                t.push_timeline(format!("{:>14}  link_ber   link {}", us(at), field("link")))
            }
            "link_gray" | "link_corrupt" => {
                let what = if kind == "link_gray" {
                    "gray loss"
                } else {
                    "corruption"
                };
                let phase = match v.get("on").and_then(Value::as_bool) {
                    Some(false) => "heals",
                    _ => "begins",
                };
                t.push_timeline(format!(
                    "{:>14}  {:<10} link {} {what} {phase}",
                    us(at),
                    kind,
                    field("link")
                ));
            }
            "fluid_resolve" => t.push_timeline(format!(
                "{:>14}  fluid      re-solve: {} bg flows active, {} links updated",
                us(at),
                field("active"),
                field("updated")
            )),
            "switch_down" => {
                t.push_timeline(format!("{:>14}  sw_down    switch {}", us(at), field("sw")))
            }
            "switch_up" => {
                t.push_timeline(format!("{:>14}  sw_up      switch {}", us(at), field("sw")))
            }
            _ => {}
        }
    }
    if parsed != declared {
        return Err(format!(
            "trace header declares {declared} events but the document has {parsed} — truncated?"
        ));
    }

    Ok(t.render(&key))
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
    fn push_timeline(&mut self, line: String) {
        self.timeline_total += 1;
        if self.timeline.len() < TIMELINE_CAP {
            self.timeline.push(line);
        }
    }

    fn render(&self, key: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {key}\n\n"));

        let choices = self.fresh + self.recycled + self.frozen;
        out.push_str("## EV decisions\n");
        if choices == 0 {
            out.push_str("no ev_choice events recorded\n");
        } else {
            let pct = |n: u64| 100.0 * n as f64 / choices as f64;
            out.push_str(&format!(
                "{choices} choices across {} sender connections\n",
                self.senders.len()
            ));
            out.push_str(&format!(
                "  fresh draws     {:>8}  ({:.1}%)\n",
                self.fresh,
                pct(self.fresh)
            ));
            out.push_str(&format!(
                "  recycled        {:>8}  ({:.1}%)\n",
                self.recycled,
                pct(self.recycled)
            ));
            out.push_str(&format!(
                "  frozen replays  {:>8}  ({:.1}%)\n",
                self.frozen,
                pct(self.frozen)
            ));
            out.push_str(&format!(
                "  reuse rate {:.1}% (recycled + frozen of all choices)\n",
                pct(self.recycled + self.frozen)
            ));
            out.push_str(&format!(
                "  ev changed on {} of {} consecutive sends per connection\n",
                self.ev_changes,
                choices.saturating_sub(self.senders.len() as u64)
            ));
        }

        out.push_str("\n## Path choices\n");
        out.push_str(&format!(
            "{} per-hop spray decisions recorded\n",
            self.path_choices
        ));

        out.push_str("\n## Reordering\n");
        if self.reorders == 0 {
            out.push_str("no out-of-order arrivals\n");
        } else {
            out.push_str(&format!(
                "{} out-of-order arrivals, max depth {}\n",
                self.reorders, self.max_depth
            ));
            out.push_str("depth histogram:\n");
            let max = self.reorder_hist.values().copied().max().unwrap_or(1);
            for (&b, &n) in &self.reorder_hist {
                let bar = "#".repeat(((n as f64 / max as f64) * 40.0).ceil() as usize);
                out.push_str(&format!("  {:>9} {:>8}  {bar}\n", bucket_label(b), n));
            }
        }

        out.push_str("\n## Failure reactions\n");
        out.push_str(&format!(
            "{} timeouts ({} packets expired), {} retransmits, {} freezes, {} thaws\n",
            self.timeouts, self.expired, self.retransmits, self.freezes, self.thaws
        ));
        if self.timeline.is_empty() {
            out.push_str("no failure or reaction events\n");
        } else {
            out.push_str("timeline:\n");
            for l in &self.timeline {
                out.push_str(l);
                out.push('\n');
            }
            if self.timeline_total > self.timeline.len() {
                out.push_str(&format!(
                    "  ... {} more events\n",
                    self.timeline_total - self.timeline.len()
                ));
            }
        }
        out
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
