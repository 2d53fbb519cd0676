//! Opt-in per-cell time-series sink (`repsbench run --series DIR`).
//!
//! Summaries tell you *whether* a scheme won; the paper's micro figures
//! argue *why* with link-utilization and queue-occupancy series. This
//! module streams those series out of every executed cell without touching
//! the byte-stable result JSONL: each cell writes one self-describing
//! document at
//!
//! ```text
//! DIR/<derived_seed as 16 hex digits>.series.jsonl
//! ```
//!
//! Tracking covers the uplinks of the cell's vantage ToR — ToR 0, the
//! micro figures' vantage point, unless the grid's `track` axis selects
//! another (see [`crate::matrix::ScenarioMatrix::track`]; non-default
//! vantages are keyed as `tk=N`, so they are distinct cells). Queue
//! sampling runs up to [`SAMPLE_HORIZON`] of simulated time, so a stalled
//! cell cannot balloon its document.
//!
//! # Record schema
//!
//! Line 1 is a header, then one record per tracked link (in deterministic
//! tracking order):
//!
//! ```text
//! {"key":"<cell key>","derived_seed":N,"bucket_width_ps":N,
//!  "sample_period_ps":N,"links":N}
//! {"link":<link id>,"bucket_bytes":[b0,b1,...],
//!  "queue_samples":[[at_ps,bytes],...]}
//! ```
//!
//! `bucket_bytes[i]` is the bytes serialized onto the link during
//! utilization bucket `i` (bucket `i` covers
//! `[i*bucket_width, (i+1)*bucket_width)`; divide by the width for Gbps —
//! [`netsim::stats::bucket_gbps`]). `queue_samples` pairs are
//! `(sample instant in ps, queued bytes)`.
//!
//! # Determinism contract
//!
//! A cell's document is a pure function of its key: instrumentation only
//! *reads* fabric state, so enabling `--series` changes neither the result
//! bytes nor any derived seed, and the same cell writes identical series
//! bytes at any `--threads` value or shard split. Every line parses with
//! [`harness::json::Value`] and re-renders byte-exactly. Documents are the
//! `Series` kind of the per-cell store ([`crate::store`]), which writes
//! them atomically, one file per cell, and gates `--cache` hits on them: a
//! warm cache pointed at an empty series directory, or at a document cut
//! short, re-runs the cells rather than silently leaving the series out.

use netsim::time::Time;

use crate::matrix::Cell;

/// Queue sampling stops after this much simulated time even when the cell
/// runs longer: at the paper profile's 1 µs sample period this bounds the
/// document at 2000 samples per tracked link, while quick-scale cells
/// (hundreds of µs) are covered end to end. Utilization buckets are not
/// capped — they cost one `u64` per 20 µs of simulated time.
pub const SAMPLE_HORIZON: Time = Time::from_ms(2);

/// Renders one cell's canonical series document (header + one record per
/// tracked link, one JSON object per line, trailing newline).
pub fn series_doc<S: netsim::trace::TraceSink>(
    cell: &Cell,
    engine: &netsim::engine::Engine<S, transport::endpoint::HostEndpoint>,
) -> String {
    use harness::json::{array, Object};
    let export = engine.stats.export_series();
    let mut doc = String::new();
    doc.push_str(
        &Object::new()
            .str("key", &cell.key())
            .u64("derived_seed", cell.derived_seed())
            .u64("bucket_width_ps", export.bucket_width.as_ps())
            .u64("sample_period_ps", engine.cfg.sample_period.as_ps())
            .u64("links", export.links.len() as u64)
            .render(),
    );
    doc.push('\n');
    for (link, series) in &export.links {
        let buckets = array(series.bucket_bytes.iter().map(u64::to_string));
        let samples = array(
            series
                .queue_samples
                .iter()
                .map(|s| array([s.at.as_ps().to_string(), s.bytes.to_string()])),
        );
        doc.push_str(
            &Object::new()
                .u64("link", link.0 as u64)
                .raw("bucket_bytes", buckets)
                .raw("queue_samples", samples)
                .render(),
        );
        doc.push('\n');
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{CellResult, ScenarioMatrix};
    use crate::spec::WorkloadSpec;
    use crate::store::DocKind;

    fn cell() -> Cell {
        ScenarioMatrix::new("series-unit")
            .workloads([WorkloadSpec::Tornado { bytes: 32 << 10 }])
            .expand()
            .remove(0)
    }

    fn run_with_series(c: &Cell) -> (CellResult, String) {
        let out = c.run_instrumented(&[DocKind::Series], false);
        let doc = out
            .doc(DocKind::Series)
            .expect("series requested")
            .to_string();
        (out.result, doc)
    }

    #[test]
    fn doc_is_canonical_and_self_describing() {
        let c = cell();
        let (res, doc) = run_with_series(&c);
        assert!(res.summary.completed);
        let lines: Vec<&str> = doc.lines().collect();
        assert!(doc.ends_with('\n'));
        let header = harness::json::Value::parse(lines[0]).expect("header parses");
        assert_eq!(header.get("key").unwrap().as_str(), Some(c.key().as_str()));
        assert_eq!(
            header.get("derived_seed").unwrap().as_u64(),
            Some(c.derived_seed())
        );
        let links = header.get("links").unwrap().as_u64().unwrap() as usize;
        assert!(links > 0, "ToR 0 must have tracked uplinks");
        assert_eq!(lines.len(), 1 + links);
        let mut saw_traffic = false;
        for line in &lines[1..] {
            // Canonical: every record re-renders byte-exactly.
            let v = harness::json::Value::parse(line).expect("record parses");
            assert_eq!(v.render(), *line);
            let buckets = match v.get("bucket_bytes") {
                Some(harness::json::Value::Arr(items)) => items.len(),
                other => panic!("bucket_bytes shape: {other:?}"),
            };
            saw_traffic |= buckets > 0;
            assert!(
                matches!(v.get("queue_samples"), Some(harness::json::Value::Arr(s)) if !s.is_empty()),
                "queue sampling must have run: {line}"
            );
        }
        assert!(saw_traffic, "a tornado must load some ToR-0 uplink");
    }

    #[test]
    fn instrumentation_does_not_change_the_result_record() {
        let c = cell();
        let plain = c.run();
        let (instrumented, _) = run_with_series(&c);
        assert_eq!(
            crate::sink::jsonl_record(&plain),
            crate::sink::jsonl_record(&instrumented),
            "--series must not perturb the byte-stable result stream"
        );
    }

    #[test]
    fn docs_are_deterministic() {
        let c = cell();
        assert_eq!(run_with_series(&c).1, run_with_series(&c).1);
    }

    #[test]
    fn sink_stores_and_validates_ownership() {
        crate::store::tests::assert_store_validates_ownership(crate::store::DocKind::Series);
    }
}
