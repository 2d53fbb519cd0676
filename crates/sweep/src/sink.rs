//! Structured result output: the one codec of a cell's result record,
//! JSON Lines per cell, and cross-seed aggregation rendered as text
//! tables.
//!
//! [`jsonl_record`] renders a record, envelope and summary body alike,
//! and [`parse_record`] / [`decode_record`] are its exact inverse; the
//! merge's canonical check and the cache lookup both go through this pair.
//!
//! JSONL output is byte-deterministic: [`crate::runner::run_cells`] sorts
//! results by cell key and every record's field order is fixed, so a sweep
//! produces identical bytes regardless of thread count.
//!
//! Per-cell *performance* records (events processed, wall-clock
//! nanoseconds, events/sec) are deliberately a separate stream
//! ([`perf_record`], `repsbench run --perf`): wall time varies run to run,
//! so folding it into the result records would break the byte-determinism
//! contract the CI smoke test and golden tests pin.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use harness::experiment::Summary;
use harness::json::{Object, Value};
use netsim::stats::Counters;
use netsim::time::Time;

use crate::matrix::CellResult;

/// Renders one cell result as a single JSONL record (no trailing newline).
pub fn jsonl_record(r: &CellResult) -> String {
    push_record(String::new(), r)
}

/// Appends `r`'s [`jsonl_record`] to `buf` and hands the buffer back.
pub(crate) fn push_record(buf: String, r: &CellResult) -> String {
    Object::append_to(buf)
        .str("key", &r.key)
        .str("scenario", &r.scenario)
        .str("lb", &r.lb)
        .u64("seed", r.seed as u64)
        .u64("derived_seed", r.derived_seed)
        .obj("summary", |o| summary_fields(o, &r.summary))
        .render()
}

/// Appends a summary's fields to `obj` in their fixed order, times in
/// integer picoseconds. Non-finite goodput renders as `null`, and so does
/// `bg_max_fct_ps` without background. The gray/corrupt drop counters only
/// exist in faulted cells: omitting them at zero keeps every
/// pre-fault-axis record byte-identical.
fn summary_fields(obj: Object, s: &Summary) -> Object {
    let c = &s.counters;
    let obj = obj
        .str("name", &s.name)
        .str("lb", &s.lb)
        .bool("completed", s.completed)
        .u64("fg_flows", s.fg_flows as u64)
        .u64("max_fct_ps", s.max_fct.as_ps())
        .u64("avg_fct_ps", s.avg_fct.as_ps())
        .u64("p99_fct_ps", s.p99_fct.as_ps())
        .u64("makespan_ps", s.makespan.as_ps())
        .f64("avg_goodput_gbps", s.avg_goodput_gbps);
    let obj = match s.bg_max_fct {
        Some(t) => obj.u64("bg_max_fct_ps", t.as_ps()),
        None => obj.raw("bg_max_fct_ps", "null"),
    };
    let obj = obj.obj("counters", |mut o| {
        o = o
            .u64("drops_queue_full", c.drops_queue_full)
            .u64("drops_link_down", c.drops_link_down)
            .u64("drops_bit_error", c.drops_bit_error);
        if c.drops_gray > 0 {
            o = o.u64("drops_gray", c.drops_gray);
        }
        if c.drops_corrupt > 0 {
            o = o.u64("drops_corrupt", c.drops_corrupt);
        }
        o.u64("trims", c.trims)
            .u64("ecn_marks", c.ecn_marks)
            .u64("data_tx", c.data_tx)
            .u64("ctrl_tx", c.ctrl_tx)
            .u64("retransmissions", c.retransmissions)
            .u64("timeouts", c.timeouts)
    });
    match &s.diagnostics {
        Some(diag) => obj.obj("diagnostics", |o| {
            diag.iter().fold(o, |o, (name, v)| o.f64(name, *v))
        }),
        None => obj,
    }
}

/// Parses one JSONL record back into a [`CellResult`] — the exact inverse
/// of [`jsonl_record`]: `jsonl_record(&parse_record(line)?) == line` for
/// any line this crate wrote. Used by `repsbench merge` and the sweep cell
/// cache.
///
/// The perf-only fields (`events`, `wall_ns`) are not part of the
/// byte-stable record and come back as 0.
pub fn parse_record(line: &str) -> Result<CellResult, String> {
    let v = Value::parse(line).map_err(|e| format!("bad JSONL record: {e}"))?;
    decode_record(&v)
}

/// [`parse_record`] of an already-parsed line (the cache's store probe
/// parses it).
pub fn decode_record(v: &Value<'_>) -> Result<CellResult, String> {
    let r = Fields { what: "record", v };
    Ok(CellResult {
        key: r.text("key")?,
        scenario: r.text("scenario")?,
        lb: r.text("lb")?,
        seed: r.typed("seed", "a u32", |v| v.as_u64()?.try_into().ok())?,
        derived_seed: r.u64("derived_seed")?,
        summary: decode_summary(r.obj("summary")?)?,
        ..CellResult::default()
    })
}

/// Inverts [`summary_fields`], reading each of its quirks back: `null`
/// goodput as NaN, `null` background FCT as none, and an absent gray or
/// corrupt counter as 0.
fn decode_summary(s: Fields<'_, '_>) -> Result<Summary, String> {
    let c = s.obj("counters")?;
    let diagnostics = match s.v.get("diagnostics") {
        None => None,
        Some(d) => Some(
            (d.as_obj().ok_or("\"diagnostics\" is not an object")?.iter())
                .map(|(k, v)| match v.as_f64() {
                    Some(n) => Ok((k.to_string(), n)),
                    None => Err(format!("diagnostics field {k:?} is not a number")),
                })
                .collect::<Result<_, String>>()?,
        ),
    };
    Ok(Summary {
        name: s.text("name")?,
        lb: s.text("lb")?,
        completed: s.typed("completed", "a bool", Value::as_bool)?,
        fg_flows: s.u64("fg_flows")? as usize,
        max_fct: Time(s.u64("max_fct_ps")?),
        avg_fct: Time(s.u64("avg_fct_ps")?),
        p99_fct: Time(s.u64("p99_fct_ps")?),
        makespan: Time(s.u64("makespan_ps")?),
        avg_goodput_gbps: s.typed("avg_goodput_gbps", "null or a number", |v| match v {
            Value::Null => Some(f64::NAN),
            n => n.as_f64(),
        })?,
        bg_max_fct: s.typed("bg_max_fct_ps", "null or a u64", |v| match v {
            Value::Null => Some(None),
            t => t.as_u64().map(|t| Some(Time(t))),
        })?,
        counters: Counters {
            drops_queue_full: c.u64("drops_queue_full")?,
            drops_link_down: c.u64("drops_link_down")?,
            drops_bit_error: c.u64("drops_bit_error")?,
            drops_gray: c.u64_or_zero("drops_gray")?,
            drops_corrupt: c.u64_or_zero("drops_corrupt")?,
            trims: c.u64("trims")?,
            ecn_marks: c.u64("ecn_marks")?,
            data_tx: c.u64("data_tx")?,
            ctrl_tx: c.u64("ctrl_tx")?,
            retransmissions: c.u64("retransmissions")?,
            timeouts: c.u64("timeouts")?,
        },
        diagnostics,
    })
}

/// The fields of one object of a record being decoded, named `what` in
/// error messages.
#[derive(Clone, Copy)]
struct Fields<'v, 'a> {
    what: &'static str,
    v: &'v Value<'a>,
}

impl<'v, 'a> Fields<'v, 'a> {
    fn get(self, k: &str) -> Result<&'v Value<'a>, String> {
        (self.v.get(k)).ok_or_else(|| format!("{} missing {k:?}", self.what))
    }

    /// Field `k` read by `read`, which fails unless it is a `ty`.
    fn typed<T>(
        self,
        k: &str,
        ty: &str,
        read: impl FnOnce(&Value<'a>) -> Option<T>,
    ) -> Result<T, String> {
        read(self.get(k)?).ok_or_else(|| format!("{} field {k:?} is not {ty}", self.what))
    }

    fn text(self, k: &str) -> Result<String, String> {
        self.typed(k, "a string", |v| v.as_str().map(str::to_string))
    }

    fn u64(self, k: &str) -> Result<u64, String> {
        self.typed(k, "a u64", Value::as_u64)
    }

    /// A counter written only when nonzero: absent reads as 0.
    fn u64_or_zero(self, k: &str) -> Result<u64, String> {
        self.v.get(k).map_or(Ok(0), |_| self.u64(k))
    }

    /// The object in field `k`, named after it.
    fn obj(self, k: &'static str) -> Result<Fields<'v, 'a>, String> {
        self.get(k).map(|v| Fields { what: k, v })
    }
}

/// Renders all results to one JSONL string, every record written into the
/// same buffer.
pub fn to_jsonl(results: &[CellResult]) -> String {
    results.iter().fold(String::new(), |buf, r| {
        let mut buf = push_record(buf, r);
        buf.push('\n');
        buf
    })
}

/// Renders one cell's performance counters as a JSONL record (no
/// trailing newline): the `repsbench run --perf` stream, whose fields the
/// `repsbench` docs describe. Wall time is nondeterministic, which is why
/// this is not part of [`jsonl_record`]; `avg_batch` is events per drained
/// same-timestamp batch, `fluid_flows_resolved / fluid_resolves` the
/// mean dirty-component size of the fluid re-solves, and
/// `fluid_rebases / fluid_flows_resolved` the share of re-solved flows
/// whose rate moved.
pub fn perf_record(r: &CellResult) -> String {
    let events_per_sec = if r.wall_ns > 0 {
        r.events as f64 * 1e9 / r.wall_ns as f64
    } else {
        0.0
    };
    let avg_batch = if r.batches > 0 {
        r.events as f64 / r.batches as f64
    } else {
        0.0
    };
    Object::new()
        .str("key", &r.key)
        .u64("events", r.events)
        .u64("wall_ns", r.wall_ns)
        .f64("events_per_sec", events_per_sec)
        .u64("batches", r.batches)
        .f64("avg_batch", avg_batch)
        .u64("max_batch", r.max_batch)
        .u64("chained_services", r.chained_services)
        .u64("ev_services", r.kinds.services)
        .u64("ev_switch_arrivals", r.kinds.switch_arrivals)
        .u64("ev_host_arrivals", r.kinds.host_arrivals)
        .u64("ev_timers", r.kinds.timers)
        .u64("ev_controls", r.kinds.controls)
        .u64("lookahead_hints", r.lookahead_hints)
        .u64("cal_lane_pushes", r.calendar.lane_pushes)
        .u64("cal_lanes_open", r.calendar.lanes_open as u64)
        .u64("cal_lane_misfits", r.calendar.lane_misfits)
        .u64("cal_heap_peak", r.calendar.heap_peak)
        .u64("arena_high_water", r.arena_high_water)
        .u64("arena_wide_high_water", r.arena_wide_high_water)
        .u64("fluid_resolves", r.fluid.resolves)
        .u64("fluid_flows_resolved", r.fluid.flows_resolved)
        .u64("fluid_max_component", r.fluid.max_component)
        .u64("fluid_rate_classes", r.fluid.rate_classes)
        .u64("fluid_rebases", r.fluid.rebases)
        .render()
}

/// Aggregate events/sec over a result set: total events divided by the
/// *sum* of per-cell wall time (i.e. single-core simulation throughput,
/// independent of how many workers ran the sweep). Takes any borrowing
/// iterator so callers can feed a subset (e.g. only the freshly executed
/// cells of a cached run) without cloning.
pub fn events_per_sec<'a>(results: impl IntoIterator<Item = &'a CellResult>) -> (u64, f64) {
    let (mut events, mut wall_ns) = (0u64, 0u64);
    for r in results {
        events += r.events;
        wall_ns += r.wall_ns;
    }
    let rate = if wall_ns > 0 {
        events as f64 * 1e9 / wall_ns as f64
    } else {
        0.0
    };
    (events, rate)
}

/// Cross-seed aggregate of one `(scenario, lb)` group.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Number of seeds aggregated.
    pub runs: usize,
    /// Mean of the per-seed summaries, named after the scenario and the lb
    /// and shaped as a [`Summary`] so the tables render it like a run.
    pub mean: Summary,
}

fn mean_time(values: impl Iterator<Item = Time>, n: usize) -> Time {
    Time((values.map(|t| t.as_ps() as u128).sum::<u128>() / n as u128) as u64)
}

/// Groups results by `(scenario, lb)` and averages each group across its
/// seeds. Output is sorted by scenario, then by lb label, so it is as
/// deterministic as the input.
pub fn aggregate(results: &[CellResult]) -> Vec<Aggregate> {
    let mut groups: BTreeMap<(&str, &str), Vec<&Summary>> = BTreeMap::new();
    for r in results {
        groups
            .entry((&r.scenario, &r.lb))
            .or_default()
            .push(&r.summary);
    }
    groups
        .into_iter()
        .map(|((scenario, lb), rs)| {
            let n = rs.len();
            let times = |f: fn(&Summary) -> Time| mean_time(rs.iter().map(|s| f(s)), n);
            // Sum across seeds first, divide once: per-element flooring
            // would erase counters rarer than one event per seed (exactly
            // the drop/timeout tallies failure scenarios measure).
            let mean_of = |field: fn(&Counters) -> u64| {
                (rs.iter().map(|s| field(&s.counters) as u128).sum::<u128>() / n as u128) as u64
            };
            // Mixed-traffic scenarios report a background FCT per seed;
            // average the seeds that have one instead of dropping them all.
            let bg: Vec<Time> = rs.iter().filter_map(|s| s.bg_max_fct).collect();
            let mean = Summary {
                name: scenario.to_string(),
                lb: lb.to_string(),
                completed: rs.iter().all(|s| s.completed),
                fg_flows: (rs.iter().map(|s| s.fg_flows as u128).sum::<u128>() / n as u128)
                    as usize,
                max_fct: times(|s| s.max_fct),
                avg_fct: times(|s| s.avg_fct),
                p99_fct: times(|s| s.p99_fct),
                makespan: times(|s| s.makespan),
                avg_goodput_gbps: rs.iter().map(|s| s.avg_goodput_gbps).sum::<f64>() / n as f64,
                bg_max_fct: (!bg.is_empty()).then(|| mean_time(bg.iter().copied(), bg.len())),
                counters: Counters {
                    drops_queue_full: mean_of(|c| c.drops_queue_full),
                    drops_link_down: mean_of(|c| c.drops_link_down),
                    drops_bit_error: mean_of(|c| c.drops_bit_error),
                    drops_gray: mean_of(|c| c.drops_gray),
                    drops_corrupt: mean_of(|c| c.drops_corrupt),
                    trims: mean_of(|c| c.trims),
                    ecn_marks: mean_of(|c| c.ecn_marks),
                    data_tx: mean_of(|c| c.data_tx),
                    ctrl_tx: mean_of(|c| c.ctrl_tx),
                    retransmissions: mean_of(|c| c.retransmissions),
                    timeouts: mean_of(|c| c.timeouts),
                },
                diagnostics: mean_diagnostics(&rs),
            };
            Aggregate { runs: n, mean }
        })
        .collect()
}

/// Fieldwise mean of the diagnostics blocks over the seeds carrying one
/// (mirrors `bg_max_fct`: a missing block on one seed must not erase the
/// others'). Names keep first-appearance order.
fn mean_diagnostics(rs: &[&Summary]) -> Option<Vec<(String, f64)>> {
    let blocks: Vec<&[(String, f64)]> =
        rs.iter().filter_map(|s| s.diagnostics.as_deref()).collect();
    let mut sums: Vec<(&str, f64)> = Vec::new();
    for (k, v) in blocks.iter().flat_map(|d| d.iter()) {
        match sums.iter_mut().find(|(name, _)| name == k) {
            Some((_, sum)) => *sum += v,
            None => sums.push((k, *v)),
        }
    }
    let n = blocks.len() as f64;
    (!blocks.is_empty()).then(|| {
        sums.into_iter()
            .map(|(k, sum)| (k.to_string(), sum / n))
            .collect()
    })
}

/// Renders the cross-seed aggregation as per-scenario comparison and
/// speedup tables, all into one buffer. `baseline` picks the speedup
/// denominator; when the scenario lacks that label the first row is used.
pub fn render_aggregates(results: &[CellResult], baseline: &str) -> String {
    let mut out = String::new();
    let mut aggs = aggregate(results).into_iter().peekable();
    // `aggregate` sorts by scenario, so each scenario is one run of groups.
    while let Some(first) = aggs.next() {
        let mut runs = first.runs;
        let mut rows = vec![first.mean];
        while let Some(a) = aggs.next_if(|a| a.mean.name == rows[0].name) {
            runs = runs.max(a.runs);
            rows.push(a.mean);
        }
        let scenario = &rows[0].name;
        let title = format!("{scenario} (mean of {runs} seed(s))");
        comparison_table(&mut out, &title, &rows);
        let base = rows.iter().find(|s| s.lb == baseline).unwrap_or(&rows[0]);
        speedup_table(&mut out, scenario, &rows, base);
        out.push('\n');
    }
    out
}

/// Appends `rows` to `out` as an aligned comparison table. Drops are
/// broken out by reason (queue overflow, dead link, bit error, gray loss,
/// corruption): lumping them together hides exactly the distinction the
/// failure figures are about — a congested balancer, a blackholed one and
/// one bleeding packets on a gray cable all "drop", for different reasons.
fn comparison_table(out: &mut String, title: &str, rows: &[Summary]) {
    // The row format's column widths, pinned by the aggregate tests.
    let _ = writeln!(
        out,
        "## {title}\nLB              max FCT(us)  avg FCT(us)  p99 FCT(us)   \
         qdrops  lnkdrop  berdrop graydrop  corrupt     retx      ecn   done"
    );
    for s in rows {
        let c = &s.counters;
        let _ = writeln!(
            out,
            "{:<14} {:>12.1} {:>12.1} {:>12.1} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
            s.lb,
            s.max_fct.as_us_f64(),
            s.avg_fct.as_us_f64(),
            s.p99_fct.as_us_f64(),
            c.drops_queue_full,
            c.drops_link_down,
            c.drops_bit_error,
            c.drops_gray,
            c.drops_corrupt,
            c.retransmissions,
            c.ecn_marks,
            if s.completed { "yes" } else { "NO" },
        );
    }
}

/// Appends each row's speedup over `base` to `out` (the paper's "speedup
/// vs ECMP" / "speedup vs OPS" bars).
fn speedup_table(out: &mut String, title: &str, rows: &[Summary], base: &Summary) {
    let _ = writeln!(out, "## {title} (speedup vs {})", base.lb);
    let base_fct = base.max_fct.as_ps().max(1) as f64;
    for s in rows {
        let speedup = base_fct / s.max_fct.as_ps().max(1) as f64;
        let _ = writeln!(out, "{:<14} {:>8.2}x", s.lb, speedup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{LabeledLb, ScenarioMatrix};
    use crate::runner::run_cells;
    use crate::spec::WorkloadSpec;
    use baselines::kind::LbKind;
    use reps::reps::RepsConfig;

    fn small_results() -> Vec<CellResult> {
        let m = ScenarioMatrix::new("sink-test")
            .lbs([
                LabeledLb::plain(LbKind::Ops { evs_size: 1 << 16 }),
                LabeledLb::plain(LbKind::Reps(RepsConfig::default())),
            ])
            .workloads([WorkloadSpec::Tornado { bytes: 32 << 10 }])
            .seeds(2);
        run_cells(&m.expand(), 2)
    }

    #[test]
    fn jsonl_is_sorted_and_parseable_shape() {
        let results = small_results();
        let text = to_jsonl(&results);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let mut keys: Vec<&str> = lines
            .iter()
            .map(|l| {
                assert!(l.starts_with("{\"key\":"), "line shape: {l}");
                assert!(l.ends_with('}'), "line shape: {l}");
                &l[8..l[8..].find('"').unwrap() + 8]
            })
            .collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted, "records are key-sorted");
        keys.dedup();
        assert_eq!(keys.len(), 4, "keys are unique");
    }

    /// Renders `r`, checks that rendering is deterministic and that the
    /// record parses back into one that re-renders to the same bytes (so
    /// every rendered field came back), and returns the line and the
    /// parsed record.
    fn round_trip(r: &CellResult) -> (String, CellResult) {
        let line = jsonl_record(r);
        assert_eq!(jsonl_record(r), line, "rendering twice differs");
        let parsed = parse_record(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(jsonl_record(&parsed), line, "round trip must be exact");
        assert_eq!(parsed.events, 0, "perf fields are not in the record");
        (line, parsed)
    }

    /// A run of one small tornado cell, with or without background.
    fn tornado_result(background: bool) -> CellResult {
        let mut m =
            ScenarioMatrix::new("sink-bg").workloads([WorkloadSpec::Tornado { bytes: 32 << 10 }]);
        m.background =
            background.then_some((WorkloadSpec::Tornado { bytes: 8 << 10 }, LbKind::Ecmp));
        m.expand()[0].run()
    }

    #[test]
    fn parse_record_inverts_jsonl_record_byte_exactly() {
        let mut results = small_results();
        // Cover the mixed-traffic shape too (bg_max_fct: Some).
        results.push(tornado_result(true));
        for r in &results {
            round_trip(r);
        }
        for bad in [
            "",
            "not json",
            "{\"key\":\"x\"}",
            "{\"key\":\"x\",\"scenario\":\"s\",\"lb\":\"L\",\"seed\":-1,\"derived_seed\":0,\"summary\":{}}",
        ] {
            assert!(parse_record(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn summary_json_is_stable_and_escaped() {
        let mut r = tornado_result(false);
        r.summary.name = "json \"quoted\"".to_string();
        r.summary.avg_goodput_gbps = f64::NAN;
        r.summary.diagnostics = Some(vec![("z".into(), 2.0), ("a".into(), 0.5)]);
        let (j, parsed) = round_trip(&r);
        assert!(
            j.contains("\"summary\":{\"name\":\"json \\\"quoted\\\"\""),
            "{j}"
        );
        assert!(j.contains("\"completed\":true"), "{j}");
        assert!(j.contains("\"avg_goodput_gbps\":null"), "{j}");
        assert!(j.contains("\"bg_max_fct_ps\":null"), "{j}");
        assert!(j.contains("\"counters\":{\"drops_queue_full\":"), "{j}");
        assert!(j.ends_with(",\"diagnostics\":{\"z\":2,\"a\":0.5}}}"), "{j}");
        assert_eq!(parsed.summary.name, r.summary.name);
        assert!(parsed.summary.avg_goodput_gbps.is_nan());
    }

    #[test]
    fn summary_from_json_round_trips_byte_exactly() {
        for bg in [false, true] {
            let (_, parsed) = round_trip(&tornado_result(bg));
            assert_eq!(parsed.summary.bg_max_fct.is_some(), bg);
        }
        // Shape errors in a well-formed envelope are reported, not panicked.
        let bad = "{\"key\":\"x\",\"scenario\":\"s\",\"lb\":\"L\",\"seed\":0,\"derived_seed\":0,\"summary\":{\"name\":\"x\"}}";
        assert!(parse_record(bad).unwrap_err().contains("missing"));
    }

    #[test]
    fn gray_and_corrupt_counters_are_emitted_only_when_nonzero() {
        let mut r = tornado_result(false);
        let (clean, _) = round_trip(&r);
        assert!(!clean.contains("drops_gray"), "{clean}");
        assert!(!clean.contains("drops_corrupt"), "{clean}");
        r.summary.counters.drops_gray = 3;
        r.summary.counters.drops_corrupt = 1;
        let (faulted, parsed) = round_trip(&r);
        assert!(
            faulted.contains("\"drops_gray\":3,\"drops_corrupt\":1,\"trims\":"),
            "{faulted}"
        );
        assert_eq!(parsed.summary.counters.drops_gray, 3);
        assert_eq!(parsed.summary.counters.drops_corrupt, 1);
        // Records written before the fault axis existed parse with zeros.
        let old = parse_record(&clean).expect("pre-fault-axis record");
        assert_eq!(old.summary.counters.drops_gray, 0);
        assert_eq!(old.summary.counters.drops_corrupt, 0);
    }

    #[test]
    fn perf_records_report_events_and_rate() {
        let results = small_results();
        for r in &results {
            assert!(r.events > 0, "cells must count events");
            assert!(r.wall_ns > 0, "cells must measure wall time");
            assert!(r.batches > 0, "cells must count drained batches");
            assert!(
                r.max_batch >= 1 && r.batches <= r.events,
                "batch counters must be consistent: {} batches, max {}, {} events",
                r.batches,
                r.max_batch,
                r.events
            );
            let line = perf_record(r);
            assert!(line.starts_with("{\"key\":"), "{line}");
            assert!(line.contains("\"events\":"), "{line}");
            assert!(line.contains("\"events_per_sec\":"), "{line}");
            assert!(line.contains("\"batches\":"), "{line}");
            assert!(line.contains("\"avg_batch\":"), "{line}");
            assert!(line.contains("\"max_batch\":"), "{line}");
            assert!(line.contains("\"chained_services\":"), "{line}");
            assert!(
                r.arena_high_water > 0,
                "cells must report their peak in-fabric packet count"
            );
            assert_eq!(
                r.kinds.total(),
                r.events,
                "the per-kind counts must sum to the events: {:?}",
                r.kinds
            );
            assert!(
                r.kinds.services > 0 && r.kinds.switch_arrivals > 0 && r.kinds.host_arrivals > 0,
                "a packet cell dispatches services and arrivals: {:?}",
                r.kinds
            );
            assert!(
                r.lookahead_hints <= r.events,
                "at most one stage-two hint per event"
            );
            let cal = r.calendar;
            assert!(
                cal.lane_pushes > 0 && cal.lanes_open > 0 && cal.heap_peak > 0,
                "cells must report the event queue they ran on: {cal:?}"
            );
            for field in [
                "ev_services",
                "ev_switch_arrivals",
                "ev_host_arrivals",
                "ev_timers",
                "ev_controls",
                "lookahead_hints",
                "cal_lane_pushes",
                "cal_lanes_open",
                "cal_lane_misfits",
                "cal_heap_peak",
                "arena_high_water",
                "arena_wide_high_water",
                "fluid_resolves",
                "fluid_flows_resolved",
                "fluid_max_component",
                "fluid_rate_classes",
                "fluid_rebases",
            ] {
                assert!(line.contains(&format!("\"{field}\":")), "{line}");
            }
        }
        let (events, rate) = events_per_sec(&results);
        assert_eq!(events, results.iter().map(|r| r.events).sum::<u64>());
        assert!(rate > 0.0);
        // The deterministic fields must not leak into the result records.
        let record = jsonl_record(&results[0]);
        assert!(!record.contains("wall_ns"), "{record}");
        assert!(!record.contains("batches"), "{record}");
        assert!(!record.contains("cal_"), "{record}");
        assert!(!record.contains("fluid_"), "{record}");
        assert!(!record.contains("arena_"), "{record}");
        assert!(!record.contains("\"ev_"), "{record}");
        assert!(!record.contains("lookahead"), "{record}");
    }

    /// A synthetic cell result whose every numeric summary field is
    /// `base * scale`, so seeds are numerically distinguishable.
    fn synthetic_result(seed: u32, scale: u64, completed: bool) -> CellResult {
        let t = |base: u64| Time(base * scale);
        let summary = Summary {
            name: format!("synthetic/lb=X/s={seed}"),
            lb: "X".to_string(),
            completed,
            fg_flows: (10 * scale) as usize,
            max_fct: t(1_000),
            avg_fct: t(700),
            p99_fct: t(950),
            makespan: t(1_100),
            avg_goodput_gbps: 1.5 * scale as f64,
            bg_max_fct: Some(t(2_000)),
            counters: Counters {
                drops_queue_full: scale,
                drops_link_down: 2 * scale,
                drops_bit_error: 3 * scale,
                drops_gray: 13 * scale,
                drops_corrupt: 14 * scale,
                trims: 4 * scale,
                ecn_marks: 5 * scale,
                data_tx: 6 * scale,
                ctrl_tx: 7 * scale,
                retransmissions: 8 * scale,
                timeouts: 9 * scale,
            },
            diagnostics: Some(vec![
                ("reps_recycled_draws".to_string(), (11 * scale) as f64),
                ("reps_freezes".to_string(), (12 * scale) as f64),
            ]),
        };
        CellResult {
            key: format!("synthetic/lb=X/s={seed}"),
            scenario: "synthetic".to_string(),
            lb: "X".to_string(),
            seed,
            derived_seed: seed as u64,
            summary,
            ..CellResult::default()
        }
    }

    /// Walks two seed summaries and their aggregate as generic JSON, so a
    /// future `Summary` field that `aggregate()` forgets to average fails
    /// here without being named: every numeric field must equal the mean
    /// of the seeds (±1 for integer flooring), every boolean must be the
    /// conjunction, and the seeds are constructed so that for every
    /// numeric field the mean differs from either seed's value.
    fn assert_fieldwise_mean(
        path: &str,
        a: &harness::json::Value<'_>,
        b: &harness::json::Value<'_>,
        mean: &harness::json::Value<'_>,
    ) {
        use harness::json::Value;
        use std::borrow::Cow;
        match (a, b, mean) {
            (Value::Obj(fa), Value::Obj(fb), Value::Obj(fm)) => {
                let keys = |f: &[(Cow<'_, str>, Value<'_>)]| -> Vec<String> {
                    f.iter().map(|(k, _)| k.to_string()).collect()
                };
                assert_eq!(keys(fa), keys(fb), "{path}: seed field sets differ");
                assert_eq!(keys(fa), keys(fm), "{path}: aggregate field set drifted");
                for (k, va) in fa {
                    let vb = b.get(k).unwrap();
                    let vm = mean.get(k).unwrap();
                    assert_fieldwise_mean(&format!("{path}.{k}"), va, vb, vm);
                }
            }
            (Value::Num(_), Value::Num(_), Value::Num(_)) => {
                let (na, nb, nm) = (
                    a.as_f64().unwrap(),
                    b.as_f64().unwrap(),
                    mean.as_f64().unwrap(),
                );
                assert_ne!(na, nb, "{path}: seeds must differ for the test to bite");
                let expected = (na + nb) / 2.0;
                assert!(
                    (nm - expected).abs() <= 1.0,
                    "{path}: aggregate {nm} is not the mean of {na} and {nb} — un-averaged Summary field?"
                );
            }
            (Value::Bool(ba), Value::Bool(bb), Value::Bool(bm)) => {
                assert_eq!(
                    *bm,
                    *ba && *bb,
                    "{path}: boolean aggregate must be the conjunction"
                );
            }
            (Value::Str(_), Value::Str(_), Value::Str(_)) => {
                // Identity fields (name/lb); the aggregate rewrites them.
            }
            _ => panic!("{path}: mismatched shapes {a:?} / {b:?} / {mean:?}"),
        }
    }

    #[test]
    fn aggregate_means_every_summary_field() {
        use harness::json::Value;
        let results = vec![synthetic_result(0, 1, true), synthetic_result(1, 3, false)];
        let aggs = aggregate(&results);
        assert_eq!(aggs.len(), 1);
        let json = [&results[0].summary, &results[1].summary, &aggs[0].mean]
            .map(|s| summary_fields(Object::new(), s).render());
        let [a, b, mean] = json.each_ref().map(|j| Value::parse(j).unwrap());
        assert_fieldwise_mean("summary", &a, &b, &mean);
        // The regressions this guards, stated directly: no seed-0 leakage
        // in fg_flows, and a preserved background FCT.
        assert_eq!(aggs[0].mean.fg_flows, 20);
        assert_eq!(aggs[0].mean.bg_max_fct, Some(Time(4_000)));
        assert!(!aggs[0].mean.completed);
    }

    #[test]
    fn aggregate_keeps_bg_fct_when_a_seed_lacks_it() {
        let mut partial = synthetic_result(1, 3, true);
        partial.summary.bg_max_fct = None;
        let results = vec![synthetic_result(0, 1, true), partial];
        let aggs = aggregate(&results);
        assert_eq!(aggs[0].mean.bg_max_fct, Some(Time(2_000)));
        // All-None stays None.
        let none = |seed, scale| {
            let mut r = synthetic_result(seed, scale, true);
            r.summary.bg_max_fct = None;
            r
        };
        assert_eq!(
            aggregate(&[none(0, 1), none(1, 3)])[0].mean.bg_max_fct,
            None
        );
    }

    #[test]
    fn render_aggregates_output_is_pinned() {
        // The synthetic two-seed group, plus one row of a second lb whose
        // background FCT and diagnostics differ from the group's.
        let mut other = synthetic_result(0, 2, true);
        other.key = "synthetic/lb=Y/s=0".to_string();
        other.lb = "Y".to_string();
        other.summary.lb = "Y".to_string();
        other.summary.bg_max_fct = None;
        other.summary.diagnostics = Some(vec![("plb_repaths".to_string(), 5.0)]);
        let mut results = vec![
            synthetic_result(0, 1, true),
            synthetic_result(1, 3, false),
            other,
        ];
        // Picoseconds to microseconds, so the FCT columns show digits.
        for r in &mut results {
            let s = &mut r.summary;
            for t in [&mut s.max_fct, &mut s.avg_fct, &mut s.p99_fct] {
                *t = Time(t.as_ps() * 1_000_001);
            }
        }
        results[2].summary.max_fct = Time::from_us(1_500);
        let rendered = render_aggregates(&results, "Y");
        let expected = "\
## synthetic (mean of 2 seed(s))\n\
LB              max FCT(us)  avg FCT(us)  p99 FCT(us)   qdrops  lnkdrop  berdrop graydrop  corrupt     retx      ecn   done\n\
X                    2000.0       1400.0       1900.0        2        4        6       26       28       16       10     NO\n\
Y                    1500.0       1400.0       1900.0        2        4        6       26       28       16       10    yes\n\
## synthetic (speedup vs Y)\n\
X                  0.75x\n\
Y                  1.00x\n\
\n\
";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn aggregation_averages_across_seeds() {
        let results = small_results();
        let aggs = aggregate(&results);
        assert_eq!(aggs.len(), 2, "one group per lb");
        for a in &aggs {
            assert_eq!(a.runs, 2);
            assert!(a.mean.max_fct > Time::ZERO);
        }
        let rendered = render_aggregates(&results, "OPS");
        assert!(rendered.contains("REPS"), "{rendered}");
        assert!(rendered.contains("speedup vs OPS"), "{rendered}");
        assert!(rendered.contains("mean of 2 seed(s)"), "{rendered}");
    }

    /// One seed of the synthetic scenario under `lb`, finishing in `max_us`.
    fn synthetic_row(lb: &str, max_us: u64) -> CellResult {
        let mut r = synthetic_result(0, 1, true);
        r.key = format!("synthetic/lb={lb}/s=0");
        r.lb = lb.to_string();
        r.summary.lb = lb.to_string();
        r.summary.max_fct = Time::from_us(max_us);
        r
    }

    #[test]
    fn speedup_is_relative_to_baseline() {
        let rows = [synthetic_row("ECMP", 600), synthetic_row("REPS", 100)];
        let t = render_aggregates(&rows, "ECMP");
        assert!(t.contains("(speedup vs ECMP)"), "{t}");
        assert!(t.contains("REPS") && t.contains("6.00x"), "{t}");
        assert!(t.contains("1.00x"), "{t}");
    }

    #[test]
    fn comparison_table_contains_rows() {
        let t = render_aggregates(&[synthetic_row("OPS", 50)], "OPS");
        assert!(t.contains("OPS"), "{t}");
        assert!(t.contains("50.0"), "{t}");
    }

    #[test]
    fn comparison_table_breaks_drops_out_by_reason() {
        // The synthetic counters: 1 queue, 2 link-down, 3 bit-error,
        // 13 gray and 14 corrupt drops.
        let t = render_aggregates(&[synthetic_row("REPS", 50)], "REPS");
        for col in ["qdrops", "lnkdrop", "berdrop", "graydrop", "corrupt"] {
            assert!(t.contains(col), "missing column {col}: {t}");
        }
        // The data row carries each count under its own column.
        let row = t.lines().nth(2).unwrap();
        let fields: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(fields[0], "REPS", "{t}");
        assert_eq!(fields[4..9], ["1", "2", "3", "13", "14"], "{row}");
    }
}
