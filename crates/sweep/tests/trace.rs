//! `--trace` / `--diagnostics` composition contract: per-cell trace
//! documents are pure functions of cell keys (identical across thread
//! counts and shard splits), results stay byte-identical with tracing on
//! or off, the cache only answers a cell when its whole trace document
//! exists and its diagnostics presence matches the request, per-LB
//! decision counters are opt-in and summed per scheme, and a traced REPS
//! cell under the fig07 rolling failures explains into the paper's
//! failure-reaction story. Every record of a real trace document decodes
//! and re-encodes byte-exactly. The sidecar checks are shared with
//! `tests/series.rs` in `common`.

mod common;

use std::collections::BTreeSet;

use harness::json::Value;
use harness::Scale;
use sweep::trace::{decode_event, event_record, kind};
use sweep::{
    explain_doc, presets, run_cells, run_cells_instrumented, specfile, to_jsonl, CellStore,
    DocKind, RunSinks,
};

#[test]
fn trace_dir_is_identical_across_threads_and_shards() {
    common::assert_dir_identical_across_threads_and_shards(DocKind::Trace);
}

#[test]
fn every_record_of_a_trace_document_round_trips() {
    // Cable cuts (the sidecar grid) and the three loss faults (the golden
    // loss-fault grid), traced.
    let loss = specfile::parse(include_str!("fixtures/loss-faults.grid")).expect("grid parses");
    let mut cells = common::grid("trace-it").expand();
    cells.extend(loss.iter().flat_map(|m| m.expand()));
    let dir = common::tmpdir("trace-roundtrip");
    let store = [CellStore::create(&dir, DocKind::Trace).unwrap()];
    let run = run_cells_instrumented(&cells, 2, common::sinks(None, &store));
    assert_eq!(run.sidecar_errors, [0]);
    let mut kinds = BTreeSet::new();
    for doc in common::dir_contents(&dir).values() {
        for line in doc.lines().skip(1) {
            let v = Value::parse(line).expect("record parses");
            let e = decode_event(&v).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(event_record(&e), line);
            kinds.insert(kind(&e));
        }
    }
    for k in "link_down link_ber link_gray link_corrupt ev_choice".split(' ') {
        assert!(kinds.contains(k), "no {k} record in {kinds:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_hits_require_trace_documents_and_matching_diagnostics() {
    let cells = common::grid("trace-it").expand();
    let base = common::tmpdir("trace-cache");
    let (cache, cold) = common::warm_cache(&base.join("cache"), &cells);
    common::assert_cache_hits_require_sidecar_documents(
        DocKind::Trace,
        &cells,
        &cache,
        &cold,
        &base.join("trace"),
    );

    // Diagnostics partition cache hits: the warm diagnostics-free cache
    // must not answer a --diagnostics run (the bytes would lack the
    // block), and the refreshed entries then serve diagnostics runs only.
    let cached = common::sinks(Some(&cache), &[]);
    let cached_diag = RunSinks {
        diagnostics: true,
        ..cached
    };
    let diag = run_cells_instrumented(&cells, 2, cached_diag);
    assert_eq!(
        (diag.hits, diag.misses),
        (0, cells.len()),
        "diagnostics-free entries must not answer a diagnostics run"
    );
    assert!(to_jsonl(&diag.results).contains("\"diagnostics\":{"));
    let diag_warm = run_cells_instrumented(&cells, 2, cached_diag);
    assert_eq!((diag_warm.hits, diag_warm.misses), (cells.len(), 0));
    assert_eq!(to_jsonl(&diag_warm.results), to_jsonl(&diag.results));
    let plain_again = run_cells_instrumented(&cells, 2, cached);
    assert_eq!(
        (plain_again.hits, plain_again.misses),
        (0, cells.len()),
        "diagnostics entries must not answer a plain run"
    );
    assert_eq!(to_jsonl(&plain_again.results), cold);

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn diagnostics_are_opt_in_and_summed_per_scheme() {
    let cells = common::grid("trace-it").expand();
    // Without the flag the bytes carry no diagnostics block at all.
    let plain = to_jsonl(&run_cells(&cells, 2));
    assert!(!plain.contains("diagnostics"));
    // With it, every record carries its scheme's counters.
    let run = run_cells_instrumented(
        &cells,
        2,
        RunSinks {
            diagnostics: true,
            ..RunSinks::default()
        },
    );
    for r in &run.results {
        let diag = r.summary.diagnostics.as_ref().expect("diagnostics on");
        let get = |k: &str| diag.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        match r.lb.as_str() {
            "REPS" => {
                assert!(get("reps_fresh_draws").unwrap() > 0.0, "{}", r.key);
                assert!(get("reps_recycled_draws").is_some(), "{}", r.key);
            }
            "OPS" => assert!(diag.is_empty(), "OPS has no counters: {:?}", diag),
            other => panic!("unexpected lb {other}"),
        }
    }
}

#[test]
fn fig07_reps_cell_explains_the_failure_reaction() {
    // The acceptance scenario: one REPS cell of the fig07 rolling-failure
    // preset, traced and explained. The report must carry a nonzero EV
    // recycle rate, the reorder-depth histogram and the failure timeline.
    // Full scale: quick-scale flows (2 MiB) drain before the first rolling
    // failure at 100us, so only the full-size cell exercises the reaction.
    let fig07 = presets::all(Scale::Full)
        .into_iter()
        .find(|m| m.name == "fig07-failure-micro")
        .expect("fig07 preset exists");
    let cell = fig07
        .expand()
        .into_iter()
        .find(|c| c.lb.label == "REPS")
        .expect("REPS cell");
    let out = cell.run_instrumented(&[DocKind::Trace], true);
    let doc = out.doc(DocKind::Trace).expect("trace requested");
    let report = explain_doc(doc).expect("trace explains");
    assert!(report.contains(&cell.key()), "{report}");
    assert!(report.contains("recycled"), "{report}");
    assert!(!report.contains("reuse rate 0.0%"), "{report}");
    assert!(report.contains("depth histogram"), "{report}");
    assert!(report.contains("link_down"), "{report}");
    assert!(report.contains("freeze"), "{report}");

    // The trace and the diagnostics agree on the recycle count: the
    // summed per-LB counter equals the recycled ev_choice events.
    let recycled_events = doc
        .lines()
        .filter(|l| l.contains("\"decision\":\"recycled\""))
        .count() as f64;
    let diag = out.result.summary.diagnostics.expect("diagnostics on");
    let counter = diag
        .iter()
        .find(|(n, _)| n == "reps_recycled_draws")
        .map(|(_, v)| *v)
        .expect("reps counter");
    assert_eq!(counter, recycled_events, "trace and diagnostics disagree");
}
