//! The `--series` / `--trace` composition contract, written once and run
//! per sidecar kind by `tests/series.rs` and `tests/trace.rs`: documents
//! are pure functions of cell keys (identical across thread counts and
//! shard splits, addressed by derived seed), results stay byte-identical
//! with a sidecar on or off, and the cache only answers a cell when the
//! sidecar holds its whole document (not deleted, not cut back to its
//! header).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sweep::matrix::{Cell, ScenarioMatrix};
use sweep::spec::{FailureSpec, WorkloadSpec};
use sweep::{
    run_cells, run_cells_instrumented, to_jsonl, CellCache, CellStore, DocKind, RunSinks, Shard,
};

/// Sixteen small cells: two workloads, with and without a cable cut, two
/// seeds, OPS and REPS.
pub fn grid(name: &str) -> ScenarioMatrix {
    ScenarioMatrix::new(name)
        .workloads([
            WorkloadSpec::Tornado { bytes: 24 << 10 },
            WorkloadSpec::Permutation { bytes: 24 << 10 },
        ])
        .failures([
            FailureSpec::None,
            FailureSpec::OneCable {
                at: netsim::time::Time::from_us(5),
                duration: None,
            },
        ])
        .seeds(2)
}

pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("reps-sidecar-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Every document in `dir`, keyed by file name.
pub fn dir_contents(dir: &Path) -> BTreeMap<String, String> {
    let entries = std::fs::read_dir(dir).expect("sidecar dir exists");
    (entries.map(|e| e.expect("readable entry").path()))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable doc"))
        })
        .collect()
}

pub fn sinks<'a>(cache: Option<&'a CellCache>, sidecars: &'a [CellStore]) -> RunSinks<'a> {
    RunSinks {
        cache,
        sidecars,
        ..RunSinks::default()
    }
}

/// Each document in `store` is addressed by its cell's derived seed and
/// embeds the cell's key.
pub fn assert_addressed_by_derived_seed(store: &CellStore, cells: &[Cell]) {
    let kind = store.kind();
    for cell in cells {
        assert!(store.has(cell), "{} lacks its document", cell.key());
        let path = store.path(cell.derived_seed());
        assert_eq!(
            path.file_name().unwrap().to_string_lossy(),
            format!("{:016x}.{}.jsonl", cell.derived_seed(), kind.label())
        );
        let doc = std::fs::read_to_string(&path).unwrap();
        let header = doc.lines().next().unwrap();
        let v = harness::json::Value::parse(header).expect("header parses");
        assert_eq!(v.get("key").unwrap().as_str(), Some(cell.key().as_str()));
    }
}

pub fn assert_dir_identical_across_threads_and_shards(kind: DocKind) {
    let cells = grid("sidecar-it").expand();
    let base = tmpdir(&format!("determinism-{}", kind.label()));
    let open = |tag: &str| [CellStore::create(base.join(tag), kind).unwrap()];

    // Unsharded reference at 1 thread.
    let store = open("ref");
    let one = run_cells_instrumented(&cells, 1, sinks(None, &store));
    assert_eq!(one.sidecar_errors, [0]);
    let reference = dir_contents(store[0].dir());
    assert_eq!(reference.len(), cells.len(), "one document per cell");
    assert_addressed_by_derived_seed(&store[0], &cells);
    // Failure cells must actually have recorded the failure.
    if kind == DocKind::Trace {
        for cell in &cells {
            let doc = &reference[&format!("{:016x}.trace.jsonl", cell.derived_seed())];
            assert_eq!(
                doc.contains("\"kind\":\"link_down\""),
                !matches!(cell.failures, FailureSpec::None),
                "{}",
                cell.key()
            );
        }
    }

    // More threads: same directory contents, byte for byte.
    let store = open("par");
    let par = run_cells_instrumented(&cells, 4, sinks(None, &store));
    assert_eq!(dir_contents(store[0].dir()), reference);

    // Results are byte-identical with the sidecar on or off.
    let plain = to_jsonl(&run_cells(&cells, 2));
    assert_eq!(to_jsonl(&one.results), plain);
    assert_eq!(to_jsonl(&par.results), plain);

    // Two shards writing into one directory reproduce it exactly.
    let store = open("sharded");
    let mut owned_total = 0;
    for index in 1..=2 {
        let shard = Shard { index, count: 2 };
        let owned = shard.select(cells.clone());
        owned_total += owned.len();
        let run = run_cells_instrumented(&owned, 2, sinks(None, &store));
        assert_eq!(run.sidecar_errors, [0]);
    }
    assert_eq!(owned_total, cells.len());
    assert_eq!(dir_contents(store[0].dir()), reference);

    let _ = std::fs::remove_dir_all(&base);
}

/// Runs `cells` once through a fresh cache at `dir` with no sidecars and
/// returns the cache with the result bytes it now answers with.
pub fn warm_cache(dir: &Path, cells: &[Cell]) -> (CellCache, String) {
    let cache = CellCache::open(dir, "sidecar-test").unwrap();
    let cold = run_cells_instrumented(cells, 2, sinks(Some(&cache), &[]));
    assert_eq!((cold.hits, cold.misses), (0, cells.len()));
    let bytes = to_jsonl(&cold.results);
    (cache, bytes)
}

/// Over a cache warmed by [`warm_cache`], asking for a `kind` sidecar
/// executes every cell until each holds its whole document.
pub fn assert_cache_hits_require_sidecar_documents(
    kind: DocKind,
    cells: &[Cell],
    cache: &CellCache,
    cold: &str,
    dir: &Path,
) {
    // The warm cache must NOT satisfy the run, because no documents exist
    // yet.
    let store = [CellStore::create(dir, kind).unwrap()];
    let with_sidecar = sinks(Some(cache), &store);
    let fill = run_cells_instrumented(cells, 2, with_sidecar);
    assert_eq!(
        (fill.hits, fill.misses),
        (0, cells.len()),
        "missing {kind:?} documents must force execution"
    );
    assert_eq!(dir_contents(dir).len(), cells.len());
    assert_eq!(to_jsonl(&fill.results), cold);

    // With both cache and sidecar warm, nothing executes and the bytes and
    // documents are unchanged.
    let before = dir_contents(dir);
    let warm = run_cells_instrumented(cells, 2, with_sidecar);
    assert_eq!((warm.hits, warm.misses), (cells.len(), 0));
    assert!(warm.executed.is_empty());
    assert_eq!(to_jsonl(&warm.results), cold);
    assert_eq!(dir_contents(dir), before);

    // A single deleted document re-runs exactly that cell.
    std::fs::remove_file(store[0].path(cells[3].derived_seed())).unwrap();
    let partial = run_cells_instrumented(cells, 2, with_sidecar);
    assert_eq!((partial.hits, partial.misses), (cells.len() - 1, 1));
    assert_eq!(dir_contents(dir), before, "document restored");

    // So does a document cut back to its header line.
    let victim = &cells[6];
    let path = store[0].path(victim.derived_seed());
    let doc = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &doc[..=doc.find('\n').unwrap()]).unwrap();
    let cut = run_cells_instrumented(cells, 2, with_sidecar);
    assert_eq!((cut.hits, cut.misses), (cells.len() - 1, 1), "{kind:?} cut");
    assert_eq!(cut.executed_results().next().unwrap().key, victim.key());
    assert_eq!(to_jsonl(&cut.results), cold);
    assert_eq!(dir_contents(dir), before, "document restored");
}
