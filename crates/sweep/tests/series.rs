//! `--series` composition contract: per-cell series documents are pure
//! functions of cell keys, so the series directory is identical across
//! thread counts and shard splits, results stay byte-identical with the
//! sidecar on or off, and the cache only answers a cell when its whole
//! series document exists. The checks are shared with `tests/trace.rs`
//! in `common`.

mod common;

use sweep::{run_cells_instrumented, CellStore, DocKind};

#[test]
fn series_dir_is_identical_across_threads_and_shards() {
    common::assert_dir_identical_across_threads_and_shards(DocKind::Series);
}

#[test]
fn cache_hits_require_an_existing_series_document() {
    let cells = common::grid("series-it").expand();
    let base = common::tmpdir("series-cache");
    let (cache, cold) = common::warm_cache(&base.join("cache"), &cells);
    common::assert_cache_hits_require_sidecar_documents(
        DocKind::Series,
        &cells,
        &cache,
        &cold,
        &base.join("series"),
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn documents_are_addressed_by_derived_seed() {
    let cells = common::grid("series-it").expand();
    let dir = common::tmpdir("series-addressing");
    let store = [CellStore::create(&dir, DocKind::Series).unwrap()];
    let run = run_cells_instrumented(&cells, 2, common::sinks(None, &store));
    assert_eq!(run.sidecar_errors, [0]);
    common::assert_addressed_by_derived_seed(&store[0], &cells);
    let _ = std::fs::remove_dir_all(&dir);
}
