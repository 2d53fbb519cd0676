//! Content-addressed per-cell result cache for incremental sweeps
//! (`repsbench run --cache DIR`).
//!
//! Cells are pure functions of their keys (the derived RNG seed is the
//! key's FNV-1a hash), so a cell's result can be reused for as long as the
//! simulator code is unchanged. The cache is the [`DocKind::Result`] kind
//! of the per-cell document store ([`crate::store`]): one canonical JSONL
//! record per cell at
//!
//! ```text
//! DIR/<fingerprint>/<derived_seed as 16 hex digits>.json
//! ```
//!
//! where `<fingerprint>` is the compiled-in code version
//! ([`build_fingerprint`], `git describe` at build time) — a new commit
//! lands in a fresh namespace, so results from older commits are never
//! replayed. Granularity is the commit: successive *uncommitted* edits
//! share one `...-dirty` namespace, so wipe the cache directory (or
//! commit) when iterating on uncommitted simulator changes. A lookup is
//! the store's probe (a foreign, colliding or torn entry is a miss) plus
//! decoding the record from the line the probe parsed.
//!
//! Hits are byte-identical to fresh runs: the stored bytes are the
//! canonical record, and [`crate::sink::parse_record`] /
//! [`crate::sink::jsonl_record`] are exact inverses (pinned by tests).
//!
//! Probes and stores run on the sweep's workers: each looks its cell up
//! and, on a miss, runs it and stores the result and its sidecar documents
//! as soon as it finishes. A sweep cut short by a panicking cell keeps
//! every cell finished before it.

use std::io;
use std::path::Path;

use crate::matrix::{Cell, CellResult};
use crate::progress::Progress;
use crate::runner::run_indexed;
use crate::sink::{decode_record, jsonl_record};
use crate::store::{CellStore, DocKind};

/// The compiled-in code-version fingerprint (`git describe --always
/// --dirty` at build time; `pkg-<version>` when building without git).
pub fn build_fingerprint() -> &'static str {
    env!("REPS_BUILD_FINGERPRINT")
}

/// An open (created) cache namespace: one directory per code version,
/// holding [`DocKind::Result`] documents.
#[derive(Debug, Clone)]
pub struct CellCache {
    store: CellStore,
}

impl CellCache {
    /// Opens `dir` under namespace `fingerprint` (the CLI passes
    /// [`build_fingerprint`]), creating it if needed.
    pub fn open(dir: impl AsRef<Path>, fingerprint: &str) -> io::Result<CellCache> {
        let store = CellStore::create(dir.as_ref().join(fingerprint), DocKind::Result)?;
        Ok(CellCache { store })
    }

    /// The namespace directory entries live in.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Looks `cell` up; `None` on a miss ([`CellStore::probe`]) or an
    /// undecodable record — never an error, a miss just re-runs the cell.
    pub fn lookup(&self, cell: &Cell) -> Option<CellResult> {
        self.store.probe(cell, |v| decode_record(v).ok())
    }

    /// Stores one result as its canonical record ([`CellStore::store`]).
    pub fn store(&self, result: &CellResult) -> io::Result<()> {
        self.store
            .store(result.derived_seed, &(jsonl_record(result) + "\n"))
    }
}

/// The outcome of a cached sweep run.
#[derive(Debug)]
pub struct CachedRun {
    /// All results (cache hits + fresh runs), sorted by cell key — the
    /// same canonical order `run_cells` returns.
    pub results: Vec<CellResult>,
    /// Indices into `results` of the freshly executed cells (ascending):
    /// the cells whose perf counters are real. Cache hits carry
    /// `events == wall_ns == 0`.
    pub executed: Vec<usize>,
    /// Cells answered from the cache.
    pub hits: usize,
    /// Cells that had to run.
    pub misses: usize,
    /// Fresh results that could not be written back to the cache (the
    /// sweep's results are unaffected — stores are best-effort so a full
    /// disk can never discard hours of simulation).
    pub store_errors: usize,
    /// Per entry of [`RunSinks::sidecars`], the documents that could not be
    /// written (best-effort, like cache stores).
    pub sidecar_errors: Vec<usize>,
}

impl CachedRun {
    /// The freshly executed results, in key order.
    pub fn executed_results(&self) -> impl Iterator<Item = &CellResult> {
        self.executed.iter().map(move |&i| &self.results[i])
    }
}

/// Runs `cells` on `threads` workers, answering from `cache` where
/// possible and storing every fresh result back (best-effort — store
/// failures are counted, not fatal). With `cache == None` this is exactly
/// [`crate::runner::run_cells`].
pub fn run_cells_cached(cells: &[Cell], threads: usize, cache: Option<&CellCache>) -> CachedRun {
    run_cells_instrumented(
        cells,
        threads,
        RunSinks {
            cache,
            ..RunSinks::default()
        },
    )
}

/// Everything a `repsbench run` invocation can attach to a sweep: the
/// cell cache, the opt-in sidecar stores, the diagnostics flag and a
/// progress reporter.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunSinks<'a> {
    /// Result cache (`--cache DIR`).
    pub cache: Option<&'a CellCache>,
    /// Sidecar stores, one per requested kind: [`DocKind::Series`]
    /// (`--series DIR`) and [`DocKind::Trace`] (`--trace DIR`).
    pub sidecars: &'a [CellStore],
    /// Collect per-LB decision counters into the summaries
    /// (`--diagnostics`; changes the result JSONL bytes, so it also
    /// partitions cache hits — see [`run_cells_instrumented`]).
    pub diagnostics: bool,
    /// Live progress reporter (ticked per finished cell).
    pub progress: Option<&'a Progress>,
}

/// [`run_cells_cached`] with the full sink set ([`RunSinks`]): executed
/// cells additionally write one document per sidecar store (best-effort,
/// counted in [`CachedRun::sidecar_errors`]) and collect diagnostics when
/// asked.
///
/// The sidecars *gate* cache hits: a cached result only stands in for an
/// execution when every sidecar store already holds the cell's whole
/// document ([`CellStore::has`]), and when its recorded diagnostics
/// presence matches the request — a diagnostics run must not replay
/// diagnostics-free bytes, and vice versa. Results are byte-identical to
/// an uninstrumented run except for the opt-in diagnostics block.
pub fn run_cells_instrumented(cells: &[Cell], threads: usize, sinks: RunSinks<'_>) -> CachedRun {
    let kinds: Vec<DocKind> = sinks.sidecars.iter().map(CellStore::kind).collect();
    // Lookup-or-run on the workers; `None` marks a hit, `Some` an
    // execution with whether each sidecar write, then the cache store,
    // succeeded.
    let mut outcomes: Vec<(CellResult, Option<Vec<bool>>)> = run_indexed(cells, threads, |cell| {
        let hit = sinks
            .cache
            .and_then(|c| c.lookup(cell))
            .filter(|r| r.summary.diagnostics.is_some() == sinks.diagnostics)
            .filter(|_| sinks.sidecars.iter().all(|s| s.has(cell)));
        if let Some(r) = hit {
            if let Some(p) = sinks.progress {
                p.tick_hit();
            }
            return (r, None);
        }
        let out = cell.run_instrumented(&kinds, sinks.diagnostics);
        let seed = out.result.derived_seed;
        let mut ok: Vec<bool> = (sinks.sidecars.iter())
            .map(|s| out.doc(s.kind()).is_none_or(|d| s.store(seed, d).is_ok()))
            .collect();
        ok.push(sinks.cache.is_none_or(|c| c.store(&out.result).is_ok()));
        if let Some(p) = sinks.progress {
            p.tick_executed(out.result.events);
        }
        (out.result, Some(ok))
    });
    outcomes.sort_by(|a, b| a.0.key.cmp(&b.0.key));
    let failed = |i: usize| {
        (outcomes.iter())
            .filter(|(_, ok)| ok.as_ref().is_some_and(|ok| !ok[i]))
            .count()
    };
    let executed: Vec<usize> = (0..outcomes.len())
        .filter(|&i| outcomes[i].1.is_some())
        .collect();
    let n = sinks.sidecars.len();
    CachedRun {
        hits: outcomes.len() - executed.len(),
        misses: executed.len(),
        sidecar_errors: (0..n).map(failed).collect(),
        store_errors: failed(n),
        results: outcomes.into_iter().map(|(r, _)| r).collect(),
        executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use crate::matrix::ScenarioMatrix;
    use crate::runner::run_cells;
    use crate::sink::to_jsonl;
    use crate::spec::WorkloadSpec;

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::new("cache-test")
            .workloads([WorkloadSpec::Tornado { bytes: 32 << 10 }])
            .seeds(3)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("reps-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn warm_cache_executes_nothing_and_is_byte_identical() {
        let dir = tmpdir("warm");
        let cells = matrix().expand();
        let cache = CellCache::open(&dir, "v-test").unwrap();
        let cold = run_cells_cached(&cells, 2, Some(&cache));
        assert_eq!((cold.hits, cold.misses), (0, cells.len()));
        assert_eq!(cold.store_errors, 0);
        assert_eq!(cold.executed_results().count(), cells.len());
        let warm = run_cells_cached(&cells, 2, Some(&cache));
        assert_eq!((warm.hits, warm.misses), (cells.len(), 0));
        assert!(warm.executed.is_empty());
        assert_eq!(to_jsonl(&warm.results), to_jsonl(&cold.results));
        assert_eq!(
            to_jsonl(&warm.results),
            to_jsonl(&run_cells(&cells, 2)),
            "cache hits must be byte-identical to a fresh run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sub_microsecond_deadlines_are_cells_of_their_own() {
        let grid = |deadline: &str| {
            let text = format!("[dl]\nlb = OPS\ndeadline = {deadline}\n");
            crate::specfile::parse(&text).expect(&text)[0].expand()
        };
        let keys: std::collections::BTreeSet<String> =
            ["1us", "1500ns", "1900ns"].map(|d| grid(d)[0].key()).into();
        assert_eq!(keys.len(), 3, "{keys:?}");
        let dir = tmpdir("deadline");
        let cache = CellCache::open(&dir, "v-test").unwrap();
        run_cells_cached(&grid("1us"), 1, Some(&cache));
        let warm = run_cells_cached(&grid("1500ns"), 1, Some(&cache));
        assert_eq!((warm.hits, warm.misses), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_change_invalidates_everything() {
        let dir = tmpdir("fp");
        let cells = matrix().expand();
        let v1 = CellCache::open(&dir, "v1").unwrap();
        run_cells_cached(&cells, 2, Some(&v1));
        let v2 = CellCache::open(&dir, "v2").unwrap();
        let run = run_cells_cached(&cells, 2, Some(&v2));
        assert_eq!((run.hits, run.misses), (0, cells.len()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_and_corruption_degrade_to_misses() {
        let dir = tmpdir("corrupt");
        let cells = matrix().seeds(4).expand();
        let cache = CellCache::open(&dir, "v").unwrap();
        run_cells_cached(&cells, 2, Some(&cache));
        // Corrupt one entry, swap another cell's entry into a wrong slot,
        // and nest a third past any parser's stack (it must read as a
        // miss, not abort the sweep).
        let a = cells[0].derived_seed();
        let b = cells[1].derived_seed();
        let deep = cells[3].derived_seed();
        std::fs::write(cache.dir().join(format!("{a:016x}.json")), "garbage").unwrap();
        let nested = "[".repeat(1_000_000);
        std::fs::write(cache.dir().join(format!("{deep:016x}.json")), nested).unwrap();
        let b_bytes = std::fs::read(cache.dir().join(format!("{b:016x}.json"))).unwrap();
        std::fs::write(
            cache
                .dir()
                .join(format!("{:016x}.json", cells[2].derived_seed())),
            b_bytes,
        )
        .unwrap();
        let run = run_cells_cached(&cells, 2, Some(&cache));
        assert_eq!((run.hits, run.misses), (cells.len() - 3, 3));
        // The damaged entries were repaired by the re-run.
        let again = run_cells_cached(&cells, 2, Some(&cache));
        assert_eq!((again.hits, again.misses), (cells.len(), 0));
        assert_eq!(to_jsonl(&run.results), to_jsonl(&again.results));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_failures_do_not_discard_results() {
        let dir = tmpdir("storefail");
        let cells = matrix().expand();
        let cache = CellCache::open(&dir, "v").unwrap();
        // Sabotage the namespace: replace the directory with a plain file
        // so every store (and lookup) fails.
        std::fs::remove_dir_all(cache.dir()).unwrap();
        std::fs::write(cache.dir(), b"not a directory").unwrap();
        let run = run_cells_cached(&cells, 2, Some(&cache));
        assert_eq!(run.store_errors, cells.len(), "stores must fail");
        assert_eq!((run.hits, run.misses), (0, cells.len()));
        assert_eq!(
            to_jsonl(&run.results),
            to_jsonl(&run_cells(&cells, 2)),
            "an unusable cache must not affect the sweep's results"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_fingerprint_is_nonempty_and_path_safe() {
        let fp = build_fingerprint();
        assert!(!fp.is_empty());
        assert!(
            fp.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')),
            "{fp:?}"
        );
    }
}
