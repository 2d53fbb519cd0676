//! One per-cell document store: the result cache (`--cache DIR`), the
//! series sidecar (`--series DIR`) and the trace sidecar (`--trace DIR`)
//! are three [`DocKind`]s of one [`CellStore`].
//!
//! Each cell owns one file per kind, addressed by its derived seed (the
//! FNV-1a hash of its key):
//!
//! ```text
//! Result  DIR/<fingerprint>/<derived_seed as 16 hex digits>.json
//! Series  DIR/<derived_seed as 16 hex digits>.series.jsonl
//! Trace   DIR/<derived_seed as 16 hex digits>.trace.jsonl
//! ```
//!
//! A document is JSON Lines: a header line that embeds the cell key, then
//! as many body lines as the header declares — none for a result record,
//! `links` for a series document, `events` for a trace.
//! [`CellStore::store`] writes atomically (temp file, then `rename`), so
//! shards writing into one directory produce the tree an unsharded run
//! would. [`CellStore::probe`] parses the header once and checks the
//! embedded key (a foreign file or a hash collision is a miss) and the
//! declared line count (a document cut anywhere before its last newline is
//! a miss); the re-run cell's store then repairs the file. A bit flip
//! inside a whole document is not detected.

use std::io;
use std::path::{Path, PathBuf};

use harness::json::Value;

use crate::matrix::{fnv1a64, Cell};

/// The kind of document a [`CellStore`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocKind {
    /// The canonical result record ([`crate::cache`]).
    Result,
    /// The per-link time-series document ([`crate::series`]).
    Series,
    /// The flight-recorder trace document ([`crate::trace`]).
    Trace,
}

impl DocKind {
    /// The kind's name in messages and file suffixes.
    pub fn label(self) -> &'static str {
        match self {
            DocKind::Result => "result",
            DocKind::Series => "series",
            DocKind::Trace => "trace",
        }
    }

    /// The number of body lines `header` declares.
    fn body_lines(self, header: &Value<'_>) -> Option<u64> {
        match self {
            DocKind::Result => Some(0),
            DocKind::Series => header.get("links")?.as_u64(),
            DocKind::Trace => header.get("events")?.as_u64(),
        }
    }
}

/// An open (created) directory of one kind of per-cell document.
#[derive(Debug, Clone)]
pub struct CellStore {
    dir: PathBuf,
    kind: DocKind,
}

impl CellStore {
    /// Opens `dir` for documents of `kind`, creating it if needed.
    pub fn create(dir: impl AsRef<Path>, kind: DocKind) -> io::Result<CellStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(CellStore { dir, kind })
    }

    /// The directory documents live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The kind of document this store holds.
    pub fn kind(&self) -> DocKind {
        self.kind
    }

    /// The document path for a cell with the given derived seed.
    pub fn path(&self, derived_seed: u64) -> PathBuf {
        let name = match self.kind {
            DocKind::Result => format!("{derived_seed:016x}.json"),
            kind => format!("{derived_seed:016x}.{}.jsonl", kind.label()),
        };
        self.dir.join(name)
    }

    /// Stores one document atomically: write to a temp file in the same
    /// directory, then rename.
    pub fn store(&self, derived_seed: u64, doc: &str) -> io::Result<()> {
        let path = self.path(derived_seed);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, doc)?;
        std::fs::rename(&tmp, &path)
    }

    /// Reads `cell`'s document and, when it is whole and this cell's (see
    /// the module docs), hands its parsed header line to `read`. `None` on
    /// any miss — never an error, a miss just re-runs the cell.
    pub fn probe<T>(&self, cell: &Cell, read: impl FnOnce(&Value<'_>) -> Option<T>) -> Option<T> {
        let key = cell.key();
        let doc = std::fs::read_to_string(self.path(fnv1a64(&key))).ok()?;
        let (header, body) = doc.split_once('\n')?;
        if !(body.is_empty() || body.ends_with('\n')) {
            return None;
        }
        let header = Value::parse(header).ok()?;
        let lines = body.bytes().filter(|&b| b == b'\n').count() as u64;
        if header.get("key")?.as_str()? != key || self.kind.body_lines(&header)? != lines {
            return None;
        }
        read(&header)
    }

    /// Whether `cell`'s whole document is here ([`CellStore::probe`]).
    pub fn has(&self, cell: &Cell) -> bool {
        self.probe(cell, |_| Some(())).is_some()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;
    use crate::spec::WorkloadSpec;

    /// The ownership contract every kind shares: a stored document is
    /// found, a cut or foreign one reads as absent. The series and trace
    /// modules run it for their kinds.
    pub(crate) fn assert_store_validates_ownership(kind: DocKind) {
        let c = ScenarioMatrix::new("store-unit")
            .workloads([WorkloadSpec::Tornado { bytes: 32 << 10 }])
            .expand()
            .remove(0);
        let seed = c.derived_seed();
        let sidecars: &[DocKind] = if kind == DocKind::Result {
            &[]
        } else {
            &[kind]
        };
        let out = c.run_instrumented(sidecars, false);
        let record = crate::sink::jsonl_record(&out.result) + "\n";
        let dir = std::env::temp_dir().join(format!(
            "reps-store-unit-{}-{}",
            kind.label(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CellStore::create(&dir, kind).unwrap();
        assert!(!store.has(&c), "empty {kind:?} store has nothing");
        let doc = out.doc(kind).unwrap_or(&record);
        store.store(seed, doc).unwrap();
        assert!(store.has(&c), "{kind:?}");
        assert_eq!(std::fs::read_to_string(store.path(seed)).unwrap(), doc);
        // A document cut after any line but its last is not whole.
        for (i, _) in doc.match_indices('\n').filter(|(i, _)| i + 1 < doc.len()) {
            store.store(seed, &doc[..=i]).unwrap();
            assert!(!store.has(&c), "{kind:?} cut after byte {i}");
        }
        // A foreign document under this cell's address reads as absent.
        store.store(seed, "{\"key\":\"someone-else\"}\n").unwrap();
        assert!(!store.has(&c));
        std::fs::write(store.path(seed), "not json").unwrap();
        assert!(!store.has(&c));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_store_validates_ownership() {
        assert_store_validates_ownership(DocKind::Result);
    }
}
