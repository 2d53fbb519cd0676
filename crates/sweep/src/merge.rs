//! Union of sharded sweep outputs (`repsbench merge OUT IN...`).
//!
//! Each input is a result JSONL file produced by `repsbench run` (usually
//! one per `--shard i/n`). Merging validates that every line is a
//! *canonical* record (so the output stays inside the byte-determinism
//! contract), that no cell key appears twice (shards must be disjoint),
//! and re-sorts the union by cell key — producing bytes identical to the
//! unsharded run over the same cells. The parsed records ride along so the
//! caller can re-render the cross-seed aggregate tables.
//!
//! Lines stay slices of their inputs until output, each re-rendered into
//! one reused buffer for the canonical check. Duplicate keys are found
//! after one stable sort by key, as equal neighbours.

use crate::matrix::CellResult;
use crate::sink::{parse_record, push_record};

/// A validated, key-sorted union of shard outputs.
#[derive(Debug)]
pub struct MergedSweep {
    /// The merged JSONL (one trailing newline per line), sorted by cell
    /// key — byte-identical to an unsharded run over the same cells.
    jsonl: String,
    /// The parsed records, in the same order as the lines.
    pub results: Vec<CellResult>,
}

impl MergedSweep {
    /// The merged file contents (one trailing newline per line, matching
    /// `repsbench run --out`).
    pub fn to_jsonl(&self) -> String {
        self.jsonl.clone()
    }
}

/// One input line: its `(input, line index)`, its bytes and its record.
struct Line<'a> {
    at: (usize, usize),
    text: &'a str,
    record: CellResult,
}

/// Merges shard outputs given as `(input name, file contents)` pairs.
/// Input names only label error messages (file paths on the CLI).
///
/// Errors on: unparsable or non-canonical lines (a record whose bytes this
/// crate would not emit — e.g. hand-edited whitespace — would silently
/// break the byte-identity contract), and duplicate cell keys within or
/// across inputs (shards of one sweep are disjoint by construction, so a
/// duplicate means overlapping shard specs or a repeated input file).
pub fn merge_contents(inputs: &[(String, String)]) -> Result<MergedSweep, String> {
    let at = |(input, line): (usize, usize)| format!("{}:{}", inputs[input].0, line + 1);
    let mut lines: Vec<Line<'_>> = Vec::new();
    let mut canonical = String::new();
    for (input, (_, content)) in inputs.iter().enumerate() {
        for (lineno, text) in content.lines().enumerate() {
            let here = (input, lineno);
            if text.is_empty() {
                return Err(format!("{}: blank line in result JSONL", at(here)));
            }
            let record = parse_record(text).map_err(|e| format!("{}: {e}", at(here)))?;
            canonical.clear();
            canonical = push_record(canonical, &record);
            if canonical != text {
                return Err(format!(
                    "{}: non-canonical record for cell {:?} (re-rendering changes bytes; \
                     was this file edited outside repsbench?)",
                    at(here),
                    record.key
                ));
            }
            lines.push(Line {
                at: here,
                text,
                record,
            });
        }
    }
    // Stable: of two equal keys the earlier input line stays first.
    lines.sort_by(|a, b| a.record.key.cmp(&b.record.key));
    if let Some(w) = lines
        .windows(2)
        .find(|w| w[0].record.key == w[1].record.key)
    {
        return Err(format!(
            "{}: duplicate cell key {:?} (first seen at {}); shards must be disjoint",
            at(w[1].at),
            w[1].record.key,
            at(w[0].at)
        ));
    }
    let mut jsonl = String::with_capacity(lines.iter().map(|l| l.text.len() + 1).sum());
    let mut results = Vec::with_capacity(lines.len());
    for line in lines {
        jsonl.push_str(line.text);
        jsonl.push('\n');
        results.push(line.record);
    }
    Ok(MergedSweep { jsonl, results })
}

/// Reads and merges shard files from disk.
pub fn merge_files(paths: &[String]) -> Result<MergedSweep, String> {
    let mut inputs = Vec::with_capacity(paths.len());
    for p in paths {
        let content = std::fs::read_to_string(p).map_err(|e| format!("reading shard {p}: {e}"))?;
        inputs.push((p.clone(), content));
    }
    merge_contents(&inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;
    use crate::runner::run_cells;
    use crate::sink::to_jsonl;
    use crate::spec::WorkloadSpec;

    fn sweep_jsonl(seeds: u32) -> String {
        let m = ScenarioMatrix::new("merge-test")
            .workloads([WorkloadSpec::Tornado { bytes: 32 << 10 }])
            .seeds(seeds);
        to_jsonl(&run_cells(&m.expand(), 2))
    }

    #[test]
    fn merge_of_split_halves_restores_the_original_bytes() {
        let full = sweep_jsonl(4);
        let lines: Vec<&str> = full.lines().collect();
        // Interleave lines into two "shards" in scrambled order.
        let shard = |parity: usize| -> String {
            let mut picked: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, l)| *l)
                .collect();
            picked.reverse(); // merge must not rely on input order
            picked.join("\n") + "\n"
        };
        let merged = merge_contents(&[
            ("a.jsonl".to_string(), shard(1)),
            ("b.jsonl".to_string(), shard(0)),
        ])
        .expect("valid shards merge");
        assert_eq!(merged.to_jsonl(), full);
        assert_eq!(merged.results.len(), lines.len());
        assert!(merged.results.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn duplicate_keys_are_rejected_with_both_locations() {
        let full = sweep_jsonl(1);
        let err = merge_contents(&[
            ("x.jsonl".to_string(), full.clone()),
            ("y.jsonl".to_string(), full),
        ])
        .expect_err("overlap must be rejected");
        assert!(err.contains("duplicate cell key"), "{err}");
        assert!(
            err.contains("x.jsonl:1") && err.contains("y.jsonl:1"),
            "{err}"
        );
    }

    #[test]
    fn non_canonical_and_malformed_lines_are_rejected() {
        let full = sweep_jsonl(1);
        let line = full.lines().next().unwrap();
        // Same JSON, different bytes: added whitespace.
        let padded = line.replace("\":", "\": ");
        let err = merge_contents(&[("p.jsonl".to_string(), format!("{padded}\n"))])
            .expect_err("non-canonical bytes rejected");
        assert!(err.contains("non-canonical"), "{err}");
        let err = merge_contents(&[("g.jsonl".to_string(), "garbage\n".to_string())])
            .expect_err("garbage rejected");
        assert!(err.contains("g.jsonl:1"), "{err}");
        let deep = format!("{}\n", "[".repeat(1_000_000));
        let err = merge_contents(&[("d.jsonl".to_string(), deep)]).expect_err("deep rejected");
        assert!(
            err.starts_with("d.jsonl:1: ") && err.contains("nesting"),
            "{err}"
        );
        let err = merge_contents(&[("b.jsonl".to_string(), format!("{line}\n\n{line}\n"))])
            .expect_err("blank line rejected");
        assert!(err.contains("blank line"), "{err}");
    }
}
