//! The six pinned workloads, their grid templates and the seed-0 reference
//! files under `expected/`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::json::Value;

/// How a workload's timed pass uses the cell cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheUse {
    /// No `--cache` flag at all.
    Off,
    /// `--cache` into an empty directory: every lookup misses, every result
    /// is stored.
    Cold,
    /// `run --shard 1/2`, `run --shard 2/2`, `merge` over a cache populated
    /// during set-up: every lookup hits, nothing executes.
    Warm,
}

/// One pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Grid template under `workloads/`, with `{S0}`/`{S1}`/`{S2}` seeds.
    pub grid: &'static str,
    /// `--threads` of the timed pass (capped at the host's parallelism).
    pub threads: usize,
    pub cache: CacheUse,
    /// Why the workload exists; `BENCHMARK.json` and the README repeat it.
    pub why: &'static str,
}

/// The workloads in the order a full run executes them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "suite_cold",
        grid: "suite.grid",
        threads: 2,
        cache: CacheUse::Cold,
        why: "whole quick suite (330 cells), 2 threads, cold cache: every layer in the proportion a user pays",
    },
    Workload {
        name: "suite_warm",
        grid: "suite.grid",
        threads: 1,
        cache: CacheUse::Warm,
        why: "same grid over a populated cache, sharded and merged: sweep does all the work, netsim none",
    },
    Workload {
        name: "perm_healthy",
        grid: "perm_healthy.grid",
        threads: 1,
        cache: CacheUse::Off,
        why: "32-host permutation, ECMP/OPS/REPS, no faults: the packet hot path with no recovery work",
    },
    Workload {
        name: "perm_failures",
        grid: "perm_failures.grid",
        threads: 1,
        cache: CacheUse::Off,
        why: "same fabric under cable cuts and gray loss: RTO, retransmit, failover and REPS freezing paths",
    },
    Workload {
        name: "scale10k_pkt",
        grid: "scale10k_pkt.grid",
        threads: 1,
        cache: CacheUse::Off,
        why: "one all-packet 10240-host cell: huge calendar hold and batches, peak memory, fabric build",
    },
    Workload {
        name: "hybrid_churn",
        grid: "hybrid_churn.grid",
        threads: 1,
        cache: CacheUse::Off,
        why: "10240-host hybrid cells under background flow churn: the fluid solver is nearly all of the wall",
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The benchmark's own directory: where it was built from.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where `repsbench` is when nobody says otherwise: the root workspace's
/// release build.
pub fn default_repsbench() -> PathBuf {
    bench_dir().join("../target/release/repsbench")
}

/// The report file runs append to unless `--out` says otherwise.
pub fn default_report() -> PathBuf {
    bench_dir().join("out/report.jsonl")
}

/// One line about a missing program binary.
pub fn require_repsbench(path: &Path) -> Result<(), String> {
    if path.is_file() {
        Ok(())
    } else {
        Err(format!(
            "repsbench binary not found at {} — build it with `cargo build --release -p sweep --bin repsbench` or pass --repsbench PATH",
            path.display()
        ))
    }
}

/// Owned copies of CLI arguments.
pub fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

/// `repsbench run` on a rendered grid: the arguments every pass shares,
/// followed by `extra`.
pub fn run_args(grid: &Path, threads: usize, extra: &[&str]) -> Vec<String> {
    let mut a = strings(&["run", "--spec-only", "--spec-file"]);
    a.push(grid.to_string_lossy().into_owned());
    a.extend(strings(&["--threads", &threads.to_string()]));
    a.extend(strings(extra));
    a
}

/// `repsbench list` of a rendered grid.
pub fn list_args(grid: &Path) -> Vec<String> {
    let mut a = strings(&["list", "--spec-only", "--spec-file"]);
    a.push(grid.to_string_lossy().into_owned());
    a
}

/// Renders a grid template for `seed`: `{S0}`, `{S1}`, `{S2}` become
/// `seed`, `seed + 1`, `seed + 2`. This is everything `--seed` changes.
pub fn render_grid(template: &str, seed: u32) -> String {
    template
        .replace("{S0}", &seed.to_string())
        .replace("{S1}", &(seed.wrapping_add(1)).to_string())
        .replace("{S2}", &(seed.wrapping_add(2)).to_string())
}

impl Workload {
    /// Reads this workload's template and renders it for `seed`.
    pub fn rendered_grid(&self, seed: u32) -> Result<String, String> {
        let path = bench_dir().join("workloads").join(self.grid);
        let template = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Ok(render_grid(&template, seed))
    }

    /// `--threads` for the timed pass on this host.
    pub fn threads_here(&self) -> usize {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.threads.min(host)
    }
}

/// FNV-1a 64 over raw bytes: the digest of a workload's result JSONL, so
/// "simulated statistics identical across two commits" is one string compare.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest as it is written in reports and `expected/digests.tsv`.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// The simulated events of one line of the CLI's `--perf` stream, read by
/// field name.
pub fn parse_perf_line(line: &str) -> Result<u64, String> {
    Value::parse(line)?
        .get("events")
        .and_then(Value::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| "perf record lacks numeric \"events\"".to_string())
}

/// Total simulated events of a `--perf` file.
pub fn perf_events(text: &str) -> Result<u64, String> {
    text.lines().map(parse_perf_line).sum()
}

/// One result record, as far as the output checks look into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record<'a> {
    pub key: String,
    pub completed: bool,
    pub line: &'a str,
}

/// Splits result JSONL into records; a line that is not a record is an error.
pub fn parse_records(jsonl: &str) -> Result<Vec<Record<'_>>, String> {
    jsonl
        .lines()
        .map(|line| {
            let v = Value::parse(line)?;
            let key = v
                .get("key")
                .and_then(Value::as_str)
                .ok_or("record lacks a string \"key\"")?
                .to_string();
            let completed = v
                .get("summary")
                .and_then(|s| s.get("completed"))
                .and_then(Value::as_bool)
                .ok_or("record lacks summary.completed")?;
            Ok(Record {
                key,
                completed,
                line,
            })
        })
        .collect()
}

/// Reads a two-column `workload<TAB>value` file under `expected/` and returns
/// the values of `workload`'s rows. `#` lines are comments.
fn expected_rows(file: &str, workload: &str) -> Result<Vec<String>, String> {
    let path = bench_dir().join("expected").join(file);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .filter(|(w, _)| *w == workload)
        .map(|(_, v)| v.to_string())
        .collect())
}

/// The seed-0 digest pinned for `workload`, if any.
pub fn expected_digest(workload: &str) -> Result<Option<String>, String> {
    Ok(expected_rows("digests.tsv", workload)?.into_iter().next())
}

/// The seed-0 cell keys that must finish before their deadline.
pub fn expected_completed(workload: &str) -> Result<BTreeSet<String>, String> {
    Ok(expected_rows("completed.tsv", workload)?
        .into_iter()
        .collect())
}

/// Keys of the seed-0 cells that fail an output check against the
/// references: a record expected `completed` that is missing or hit its
/// deadline, and every record of a golden-pinned preset whose bytes differ
/// from `crates/sweep/tests/golden/<preset>.quick.jsonl` (read in place, so a
/// change that legitimately moves results updates one reference, not two).
/// `goldens` is false for the workloads that are not the preset suite.
pub fn reference_failures(
    workload: &str,
    records: &[Record<'_>],
    goldens: bool,
    golden_dir: &Path,
) -> Result<BTreeSet<String>, String> {
    let mut failed = BTreeSet::new();
    for key in expected_completed(workload)? {
        if !records.iter().any(|r| r.key == key && r.completed) {
            failed.insert(key);
        }
    }
    if !goldens {
        return Ok(failed);
    }
    let entries = std::fs::read_dir(golden_dir)
        .map_err(|e| format!("reading {}: {e}", golden_dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(preset) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".quick.jsonl"))
        else {
            continue;
        };
        let golden = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let prefix = format!("{preset}/");
        let ours: Vec<&Record<'_>> = records
            .iter()
            .filter(|r| r.key.starts_with(&prefix))
            .collect();
        let theirs: Vec<&str> = golden.lines().collect();
        if ours.len() != theirs.len() {
            failed.extend(ours.iter().map(|r| r.key.clone()));
            failed.insert(format!("{preset}/<record count>"));
            continue;
        }
        for (r, g) in ours.iter().zip(&theirs) {
            if r.line != *g {
                failed.insert(r.key.clone());
            }
        }
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_seven_renders_seven_eight_nine() {
        let g = render_grid("seed = {S0}, {S1}, {S2}\nseed = {S0}\n", 7);
        assert_eq!(g, "seed = 7, 8, 9\nseed = 7\n");
        assert_eq!(render_grid("lb = OPS{evs=64}\n", 7), "lb = OPS{evs=64}\n");
    }

    #[test]
    fn every_workload_template_exists_and_carries_a_seed_placeholder() {
        for w in &WORKLOADS {
            let zero = w.rendered_grid(0).expect(w.name);
            let seven = w.rendered_grid(7).expect(w.name);
            assert_ne!(zero, seven, "{}: --seed changes nothing", w.name);
            assert!(!seven.contains("{S"), "{}: unrendered placeholder", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn perf_lines_are_read_by_field_name() {
        let line = r#"{"key":"k","events":65600,"wall_ns":7175426,"events_per_sec":9142314.3,"batches":11772,"avg_batch":5.57,"max_batch":64,"chained_services":26091}"#;
        assert_eq!(parse_perf_line(line), Ok(65600));
        assert_eq!(perf_events(&format!("{line}\n{line}\n")), Ok(131200));
        assert!(parse_perf_line(r#"{"key":"k","wall_ns":1}"#).is_err());
        assert!(parse_perf_line("not json").is_err());
    }

    #[test]
    fn records_expose_key_and_completion() {
        let jsonl = "{\"key\":\"a/s=0\",\"summary\":{\"completed\":true}}\n{\"key\":\"b/s=0\",\"summary\":{\"completed\":false}}\n";
        let r = parse_records(jsonl).expect("two records");
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].key.as_str(), r[0].completed), ("a/s=0", true));
        assert_eq!((r[1].key.as_str(), r[1].completed), ("b/s=0", false));
        assert!(parse_records("{\"key\":\"a\"}\n").is_err());
    }

    #[test]
    fn digest_is_fnv1a64() {
        assert_eq!(digest_hex(b""), "cbf29ce484222325");
        assert_eq!(digest_hex(b"a"), "af63dc4c8601ec8c");
    }
}
