//! `repsbench` — run the REPS scenario-sweep suite from the command line.
//!
//! ```text
//! repsbench list [--scale quick|full] [--spec-file PATH]... [--spec-only]
//!                [--lbs]
//! repsbench run [--filter GLOB] [--lb SPEC|GLOB] [--fault SPEC|GLOB]
//!               [--fidelity SPEC|GLOB] [--threads N]
//!               [--scale quick|full] [--seeds N] [--shard I/N] [--cache DIR]
//!               [--spec-file PATH]... [--spec-only] [--series DIR]
//!               [--trace DIR] [--diagnostics]
//!               [--out PATH] [--perf PATH] [--baseline LABEL] [--quiet]
//! repsbench merge OUT IN... [--baseline LABEL] [--quiet]
//! repsbench explain FILE
//! ```
//!
//! `list` prints every preset with its cell count and the length of each
//! listed axis (`--lbs` additionally prints each preset's load-balancer
//! axis as canonical LB-spec strings); `run` expands the presets whose
//! names match `--filter` (default `*`), executes all cells on a
//! work-stealing pool and writes one JSON Lines record per cell to
//! `--out` (default `results.jsonl`; `-` = stdout), then prints
//! cross-seed aggregate tables. Output is byte-identical for any
//! `--threads` value. `--scale` defaults to the `REPS_SCALE` environment
//! variable (`quick`).
//!
//! # Filtering cells by axis (`--lb`, `--fault`, `--fidelity`)
//!
//! Each keeps only the cells whose label on that axis matches a glob. A
//! pattern that parses as a value of the axis is canonicalized first, so
//! every spelling of one configuration selects the same cells: `--lb
//! 'REPS{freeze=off}'` and `--lb REPS-nofreeze`, or `--fault
//! 'gray{p=0.01}'` and `--fault gray`. `--lb 'REPS*'` keeps every REPS
//! configuration; the defaults `--fault none` and `--fidelity pkt` keep
//! the cells whose keys lack an `ft=` or `fi=`. The grammars are tabled
//! in [`baselines::kind`], [`sweep::fault`] and [`sweep::fidelity`].
//!
//! # User-defined grids (`--spec-file`)
//!
//! New scenarios are a text file, not a code change: each `--spec-file`
//! adds the scenario matrices of a grid file (format and axes in
//! [`sweep::specfile`]) to the preset pool — they list, filter, shard,
//! cache and sink exactly like built-ins. A name collision with a built-in
//! preset (or between spec files) is an error, never a silent preference.
//!
//! ```text
//! repsbench run --spec-file examples/oversub.grid --filter '*-grid'
//! ```
//!
//! With `--spec-only` the built-in presets stay out of the pool entirely:
//! the run is exactly the grids given, and a grid may then deliberately
//! reuse a built-in preset name to reproduce its cells
//! (`examples/ablation.grid` does this for the ablation presets).
//!
//! # Per-cell sidecars (`--series DIR`, `--trace DIR`)
//!
//! Each executed cell also writes one document per requested sidecar,
//! addressed by its derived seed. `--series DIR` writes the
//! link-utilization buckets and queue-occupancy samples of the uplinks of
//! the cell's `track` ToR (ToR 0, the micro figures' vantage point, unless
//! the grid's `track` axis says otherwise) to
//! `DIR/<derived_seed hex>.series.jsonl`. `--trace DIR` writes the flight
//! recorder to `DIR/<derived_seed hex>.trace.jsonl`: per-hop path
//! choices, every load-balancer entropy decision with its provenance
//! (`fresh` / `recycled` / `frozen`), receiver reorder depths, retransmits
//! and RTO sweeps, freeze / thaw transitions, and link / switch failure
//! and recovery events. Documents are pure functions of cell keys —
//! byte-identical across `--threads` values and shard splits, written
//! atomically into one shared (or later-merged) directory — and the
//! byte-stable result stream is unchanged by either flag. With `--cache`,
//! a cached cell only skips execution when each requested sidecar already
//! holds its whole document. Schemas: [`sweep::series`], [`sweep::trace`];
//! the one store behind cache and sidecars: [`sweep::store`].
//!
//! # Observability: explain, diagnostics, progress
//!
//! Beside the trace, three opt-in layers explain *why* a cell scored the
//! way it did; all of them are off by default and cost nothing when off.
//!
//! **`repsbench explain FILE`** renders one trace document into a
//! human-readable report: EV reuse rate (recycled + frozen replays as a
//! share of all choices), path-change counts, the reorder-depth
//! histogram, and the failure-reaction timeline (link_down → timeout →
//! freeze → retransmit → thaw, with timestamps). Given a `--series`
//! document instead (told apart by its header), it prints the paper's
//! micro-figure view: per tracked ToR uplink, one row of utilization in
//! Gbps and one of queue occupancy in KB, downsampled to 12 points.
//!
//! **Decision diagnostics (`--diagnostics`).** Adds a `diagnostics`
//! object to every result record with per-LB decision counters summed
//! across connections — REPS' fresh / recycled / frozen draw counts and
//! freeze / thaw transitions, flowlet switches, PLB repaths, bitmap
//! congestion rejections, MPTCP subflow counts. Unlike `--series` and
//! `--trace` this *changes the result JSONL bytes* (that is why it is a
//! separate flag); records without the flag are byte-identical to
//! pre-diagnostics builds. `repsbench merge` averages diagnostics
//! fieldwise across seeds like every other summary field, and cache
//! entries only hit when their diagnostics presence matches the request.
//!
//! **Progress.** While a sweep runs, a single stderr line tracks cells
//! done / total, executed vs. cache hits, aggregate events/s and an ETA.
//! It appears only when stderr is a terminal (never in CI logs or
//! redirected output) and `--quiet` suppresses it like all other chatter.
//!
//! # Sharded (fleet) sweeps
//!
//! `--shard I/N` keeps only the cells whose key hash lands in shard `I` of
//! `N` (1-based) — a pure function of each cell key, so filters never skew
//! the partition and every cell lands in exactly one shard. `merge` unions
//! shard files, rejects duplicate keys, re-sorts by key and re-renders the
//! aggregate tables; the merged JSONL is byte-identical to an unsharded
//! run. Splitting the full suite across two boxes:
//!
//! ```text
//! boxA$ repsbench run --scale full --shard 1/2 --out shard1.jsonl
//! boxB$ repsbench run --scale full --shard 2/2 --out shard2.jsonl
//!       # copy shard2.jsonl to boxA, then:
//! boxA$ repsbench merge full.jsonl shard1.jsonl shard2.jsonl
//! ```
//!
//! # Incremental sweeps
//!
//! `--cache DIR` reuses per-cell results recorded by an earlier run of the
//! *same build* (entries are namespaced by a compiled-in `git describe`
//! fingerprint, addressed by derived seed, and validated against the full
//! cell key). Hits are byte-identical to fresh runs; the footer reports
//! hit/miss counts, and a fully warm re-run executes nothing.
//!
//! `--perf` additionally writes one JSONL record per *executed* cell with
//! its event count, wall time and events/sec, the events by kind
//! (`ev_services`, `ev_switch_arrivals`, `ev_host_arrivals`, `ev_timers`,
//! `ev_controls`: they sum to `events`), `lookahead_hints` (events the
//! batch loop's second look-ahead stage prefetched for — over `events`,
//! how much of the run came in batches deep enough to look into), the
//! event queue's four `cal_*` counters (`cal_lane_pushes`, `cal_lanes_open`,
//! `cal_lane_misfits`: its FIFO lanes; `cal_heap_peak`: the largest
//! population of the binary heap behind them — timers, controls and
//! misfits), the packet arena's `arena_high_water` (peak packets in the
//! fabric at once) and `arena_wide_high_water` (the peak number of
//! in-fabric ACKs at once too wide for a packet's one-line arena record — more
//! than one SACKed sequence or echo, as coalescing, *Carry EVs* and
//! duplicate SACKs give — and so parked in the arena's slab), and the
//! fluid solver's `fluid_resolves`, `fluid_flows_resolved` and
//! `fluid_max_component` (a *separate* file
//! because wall time is nondeterministic and `--out` is byte-stable;
//! cache hits have no fresh perf counters, so they are omitted); the run
//! footer reports aggregate simulator events/sec over the executed cells.

use std::io::Write;
use std::process::ExitCode;

use harness::Scale;
use sweep::axis::{self, Axis};
use sweep::matrix::Cell;
use sweep::{
    build_fingerprint, events_per_sec, explain_doc, glob, merge_files, presets, render_aggregates,
    run_cells_instrumented, specfile, CellCache, CellStore, DocKind, Progress, RunSinks,
    ScenarioMatrix, Shard,
};

#[derive(Debug)]
struct RunOpts {
    filter: String,
    /// `--lb`, `--fault`, `--fidelity`: each filtered axis once, with its
    /// canonicalized pattern.
    axis_filters: Vec<(&'static Axis, String)>,
    threads: usize,
    scale: Scale,
    seeds: Option<u32>,
    shard: Option<Shard>,
    cache: Option<String>,
    spec_files: Vec<String>,
    spec_only: bool,
    series: Option<String>,
    trace: Option<String>,
    diagnostics: bool,
    out: String,
    perf: Option<String>,
    baseline: String,
    quiet: bool,
}

#[derive(Debug)]
struct ListOpts {
    scale: Scale,
    spec_files: Vec<String>,
    spec_only: bool,
    lbs: bool,
}

/// The run's matrix pool: every built-in preset at `scale` plus the
/// matrices of each `--spec-file`, rejecting name collisions (a spec file
/// shadowing a built-in would otherwise silently lose to it). With
/// `spec_only`, the built-ins stay out of the pool — a pure user-defined
/// suite, where grid names may deliberately coincide with built-in preset
/// names (e.g. `examples/ablation.grid` reproducing `evs-sensitivity`).
fn matrix_pool(
    scale: Scale,
    spec_files: &[String],
    spec_only: bool,
) -> Result<Vec<ScenarioMatrix>, String> {
    if spec_only && spec_files.is_empty() {
        return Err("--spec-only needs at least one --spec-file".to_string());
    }
    let mut pool = if spec_only {
        Vec::new()
    } else {
        presets::all(scale)
    };
    for path in spec_files {
        pool.extend(specfile::parse_file(path)?);
    }
    presets::ensure_unique_names(&pool)?;
    Ok(pool)
}

/// Canonicalizes a `--lb`, `--fault` or `--fidelity` filter: a pattern
/// that parses as a spec of that axis becomes its canonical label, so any
/// spelling selects the same cells; a glob (`*`, `?`) is matched as
/// written. A glob-free pattern with `{` or `@` can only be a spec, so its
/// parse error surfaces instead of becoming a never-matching glob.
fn canonical_filter(flag: &str, pattern: &str, axis: &Axis) -> Result<String, String> {
    match (axis.canonical)(pattern) {
        Ok(label) => Ok(label),
        Err(e) if !pattern.contains(['*', '?']) && pattern.contains(['{', '@']) => {
            Err(format!("{flag}: {e}"))
        }
        Err(_) => Ok(pattern.to_string()),
    }
}

#[derive(Debug)]
struct MergeOpts {
    out: String,
    inputs: Vec<String>,
    baseline: String,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage:\n  repsbench list [--scale quick|full] [--spec-file PATH]... [--spec-only]\n                 [--lbs]\n  repsbench run [--filter GLOB] [--lb SPEC|GLOB] [--fault SPEC|GLOB]\n                [--fidelity SPEC|GLOB] [--threads N]\n                [--scale quick|full] [--seeds N] [--shard I/N] [--cache DIR]\n                [--spec-file PATH]... [--spec-only] [--series DIR]\n                [--trace DIR] [--diagnostics]\n                [--out PATH|-] [--perf PATH] [--baseline LABEL] [--quiet]\n  repsbench merge OUT IN... [--baseline LABEL] [--quiet]\n  repsbench explain FILE"
}

fn parse_scale(v: &str) -> Result<Scale, String> {
    if v.eq_ignore_ascii_case("quick") {
        Ok(Scale::Quick)
    } else if v.eq_ignore_ascii_case("full") {
        Ok(Scale::Full)
    } else {
        Err(format!("unknown scale {v:?} (expected quick or full)"))
    }
}

/// Whether the command line asks for the usage text: `help` as the
/// subcommand, or `--help`/`-h` anywhere, after a subcommand included.
fn wants_help(args: &[String]) -> bool {
    args.first().is_some_and(|a| a == "help") || args.iter().any(|a| a == "--help" || a == "-h")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match args.first().map(String::as_str) {
        Some("list") => match parse_list(&args[1..]) {
            Ok(opts) => list(&opts),
            Err(e) => fail(&e),
        },
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => run(&opts),
            Err(e) => fail(&e),
        },
        Some("merge") => match parse_merge(&args[1..]) {
            Ok(opts) => merge(&opts),
            Err(e) => fail(&e),
        },
        Some("explain") => match args[1..] {
            [ref path] => explain(path),
            _ => fail(&format!("explain takes exactly one FILE\n{}", usage())),
        },
        _ => fail(usage()),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

fn parse_list(args: &[String]) -> Result<ListOpts, String> {
    let mut opts = ListOpts {
        scale: Scale::from_env(),
        spec_files: Vec::new(),
        spec_only: false,
        lbs: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                opts.scale = parse_scale(v)?;
            }
            "--spec-file" => {
                let v = it.next().ok_or("--spec-file needs a value")?;
                opts.spec_files.push(v.clone());
            }
            "--spec-only" => opts.spec_only = true,
            "--lbs" => opts.lbs = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        filter: "*".to_string(),
        axis_filters: Vec::new(),
        threads: sweep::default_threads(),
        scale: Scale::from_env(),
        seeds: None,
        shard: None,
        cache: None,
        spec_files: Vec::new(),
        spec_only: false,
        series: None,
        trace: None,
        diagnostics: false,
        out: "results.jsonl".to_string(),
        perf: None,
        baseline: "OPS".to_string(),
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--filter" => opts.filter = value("--filter")?.clone(),
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?;
                if opts.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--scale" => opts.scale = parse_scale(value("--scale")?)?,
            "--seeds" => {
                let n = value("--seeds")?
                    .parse::<u32>()
                    .map_err(|e| format!("--seeds: {e}"))?;
                if n == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
                opts.seeds = Some(n);
            }
            "--shard" => opts.shard = Some(Shard::parse(value("--shard")?)?),
            "--cache" => opts.cache = Some(value("--cache")?.clone()),
            "--spec-file" => opts.spec_files.push(value("--spec-file")?.clone()),
            "--spec-only" => opts.spec_only = true,
            "--series" => opts.series = Some(value("--series")?.clone()),
            "--trace" => opts.trace = Some(value("--trace")?.clone()),
            "--diagnostics" => opts.diagnostics = true,
            "--out" => opts.out = value("--out")?.clone(),
            "--perf" => opts.perf = Some(value("--perf")?.clone()),
            "--baseline" => opts.baseline = value("--baseline")?.clone(),
            "--quiet" => opts.quiet = true,
            flag => {
                let filtered = flag.strip_prefix("--").and_then(axis::by_name);
                let Some(axis) = filtered.filter(|axis| axis.filter) else {
                    return Err(format!("unknown argument {flag:?}\n{}", usage()));
                };
                let pattern = canonical_filter(flag, value(flag)?, axis)?;
                opts.axis_filters.retain(|(a, _)| a.name != axis.name);
                opts.axis_filters.push((axis, pattern));
            }
        }
    }
    Ok(opts)
}

fn parse_merge(args: &[String]) -> Result<MergeOpts, String> {
    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut baseline = "OPS".to_string();
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline = it.next().ok_or("--baseline needs a value")?.clone();
            }
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument {flag:?}\n{}", usage()));
            }
            path => {
                if out.is_none() {
                    out = Some(path.to_string());
                } else {
                    inputs.push(path.to_string());
                }
            }
        }
    }
    let out = out.ok_or_else(|| format!("merge needs an output path\n{}", usage()))?;
    if inputs.is_empty() {
        return Err(format!("merge needs at least one input shard\n{}", usage()));
    }
    if inputs.contains(&out) {
        return Err(format!("merge output {out:?} is also an input"));
    }
    Ok(MergeOpts {
        out,
        inputs,
        baseline,
        quiet,
    })
}

fn list(opts: &ListOpts) -> ExitCode {
    let pool = match matrix_pool(opts.scale, &opts.spec_files, opts.spec_only) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let columns = axis::columns();
    let mut head = format!("{:<28} {:>6}", "preset", "cells");
    for (_, column) in &columns {
        head += &format!(" {:>1$}", column.head, column.width);
    }
    println!("{head}");
    let mut total = 0usize;
    for m in pool {
        total += m.len();
        let mut row = format!("{:<28} {:>6}", m.name, m.len());
        for (axis, column) in &columns {
            row += &format!(" {:>1$}", (axis.len)(&m), column.width);
        }
        println!("{row}");
        if opts.lbs {
            // One canonical LB-spec string per axis value: what `--lb`
            // filters and spec-file `lb =` lines match on.
            for lb in &m.lbs {
                println!("{:<28}   lb = {}", "", lb.label);
            }
        }
    }
    println!("{total} cells total at {:?} scale", opts.scale);
    ExitCode::SUCCESS
}

/// Writes `text` to `path`, with `-` meaning stdout.
fn write_output(path: &str, text: &str) -> std::io::Result<()> {
    if path == "-" {
        let mut out = std::io::stdout().lock();
        out.write_all(text.as_bytes())?;
        out.flush()
    } else {
        std::fs::write(path, text)
    }
}

fn run(opts: &RunOpts) -> ExitCode {
    let pool = match matrix_pool(opts.scale, &opts.spec_files, opts.spec_only) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let mut cells: Vec<Cell> = Vec::new();
    let mut matched = 0usize;
    for mut m in pool {
        if !glob::matches(&opts.filter, &m.name) {
            continue;
        }
        matched += 1;
        if let Some(n) = opts.seeds {
            m = m.seeds(n);
        }
        cells.extend(m.expand());
    }
    if matched == 0 {
        return fail(&format!("no preset matches filter {:?}", opts.filter));
    }
    // Cell-level filters over canonical labels, in glob syntax: `--lb
    // 'REPS*'` keeps the whole REPS family, `--lb OPS{evs=64}` (any
    // spelling: patterns are canonicalized at parse time) one
    // configuration. Default cells carry the labels `none` and `pkt`, so
    // `--fault none` keeps exactly the cells whose keys lack an `ft=`.
    for (axis, pattern) in &opts.axis_filters {
        cells.retain(|c| glob::matches(pattern, &axis.cell_label(c)));
        if cells.is_empty() {
            return fail(&format!("no cell matches {} filter {pattern:?}", axis.name));
        }
    }
    let total = cells.len();
    if let Some(shard) = opts.shard {
        cells = shard.select(cells);
    }
    let cache = match &opts.cache {
        None => None,
        Some(dir) => match CellCache::open(dir, build_fingerprint()) {
            Ok(c) => Some(c),
            Err(e) => return fail(&format!("opening cache {dir}: {e}")),
        },
    };
    let mut sidecars = Vec::new();
    for (kind, dir) in [
        (DocKind::Series, &opts.series),
        (DocKind::Trace, &opts.trace),
    ] {
        let Some(dir) = dir else { continue };
        match CellStore::create(dir, kind) {
            Ok(s) => sidecars.push(s),
            Err(e) => return fail(&format!("opening {} directory {dir}: {e}", kind.label())),
        }
    }
    if !opts.quiet {
        let sharding = match opts.shard {
            Some(s) => format!(" (shard {s} of {total} cells)"),
            None => String::new(),
        };
        eprintln!(
            "{} preset(s), {} cells{}, {} thread(s), {:?} scale",
            matched,
            cells.len(),
            sharding,
            opts.threads,
            opts.scale
        );
    }
    // Live progress on stderr (TTY-gated; --quiet keeps it off entirely).
    let progress = if opts.quiet {
        Progress::with_active(cells.len(), false)
    } else {
        Progress::stderr(cells.len())
    };
    // detlint: allow(DET002) — elapsed-time footer on stderr; never reaches result bytes
    let start = std::time::Instant::now();
    let outcome = run_cells_instrumented(
        &cells,
        opts.threads,
        RunSinks {
            cache: cache.as_ref(),
            sidecars: &sidecars,
            diagnostics: opts.diagnostics,
            progress: Some(&progress),
        },
    );
    progress.finish();
    let elapsed = start.elapsed();
    let results = &outcome.results;
    if outcome.store_errors > 0 {
        // Best-effort: a full disk must not cost the sweep its results.
        eprintln!(
            "warning: failed to store {} result(s) in cache {}",
            outcome.store_errors,
            opts.cache.as_deref().unwrap_or("")
        );
    }
    for (store, &errors) in sidecars.iter().zip(&outcome.sidecar_errors) {
        let (kind, dir) = (store.kind().label(), store.dir().display());
        if errors > 0 {
            eprintln!("warning: failed to write {errors} {kind} document(s) in {dir}");
        }
        if !opts.quiet {
            let written = outcome.executed.len() - errors;
            eprintln!("wrote {written} {kind} document(s) to {dir}");
        }
    }

    if let Err(e) = write_output(&opts.out, &sweep::to_jsonl(results)) {
        return fail(&format!("writing {}: {e}", opts.out));
    }
    if !opts.quiet && opts.out != "-" {
        eprintln!("wrote {} records to {}", results.len(), opts.out);
    }

    if let Some(perf_path) = &opts.perf {
        let written = std::fs::File::create(perf_path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            for r in outcome.executed_results() {
                writeln!(w, "{}", sweep::perf_record(r))?;
            }
            w.flush()
        });
        if let Err(e) = written {
            return fail(&format!("writing {perf_path}: {e}"));
        }
        if !opts.quiet {
            eprintln!(
                "wrote {} perf records to {perf_path}",
                outcome.executed.len()
            );
        }
    }

    if !opts.quiet {
        // Aggregates go to stderr when JSONL owns stdout.
        let tables = render_aggregates(results, &opts.baseline);
        if opts.out == "-" {
            eprint!("{tables}");
        } else {
            print!("{tables}");
        }
        let incomplete = results.iter().filter(|r| !r.summary.completed).count();
        let (events, rate) = events_per_sec(outcome.executed_results());
        let caching = match opts.cache {
            Some(_) => format!(" ({} cached, {} executed)", outcome.hits, outcome.misses),
            None => String::new(),
        };
        eprintln!(
            "{} cells{} in {:.1}s ({} hit the deadline); {:.1}M events at {:.2}M events/s/core",
            results.len(),
            caching,
            elapsed.as_secs_f64(),
            incomplete,
            events as f64 / 1e6,
            rate / 1e6,
        );
    }
    ExitCode::SUCCESS
}

fn explain(path: &str) -> ExitCode {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => return fail(&format!("reading {path}: {e}")),
    };
    match explain_doc(&doc) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn merge(opts: &MergeOpts) -> ExitCode {
    let merged = match merge_files(&opts.inputs) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    if let Err(e) = write_output(&opts.out, &merged.to_jsonl()) {
        return fail(&format!("writing {}: {e}", opts.out));
    }
    if !opts.quiet {
        if opts.out != "-" {
            eprintln!(
                "merged {} records from {} shard(s) into {}",
                merged.results.len(),
                opts.inputs.len(),
                opts.out
            );
        }
        let tables = render_aggregates(&merged.results, &opts.baseline);
        if opts.out == "-" {
            eprint!("{tables}");
        } else {
            print!("{tables}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_defaults_are_sensible() {
        let o = parse_run(&[]).expect("no args is valid");
        assert_eq!(o.filter, "*");
        assert!(o.axis_filters.is_empty());
        assert!(o.threads >= 1);
        assert_eq!(o.seeds, None);
        assert_eq!(o.shard, None);
        assert_eq!(o.cache, None);
        assert!(o.spec_files.is_empty());
        assert!(!o.spec_only);
        assert_eq!(o.series, None);
        assert_eq!(o.trace, None);
        assert!(!o.diagnostics);
        assert_eq!(o.out, "results.jsonl");
        assert_eq!(o.perf, None);
        assert_eq!(o.baseline, "OPS");
        assert!(!o.quiet);
    }

    #[test]
    fn run_parses_every_flag() {
        let o = parse_run(&sv(&[
            "--filter",
            "fig0*",
            "--lb",
            "REPS*",
            "--fault",
            "gray*",
            "--fidelity",
            "hybrid{bg=fluid}",
            "--spec-only",
            "--threads",
            "8",
            "--scale",
            "full",
            "--seeds",
            "5",
            "--shard",
            "2/4",
            "--cache",
            "/tmp/c",
            "--spec-file",
            "a.grid",
            "--spec-file",
            "b.grid",
            "--series",
            "series-out",
            "--trace",
            "trace-out",
            "--diagnostics",
            "--out",
            "-",
            "--perf",
            "p.jsonl",
            "--baseline",
            "REPS",
            "--quiet",
        ]))
        .expect("all flags valid");
        assert_eq!(o.filter, "fig0*");
        // Canonicalized at parse time: the default bg model collapses.
        let filters: Vec<_> = o.axis_filters.iter().map(|(a, p)| (a.name, &**p)).collect();
        assert_eq!(
            filters,
            [("lb", "REPS*"), ("fault", "gray*"), ("fidelity", "hybrid")]
        );
        assert!(o.spec_only);
        assert_eq!(o.threads, 8);
        assert!(matches!(o.scale, Scale::Full));
        assert_eq!(o.seeds, Some(5));
        assert_eq!(o.shard, Some(Shard { index: 2, count: 4 }));
        assert_eq!(o.cache.as_deref(), Some("/tmp/c"));
        assert_eq!(o.spec_files, vec!["a.grid", "b.grid"]);
        assert_eq!(o.series.as_deref(), Some("series-out"));
        assert_eq!(o.trace.as_deref(), Some("trace-out"));
        assert!(o.diagnostics);
        assert_eq!(o.out, "-");
        assert_eq!(o.perf.as_deref(), Some("p.jsonl"));
        assert_eq!(o.baseline, "REPS");
        assert!(o.quiet);
    }

    #[test]
    fn zero_threads_and_zero_seeds_are_rejected_not_clamped() {
        let err = parse_run(&sv(&["--threads", "0"])).expect_err("0 threads");
        assert!(err.contains("--threads"), "{err}");
        let err = parse_run(&sv(&["--seeds", "0"])).expect_err("0 seeds");
        assert!(err.contains("--seeds"), "{err}");
    }

    #[test]
    fn malformed_run_arguments_are_rejected() {
        for bad in [
            sv(&["--threads"]),
            sv(&["--threads", "x"]),
            sv(&["--threads", "-2"]),
            sv(&["--seeds", "1.5"]),
            sv(&["--scale", "medium"]),
            sv(&["--shard", "0/2"]),
            sv(&["--shard", "3/2"]),
            sv(&["--shard", "2"]),
            sv(&["--cache"]),
            sv(&["--trace"]),
            sv(&["--bogus"]),
            sv(&["extra"]),
            // Only the axes the registry marks as filters are flags.
            sv(&["--cc", "DCTCP"]),
            sv(&["--seed", "0"]),
            sv(&["--lb"]),
        ] {
            assert!(parse_run(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn help_is_recognised_after_any_subcommand() {
        for asks in [
            sv(&["--help"]),
            sv(&["-h"]),
            sv(&["help"]),
            sv(&["run", "--help"]),
            sv(&["run", "--filter", "fig02*", "-h"]),
            sv(&["list", "--help"]),
            sv(&["merge", "-h"]),
            sv(&["explain", "--help"]),
        ] {
            assert!(wants_help(&asks), "no usage for {asks:?}");
        }
        for other in [
            sv(&[]),
            sv(&["run", "--filter", "help"]),
            sv(&["explain", "help"]),
        ] {
            assert!(!wants_help(&other), "usage instead of running {other:?}");
        }
        // The parsers themselves still reject it: `main` answers first.
        assert!(parse_run(&sv(&["--help"])).is_err());
    }

    #[test]
    fn list_parser_accepts_scale_and_spec_files() {
        assert!(parse_list(&[]).is_ok());
        assert!(matches!(
            parse_list(&sv(&["--scale", "full"])),
            Ok(ListOpts {
                scale: Scale::Full,
                ..
            })
        ));
        let o = parse_list(&sv(&["--spec-file", "g.grid", "--spec-only", "--lbs"]))
            .expect("spec file accepted");
        assert_eq!(o.spec_files, vec!["g.grid"]);
        assert!(o.spec_only);
        assert!(o.lbs);
        assert!(parse_list(&sv(&["--scale", "nope"])).is_err());
        assert!(parse_list(&sv(&["--filter", "x"])).is_err());
        assert!(parse_list(&sv(&["--spec-file"])).is_err());
    }

    #[test]
    fn matrix_pool_rejects_spec_shadowing_a_builtin() {
        let dir = std::env::temp_dir().join(format!("repsbench-shadow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shadow.grid");
        std::fs::write(&path, "[fig02-tornado-micro]\nlb = OPS\n").unwrap();
        let path_arg = [path.to_string_lossy().into_owned()];
        let err = matrix_pool(Scale::Quick, &path_arg, false)
            .expect_err("shadowing a built-in preset must fail");
        assert!(err.contains("fig02-tornado-micro"), "{err}");
        // With --spec-only the same grid is the whole pool: deliberately
        // reusing a built-in name (to reproduce its cells) is fine.
        let pool = matrix_pool(Scale::Quick, &path_arg, true).expect("spec-only pool");
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].name, "fig02-tornado-micro");
        // A non-colliding grid joins the full pool.
        std::fs::write(&path, "[my-grid]\nlb = OPS\n").unwrap();
        let pool = matrix_pool(Scale::Quick, &path_arg, false).expect("fresh name joins the pool");
        assert!(pool.iter().any(|m| m.name == "my-grid"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_only_without_spec_files_is_rejected() {
        let err = matrix_pool(Scale::Quick, &[], true).expect_err("no grids to run");
        assert!(err.contains("--spec-only"), "{err}");
    }

    /// Runs `rows` of `(pattern, canonical label or error needle)` through
    /// `--<axis>`'s filter, both directly and as a `run` flag.
    fn assert_filters(axis: &str, rows: &[(&str, Result<&str, &str>)]) {
        let flag = format!("--{axis}");
        let row = axis::by_name(axis).expect("registry axis");
        assert!(row.filter, "{flag} is not a filter");
        for &(pattern, want) in rows {
            let got = canonical_filter(&flag, pattern, row);
            let parsed = parse_run(&sv(&[&flag, pattern])).map(|o| o.axis_filters[0].1.clone());
            match want {
                Ok(label) => {
                    assert_eq!(got.as_deref(), Ok(label), "{flag} {pattern}");
                    assert_eq!(parsed.as_deref(), Ok(label), "{flag} {pattern}");
                }
                Err(needle) => {
                    let err = got.expect_err(pattern);
                    assert!(err.contains(&flag) && err.contains(needle), "{err}");
                    assert!(parsed.is_err(), "{flag} {pattern}");
                }
            }
        }
        assert!(parse_run(&sv(&[&flag])).is_err(), "{flag} without a value");
    }

    #[test]
    fn lb_filters_canonicalize_any_spec_spelling() {
        assert_filters(
            "lb",
            &[
                // Any spelling of a configuration selects its canonical label.
                ("REPS{freeze=off}", Ok("REPS-nofreeze")),
                ("OPS{evs=65536}", Ok("OPS")),
                ("OPS{evs=64}", Ok("OPS{evs=64}")),
                // Globs and non-spec patterns pass through untouched.
                ("REPS*", Ok("REPS*")),
                ("*{evs=64}", Ok("*{evs=64}")),
                // A glob-free braced pattern is a spec; its parse error
                // surfaces rather than degrading to a never-matching glob.
                ("OPS{evs=0}", Err("out of range")),
                ("OPS{evs=abc}", Err("bad evs")),
                ("REPS+freeze@50", Err("bad duration")),
            ],
        );
    }

    #[test]
    fn fault_filters_canonicalize_any_spec_spelling() {
        assert_filters(
            "fault",
            &[
                // Any spelling of a configuration selects its canonical
                // label — the exact string cells carry in their `ft=` key
                // component.
                ("gray{p=0.01}", Ok("gray")),
                ("gray{p=0.05,n=2}", Ok("gray{p=0.05,n=2}")),
                ("flap{period=10ms}", Ok("flap{period=10000us}")),
                ("none", Ok("none")),
                // Globs and non-spec patterns pass through untouched.
                ("flap*", Ok("flap*")),
                ("*{n=2}", Ok("*{n=2}")),
                // A glob-free braced pattern is a spec; its parse error
                // surfaces rather than degrading to a never-matching glob.
                ("gray{p=2}", Err("out of range")),
                ("gray{q=1}", Err("unknown")),
            ],
        );
    }

    #[test]
    fn fidelity_filters_canonicalize_any_spec_spelling() {
        assert_filters(
            "fidelity",
            &[
                // Any spelling of a configuration selects its canonical
                // label — the exact string cells carry in their `fi=` key
                // component.
                ("hybrid{bg=fluid}", Ok("hybrid")),
                ("hybrid", Ok("hybrid")),
                ("pkt", Ok("pkt")),
                // Globs and non-spec patterns pass through untouched.
                ("hyb*", Ok("hyb*")),
                // A glob-free braced pattern is a spec; its parse error
                // surfaces rather than degrading to a never-matching glob.
                ("hybrid{bg=packet}", Err("unknown background model")),
            ],
        );
    }

    #[test]
    fn every_filter_axis_is_tested_and_a_repeat_replaces() {
        // Each filterable registry axis has its own test above.
        let filters: Vec<&str> = axis::AXES
            .iter()
            .filter(|axis| axis.filter)
            .map(|axis| axis.name)
            .collect();
        assert_eq!(filters, ["fault", "fidelity", "lb"]);
        // A repeated flag replaces its axis's earlier pattern.
        let o = parse_run(&sv(&["--lb", "OPS", "--lb", "REPS"])).expect("valid");
        assert_eq!(o.axis_filters.len(), 1);
        assert_eq!(o.axis_filters[0].1, "REPS");
    }

    #[test]
    fn merge_parser_wants_out_then_inputs() {
        let o = parse_merge(&sv(&[
            "full.jsonl",
            "a.jsonl",
            "b.jsonl",
            "--baseline",
            "REPS",
            "--quiet",
        ]))
        .expect("valid merge");
        assert_eq!(o.out, "full.jsonl");
        assert_eq!(o.inputs, vec!["a.jsonl", "b.jsonl"]);
        assert_eq!(o.baseline, "REPS");
        assert!(o.quiet);

        assert!(parse_merge(&[]).is_err(), "no output");
        assert!(parse_merge(&sv(&["out.jsonl"])).is_err(), "no inputs");
        assert!(
            parse_merge(&sv(&["x.jsonl", "x.jsonl"])).is_err(),
            "output aliases an input"
        );
        assert!(parse_merge(&sv(&["out.jsonl", "a.jsonl", "--bogus"])).is_err());
    }

    #[test]
    fn scale_parses_case_insensitively() {
        assert!(matches!(parse_scale("QUICK"), Ok(Scale::Quick)));
        assert!(matches!(parse_scale("Full"), Ok(Scale::Full)));
        assert!(parse_scale("huge").is_err());
    }
}
