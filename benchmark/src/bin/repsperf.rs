//! `repsperf` — the end-to-end benchmark driver.
//!
//! ```text
//! repsperf [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//!          [--repsbench PATH] [--out REPORT.jsonl]
//! repsperf compare A.jsonl B.jsonl [--benchmark-json PATH]
//! ```
//!
//! With `--trace 0` (the default) it spawns the real `repsbench` binary on
//! the workload's rendered grid, one child at a time with tracing off, times
//! each pass from outside (`wait4` for CPU time and peak RSS, the CLI's own
//! `--perf` stream for simulated events), checks the output bytes and prints
//! every end-to-end metric. With `--trace 1` it hands over to `layerprobe`
//! (the sibling binary), which prints the per-layer metrics. Without
//! `--workload` it runs all six workloads end to end, then all six traced.
//!
//! The last line of standard output is always the run's result object; the
//! exit status is non-zero when an output check failed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use repsperf::calib::Calibrator;
use repsperf::child::{self, Usage};
use repsperf::clock;
use repsperf::report::{self, metric, RunReport};
use repsperf::stats::median;
use repsperf::workload::{self, list_args, run_args, strings, CacheUse, Workload, WORKLOADS};

/// Set-ups per run, at least; `setup_s` is their median. Cheap set-ups (a
/// few milliseconds of process start) repeat until [`SETUP_BUDGET_S`] is
/// spent or [`MAX_SETUPS`] is reached, so their median is steady too.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 0.3;
/// Timed passes per run, at least (even when one pass outlasts `--seconds`).
const MIN_PASSES: usize = 3;

struct Opts {
    workload: Option<String>,
    seed: u32,
    seconds: f64,
    trace: u8,
    repsbench: PathBuf,
    out: PathBuf,
}

fn usage() -> &'static str {
    "usage:\n  repsperf [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]\n           [--repsbench PATH] [--out REPORT.jsonl]\n  repsperf compare A.jsonl B.jsonl [--benchmark-json PATH]"
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 0,
        seconds: 15.0,
        trace: 0,
        repsbench: workload::default_repsbench(),
        out: workload::default_report(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value\n{}", usage()));
        match a.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repsbench" => o.repsbench = PathBuf::from(value()?),
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if let Some(w) = &o.workload {
        if workload::by_name(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {w:?} (one of {})",
                names.join(", ")
            ));
        }
    }
    workload::require_repsbench(&o.repsbench)?;
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        parse_opts(&args).and_then(|o| run(&o))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("repsperf: {e}");
            ExitCode::from(2)
        }
    }
}

/// `repsperf compare A B`: `Ok(false)` when a row is out of bound.
fn compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bench_json = workload::bench_dir().join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark-json" => {
                bench_json = PathBuf::from(it.next().ok_or("--benchmark-json needs a value")?)
            }
            path => files.push(path),
        }
    }
    let [a, b] = files[..] else {
        return Err(format!("compare takes exactly two reports\n{}", usage()));
    };
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()));
    let (table, out_of_bound) = report::compare(
        &read(Path::new(a))?,
        &read(Path::new(b))?,
        &read(&bench_json)?,
    )?;
    print!("{table}");
    Ok(!out_of_bound)
}

/// Runs what the options ask for; `Ok(false)` when an output check failed.
fn run(o: &Opts) -> Result<bool, String> {
    let selected: Vec<&Workload> = match &o.workload {
        Some(name) => vec![workload::by_name(name).expect("validated by parse_opts")],
        None => WORKLOADS.iter().collect(),
    };
    // A full run measures everything end to end first, then traces.
    let traces: &[u8] = match (&o.workload, o.trace) {
        (None, _) => &[0, 1],
        (Some(_), 0) => &[0],
        (Some(_), _) => &[1],
    };
    let mut all_correct = true;
    for &trace in traces {
        for w in &selected {
            all_correct &= if trace == 0 {
                end_to_end(w, o)?.publish(&o.out, &[])?
            } else {
                traced(w, o)?
            };
        }
    }
    Ok(all_correct)
}

/// Hands one traced run to the sibling `layerprobe` binary, which prints its
/// own table and result line on our standard output.
fn traced(w: &Workload, o: &Opts) -> Result<bool, String> {
    let me = std::env::current_exe().map_err(|e| format!("locating repsperf: {e}"))?;
    let probe = me.with_file_name("layerprobe");
    let status = std::process::Command::new(&probe)
        .args(["--workload", w.name, "--seed", &o.seed.to_string()])
        .arg("--repsbench")
        .arg(&o.repsbench)
        .arg("--out")
        .arg(&o.out)
        .status()
        .map_err(|e| format!("spawning {}: {e}", probe.display()))?;
    match status.code() {
        Some(0) => Ok(true),
        Some(1) => Ok(false),
        _ => Err(format!("layerprobe failed on {}: {status}", w.name)),
    }
}

/// The scratch files of one run, all inside `benchmark/out/`.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn arg(&self, name: &str) -> String {
        self.path(name).to_string_lossy().into_owned()
    }

    /// Empties and recreates the scratch directory.
    fn reset(&self) -> Result<(), String> {
        remove_dir(&self.dir)?;
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating {}: {e}", self.dir.display()))
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}

/// Runs one CLI invocation with its output in `<tag>.stdout`/`<tag>.stderr`.
fn repsbench(o: &Opts, s: &Scratch, tag: &str, args: &[String]) -> Result<Usage, String> {
    child::run(
        &o.repsbench,
        args,
        &s.path(&format!("{tag}.stdout")),
        &s.path(&format!("{tag}.stderr")),
    )
}

/// What one timed pass cost and produced.
struct Pass {
    /// Wall time as measured, first spawn to last exit.
    wall_s: f64,
    cpu_s: f64,
    maxrss_kb: u64,
    /// Every child exited 0 (and, warm, executed nothing) and the result
    /// JSONL is byte-identical to the reference.
    ok: bool,
    events: u64,
}

/// One set-up: scratch directory, rendered grid, a `list` of the grid (which
/// validates it and yields the cell count) and, for the warm workload, the
/// cache-populating cold pass. Returns `(cells, events of the populating
/// pass, its output)`.
fn set_up(w: &Workload, o: &Opts, s: &Scratch) -> Result<(u64, u64, String), String> {
    s.reset()?;
    std::fs::write(s.path("grid"), w.rendered_grid(o.seed)?)
        .map_err(|e| format!("writing the rendered grid: {e}"))?;
    let list = repsbench(o, s, "list", &list_args(&s.path("grid")))?;
    let listing = std::fs::read_to_string(s.path("list.stdout")).unwrap_or_default();
    let cells = listing
        .lines()
        .last()
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .filter(|_| list.ok)
        .ok_or_else(|| {
            format!(
                "`repsbench list` rejected the grid: {}",
                std::fs::read_to_string(s.path("list.stderr"))
                    .unwrap_or_default()
                    .trim()
            )
        })?;
    if w.cache != CacheUse::Warm {
        return Ok((cells, 0, String::new()));
    }
    let (cache, out, perf) = (
        s.arg("cache"),
        s.arg("populate.jsonl"),
        s.arg("populate.perf"),
    );
    let args = run_args(
        &s.path("grid"),
        WORKLOADS[0].threads_here(),
        &["--cache", &cache, "--out", &out, "--perf", &perf],
    );
    if !repsbench(o, s, "populate", &args)?.ok {
        return Err("populating the cell cache failed".to_string());
    }
    let read =
        |p: &str| std::fs::read_to_string(s.path(p)).map_err(|e| format!("reading {p}: {e}"));
    Ok((
        cells,
        workload::perf_events(&read("populate.perf")?)?,
        read("populate.jsonl")?,
    ))
}

/// One timed pass: every CLI invocation of the pass, first spawn to last
/// exit. `reference` is the result JSONL every pass must reproduce; the first
/// pass of a workload without a populating pass sets it.
fn timed_pass(
    w: &Workload,
    o: &Opts,
    s: &Scratch,
    reference: &mut Option<String>,
) -> Result<Pass, String> {
    let (out, perf, cache) = (s.arg("out.jsonl"), s.arg("out.perf"), s.arg("cache"));
    let run = |extra: &[&str]| run_args(&s.path("grid"), w.threads_here(), extra);
    let invocations: Vec<(&str, Vec<String>)> = match w.cache {
        CacheUse::Off => vec![("run", run(&["--out", &out, "--perf", &perf]))],
        CacheUse::Cold => {
            remove_dir(&s.path("cache"))?;
            vec![(
                "run",
                run(&["--cache", &cache, "--out", &out, "--perf", &perf]),
            )]
        }
        CacheUse::Warm => {
            let (s1, s2) = (s.arg("shard1.jsonl"), s.arg("shard2.jsonl"));
            vec![
                (
                    "shard1",
                    run(&["--shard", "1/2", "--cache", &cache, "--out", &s1]),
                ),
                (
                    "shard2",
                    run(&["--shard", "2/2", "--cache", &cache, "--out", &s2]),
                ),
                ("merge", strings(&["merge", &out, &s1, &s2])),
            ]
        }
    };
    let started = clock::now();
    let mut done = Vec::new();
    for (tag, args) in &invocations {
        done.push(repsbench(o, s, tag, args)?);
    }
    let wall_s = clock::secs_since(started);
    let mut ok = done.iter().all(|usage| usage.ok);
    if w.cache == CacheUse::Warm {
        // A warm pass that executed a cell measured the wrong thing.
        for tag in ["shard1", "shard2"] {
            let footer = std::fs::read_to_string(s.path(&format!("{tag}.stderr")));
            ok &= footer.unwrap_or_default().contains(", 0 executed)");
        }
    }
    let jsonl = std::fs::read_to_string(s.path("out.jsonl")).unwrap_or_default();
    match reference {
        Some(expected) => ok &= *expected == jsonl,
        None => *reference = Some(jsonl),
    }
    let events = match w.cache {
        CacheUse::Warm => 0,
        _ => {
            workload::perf_events(&std::fs::read_to_string(s.path("out.perf")).unwrap_or_default())?
        }
    };
    Ok(Pass {
        wall_s,
        cpu_s: done.iter().map(|usage| usage.cpu_s).sum(),
        maxrss_kb: done.iter().map(|usage| usage.maxrss_kb).max().unwrap_or(0),
        ok,
        events,
    })
}

/// The end-to-end run of one workload.
fn end_to_end(w: &Workload, o: &Opts) -> Result<RunReport, String> {
    let s = Scratch {
        dir: workload::bench_dir().join(format!("out/scratch-{}", std::process::id())),
    };
    // Host speed is sampled before and after every set-up and every pass;
    // the times of a phase are divided by the phase's median slowdown.
    let mut host = Calibrator::new();
    host.sample();
    let mut setups = Vec::new();
    let mut prepared = (0, 0, String::new());
    let setting_up = clock::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && clock::secs_since(setting_up) < SETUP_BUDGET_S)
    {
        let started = clock::now();
        prepared = set_up(w, o, &s)?;
        setups.push(clock::secs_since(started));
        host.sample();
    }
    let setup_slowdown = host.take_slowdown();
    let (cells, populate_events, populate_jsonl) = prepared;

    // A warm pass must reproduce the populating cold pass byte for byte.
    let mut reference = (w.cache == CacheUse::Warm).then_some(populate_jsonl);
    let measuring = clock::now();
    let mut passes: Vec<Pass> = Vec::new();
    host.sample();
    loop {
        passes.push(timed_pass(w, o, &s, &mut reference)?);
        host.sample();
        let typical = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        // Stop before a pass that would overrun `--seconds`.
        if passes.len() >= MIN_PASSES && clock::secs_since(measuring) + typical > o.seconds {
            break;
        }
    }

    // Output checks. A pass whose children failed or whose bytes differ from
    // the first pass fails all of its cells; reference checks (seed 0 only)
    // fail individual cells, counted once per pass.
    let reference = reference.expect("set by the first pass");
    let mut failed = passes.iter().filter(|p| !p.ok).count() as u64 * cells;
    let records = workload::parse_records(&reference)?;
    let mut bad_cells: BTreeSet<String> = BTreeSet::new();
    if records.len() as u64 != cells {
        bad_cells.insert(format!("<{} records for {cells} cells>", records.len()));
    }
    let digest = workload::digest_hex(reference.as_bytes());
    let mut digest_matches = None;
    if o.seed == 0 {
        let golden_dir = workload::bench_dir().join("../crates/sweep/tests/golden");
        let suite = w.grid == WORKLOADS[0].grid;
        // Warm and cold share one grid, hence one set of references.
        let pinned_as = if suite { WORKLOADS[0].name } else { w.name };
        bad_cells.extend(workload::reference_failures(
            pinned_as,
            &records,
            suite,
            &golden_dir,
        )?);
        if let Some(expected) = workload::expected_digest(pinned_as)? {
            digest_matches = Some(expected == digest);
            if expected != digest {
                eprintln!(
                    "warning: {} result digest {digest} differs from expected/digests.tsv ({expected}) — simulated results changed",
                    w.name
                );
            }
        }
    }
    for cell in &bad_cells {
        eprintln!("FAILED {}: {cell}", w.name);
    }
    failed =
        (failed + bad_cells.len() as u64 * passes.len() as u64).min(cells * passes.len() as u64);
    remove_dir(&s.dir)?;

    let slowdown = host.take_slowdown();
    // The smallest per-pass peak: on two threads the peak depends on which
    // heavy cells happen to overlap, and that only ever adds.
    let peak_rss_kb = passes.iter().map(|p| p.maxrss_kb).min().unwrap_or(0);
    let col = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let wall_s = col(|p| p.wall_s) / slowdown;
    // A warm pass delivers the populating pass's simulated events from cache.
    let events = match w.cache {
        CacheUse::Warm => populate_events,
        _ => passes[0].events,
    };
    Ok(RunReport {
        workload: w.name.to_string(),
        seed: o.seed,
        trace: 0,
        attempted: cells * passes.len() as u64,
        failed,
        digest,
        digest_matches,
        samples: vec![
            ("passes", passes.len() as u64),
            ("setups", setups.len() as u64),
            ("cells", cells),
            ("events", events),
            ("threads", w.threads_here() as u64),
        ],
        notes: vec![
            ("raw_wall_s", col(|p| p.wall_s)),
            ("host_slowdown", slowdown),
            ("setup_slowdown", setup_slowdown),
        ],
        metrics: vec![
            metric("wall_s", "s", wall_s),
            metric("cpu_s", "s", col(|p| p.cpu_s) / slowdown),
            metric("events_per_s", "1/s", events as f64 / wall_s),
            metric("cells_per_s", "1/s", cells as f64 / wall_s),
            metric("peak_rss_mb", "MiB", peak_rss_kb as f64 / 1024.0),
            metric("setup_s", "s", median(&setups) / setup_slowdown),
        ],
    })
}
