//! `layerprobe` — the traced run behind the per-layer metrics.
//!
//! ```text
//! layerprobe --workload NAME [--seed N] [--repsbench PATH] [--out REPORT.jsonl]
//! ```
//!
//! Replays one pass of a workload in-process, on the same rendered grid the
//! end-to-end run hands the CLI, with a span around every call into a
//! layer's public functions (the cell key is the shared identifier), a
//! counting [`TraceSink`] and a counting `GlobalAlloc` plugged in from this
//! side, and isolated micro-probes of each layer at the workload's own
//! operating point. Spans stay in memory and are written to
//! `out/trace-<workload>-<seed>.json` when the run ends; the per-layer
//! metrics go to standard output like every other run's result.
//!
//! # The layer boundary
//!
//! These are the library entry points this binary calls. Refactors of the
//! workspace crates keep them (or re-export them under the same paths):
//!
//! * `sweep::specfile::parse`, `ScenarioMatrix::expand`, `Shard::select`,
//!   `CellCache::{open, lookup, store}`, `Cell::{key, experiment, run}`,
//!   `runner::run_indexed`, `sink::{to_jsonl, parse_record,
//!   render_aggregates}`, `merge::merge_contents`, `WorkloadSpec::build`;
//! * `harness::Experiment::{build, build_traced}`, `harness::json::Value::parse`;
//! * `netsim`: `Topology::{build, route}`, `Engine::{run_until,
//!   pending_events}` with its public `stats`, `links`, `fluid`, `trace`
//!   fields, `EventQueue::{push, pop}`, `FluidNet::{next_event, resolve,
//!   drain_completions}`, `trace::{TraceSink, TraceEvent}`;
//! * `transport::sack::OooTracker`, `reps::Reps` + `reps::lb::LoadBalancer`,
//!   `baselines::kind::LbKind::{parse, build}`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use baselines::kind::LbKind;
use netsim::event::{Event, EventQueue};
use netsim::ids::{HostId, SwitchId};
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::Topology;
use netsim::trace::{EvDecision, TraceEvent, TraceSink};
use reps::lb::{AckFeedback, LoadBalancer};
use repsperf::child;
use repsperf::clock;
use repsperf::report::{metric, Metric, RunReport};
use repsperf::spans::Tracer;
use repsperf::stats::{median, supported_percentile};
use repsperf::workload::{self, CacheUse, Workload};
use sweep::fidelity::FidelitySpec;
use sweep::matrix::{Cell, CellResult};
use sweep::{CellCache, Shard};

/// Allocation counters: calls and bytes since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters in front. Lives only in this
/// binary; the measured passes are single-threaded, so deltas are exact.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never influence the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Counts flight-recorder events by kind instead of keeping them.
#[derive(Debug, Default, Clone, Copy)]
struct CountingSink {
    path_choices: u64,
    ev_fresh: u64,
    ev_recycled: u64,
    ev_frozen: u64,
    freezes: u64,
    reorders: u64,
    reorder_depth_max: u64,
    retransmits: u64,
    timeouts: u64,
    /// Link and switch failure/recovery/degradation reactions.
    control_events: u64,
    fluid_resolves: u64,
}

impl TraceSink for CountingSink {
    fn emit(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PathChoice { .. } => self.path_choices += 1,
            TraceEvent::EvChoice { decision, .. } => match decision {
                EvDecision::Fresh => self.ev_fresh += 1,
                EvDecision::Recycled => self.ev_recycled += 1,
                EvDecision::FrozenReplay => self.ev_frozen += 1,
            },
            TraceEvent::Freeze { .. } => self.freezes += 1,
            TraceEvent::Thaw { .. } => {}
            TraceEvent::Reorder { depth, .. } => {
                self.reorders += 1;
                self.reorder_depth_max = self.reorder_depth_max.max(u64::from(depth));
            }
            TraceEvent::Retransmit { .. } => self.retransmits += 1,
            TraceEvent::Timeout { .. } => self.timeouts += 1,
            TraceEvent::FluidResolve { .. } => self.fluid_resolves += 1,
            TraceEvent::LinkDown { .. }
            | TraceEvent::LinkUp { .. }
            | TraceEvent::LinkRate { .. }
            | TraceEvent::LinkBer { .. }
            | TraceEvent::LinkGray { .. }
            | TraceEvent::LinkCorrupt { .. }
            | TraceEvent::SwitchDown { .. }
            | TraceEvent::SwitchUp { .. } => self.control_events += 1,
        }
    }
}

impl CountingSink {
    fn add(&mut self, o: &CountingSink) {
        self.path_choices += o.path_choices;
        self.ev_fresh += o.ev_fresh;
        self.ev_recycled += o.ev_recycled;
        self.ev_frozen += o.ev_frozen;
        self.freezes += o.freezes;
        self.reorders += o.reorders;
        self.reorder_depth_max = self.reorder_depth_max.max(o.reorder_depth_max);
        self.retransmits += o.retransmits;
        self.timeouts += o.timeouts;
        self.control_events += o.control_events;
        self.fluid_resolves += o.fluid_resolves;
    }

    fn ev_choices(&self) -> u64 {
        self.ev_fresh + self.ev_recycled + self.ev_frozen
    }
}

struct Opts {
    workload: &'static Workload,
    seed: u32,
    repsbench: PathBuf,
    out: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut name = None;
    let mut seed = 0;
    let mut repsbench = workload::default_repsbench();
    let mut out = workload::default_report();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => name = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--repsbench" => repsbench = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    workload::require_repsbench(&repsbench)?;
    Ok(Opts {
        workload,
        seed,
        repsbench,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_opts(&args).and_then(|o| probe(&o)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("layerprobe: {e}");
            ExitCode::from(2)
        }
    }
}

/// Mean of `xs`, 0 when empty.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Parses and expands the grid under spans, as every CLI invocation does.
fn parse_and_expand(tr: &mut Tracer, grid: &str) -> Result<Vec<Cell>, String> {
    let matrices = tr
        .span("sweep.specfile.parse", None, |_| {
            sweep::specfile::parse(grid)
        })
        .map_err(|e| format!("the rendered grid does not parse: {e}"))?;
    Ok(tr.span("sweep.matrix.expand", None, |_| {
        matrices.iter().flat_map(|m| m.expand()).collect()
    }))
}

/// What the warm sequence produced and how its lookups went.
struct WarmOutcome {
    jsonl: String,
    hits: u64,
    lookups: u64,
}

/// The sweep-side work of a fully cached sweep, spanned: for each of two
/// shards parse, expand, select, look every cell up (which parses the stored
/// record), render JSONL and aggregates; then merge the two shard outputs.
/// This *is* the `suite_warm` pass, and every other workload runs it over
/// its own records as the probe of the sweep layers at its own size.
fn warm_sequence(tr: &mut Tracer, grid: &str, cache: &CellCache) -> Result<WarmOutcome, String> {
    let mut shards = Vec::new();
    let (mut hits, mut lookups) = (0, 0);
    for index in 1..=2 {
        let cells = parse_and_expand(tr, grid)?;
        let shard = Shard { index, count: 2 };
        let mine = tr.span("sweep.shard.select", None, |_| shard.select(cells));
        let mut results = Vec::new();
        for cell in &mine {
            let id = tr.cell(&cell.key());
            lookups += 1;
            if let Some(r) = tr.span("sweep.cache.lookup", Some(id), |_| cache.lookup(cell)) {
                hits += 1;
                results.push(r);
            }
        }
        results.sort_by(|a, b| a.key.cmp(&b.key));
        let jsonl = tr.span("sweep.sink.to_jsonl", None, |_| sweep::to_jsonl(&results));
        black_box(tr.span("sweep.sink.aggregate", None, |_| {
            sweep::render_aggregates(&results, "OPS")
        }));
        shards.push((format!("shard{index}"), jsonl));
    }
    let merged = tr.span("sweep.merge.merge_contents", None, |_| {
        sweep::merge_contents(&shards)
    })?;
    Ok(WarmOutcome {
        jsonl: merged.to_jsonl(),
        hits,
        lookups,
    })
}

/// Per-cell facts gathered by the instrumented replay.
struct Replay {
    lb: String,
    sink: CountingSink,
    /// Events dispatched by the replay: the weight of `hold_weighted`.
    events: u64,
    /// Σ over steps of (pending events after the step × events in the step).
    hold_weighted: u128,
    hold_peak: u64,
    steps: u64,
}

/// Replays one cell with the counting sink plugged in, stepping the engine
/// 2 µs of simulated time at a call so the calendar's hold can be sampled
/// from outside; samples are weighted by the events of their step, so the
/// mean is the hold an average event saw. While nothing happens (a cell
/// waiting out an RTO or its deadline) the step doubles, up to 128 µs.
/// (Stepping overshoots the last completion by under a step, so result
/// bytes come from `Cell::run`, never from here.)
fn replay_cell(tr: &mut Tracer, cell: &Cell, id: usize) -> Replay {
    let exp = tr.span("sweep.matrix.experiment", Some(id), |_| cell.experiment());
    let mut engine = tr.span("harness.experiment.build", Some(id), |_| {
        exp.build_traced(CountingSink::default())
    });
    let (mut events, mut weighted, mut peak, mut steps) = (0u64, 0u128, 0u64, 0u64);
    tr.span("netsim.engine.run_until", Some(id), |_| {
        const STEP_PS: u64 = 2_000_000;
        let (mut until, mut step) = (Time::ZERO, STEP_PS);
        while !engine.stats.all_flows_done() && until < exp.deadline {
            until = Time(until.as_ps().saturating_add(step)).min(exp.deadline);
            let n = engine.run_until(until);
            step = if n == 0 {
                (step * 2).min(64 * STEP_PS)
            } else {
                STEP_PS
            };
            let hold = engine.pending_events() as u64;
            events += n;
            weighted += u128::from(hold) * u128::from(n);
            peak = peak.max(hold);
            steps += 1;
            if hold == 0 {
                break;
            }
        }
    });
    Replay {
        lb: cell.lb.label.clone(),
        sink: engine.trace,
        events,
        hold_weighted: weighted,
        hold_peak: peak,
        steps,
    }
}

/// Nanoseconds per iteration of `op` over `iters` iterations.
fn time_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let started = clock::now();
    for i in 0..iters {
        op(i);
    }
    clock::secs_since(started) * 1e9 / iters as f64
}

/// Hold-model probe of the calendar: with `hold` events pending, pop the
/// earliest and push it back a random 0–2 µs later. Returns ns per single
/// queue operation.
fn probe_calendar(hold: u64) -> f64 {
    let mut rng = Rng64::new(0x686f_6c64);
    let mut q = EventQueue::new();
    let event = |i: u64| Event::Timer {
        host: HostId((i % 1024) as u32),
        token: i,
    };
    for i in 0..hold {
        q.push(Time(rng.gen_range(2_000_000)), event(i));
    }
    let iters = 1_000_000;
    let per_pair = time_ns(iters, |i| {
        let (at, ev) = q.pop().expect("the hold never drains");
        black_box(ev);
        q.push(Time(at.as_ps() + rng.gen_range(2_000_000)), event(i));
    });
    per_pair / 2.0
}

/// `Topology::route` over random (switch, destination) pairs of `topo`.
fn probe_route(topo: &Topology) -> f64 {
    let mut rng = Rng64::new(0x726f_7574);
    let (switches, hosts) = (topo.switches.len() as u64, u64::from(topo.n_hosts));
    time_ns(1_000_000, |_| {
        let sw = SwitchId(rng.gen_range(switches) as u32);
        let dst = HostId(rng.gen_range(hosts) as u32);
        black_box(topo.route(sw, dst));
    })
}

/// `OooTracker::record` over a stream reordered in blocks of `depth + 1`.
fn probe_sack(depth: u64) -> f64 {
    let block = depth.clamp(1, 64) + 1;
    let mut tracker = transport::sack::OooTracker::new();
    time_ns(1_000_000, |i| {
        let base = i / block * block;
        black_box(tracker.record(base + (block - 1 - i % block)));
    })
}

/// ns per `next_ev` and per `on_ack` of a balancer in steady state.
fn probe_lb(lb: &mut dyn LoadBalancer) -> (f64, f64) {
    let mut rng = Rng64::new(0x6c62_6c62);
    let feedback = |i: u64, ev: u16| AckFeedback {
        ev,
        ecn: i.is_multiple_of(16),
        now: Time::from_ns(100 * i),
        cwnd_packets: 32,
        rtt: Time::from_us(10),
    };
    // Warm up with send/ACK pairs so caches and bitmaps are populated.
    for i in 0..10_000 {
        let ev = lb.next_ev(Time::from_ns(100 * i), &mut rng);
        lb.on_ack(&feedback(i, ev), &mut rng);
    }
    let iters = 1_000_000;
    let next_ev = time_ns(iters, |i| {
        black_box(lb.next_ev(Time::from_ns(100 * (10_000 + i)), &mut rng));
    });
    let on_ack = time_ns(iters, |i| {
        lb.on_ack(&feedback(10_000 + i, i as u16), &mut rng);
    });
    (next_ev, on_ack)
}

/// Mean µs per `FluidNet::resolve` when the cell's own fluid population is
/// walked from wake to wake on its own fabric (0 for a cell without one).
fn probe_fluid(cell: &Cell) -> f64 {
    let exp = cell.experiment();
    let mut engine = exp.build();
    let Some(mut fluid) = engine.fluid.take() else {
        return 0.0;
    };
    let mut times = Vec::new();
    while let Some(at) = fluid.next_event() {
        if at > exp.deadline {
            break;
        }
        let started = clock::now();
        black_box(fluid.resolve(at, &engine.links));
        times.push(clock::secs_since(started) * 1e6);
        fluid.drain_completions().for_each(drop);
    }
    mean(&times)
}

/// Mean relative error of hybrid cells' foreground `max_fct` against their
/// all-packet twins (taken from `results` when the grid already holds the
/// twin, run here otherwise). 0 when the workload has no hybrid cell.
fn fg_fct_error(cells: &[Cell], results: &[CellResult]) -> f64 {
    let by_key = |key: &str| results.iter().find(|r| r.key == key);
    let mut errors = Vec::new();
    for cell in cells.iter().filter(|c| !c.fidelity.is_pkt()) {
        let mut twin = cell.clone();
        twin.fidelity = FidelitySpec::Pkt;
        let hybrid = by_key(&cell.key()).expect("every cell has a result");
        let pkt_fct = match by_key(&twin.key()) {
            Some(r) => r.summary.max_fct,
            None => twin.run().summary.max_fct,
        };
        if pkt_fct > Time::ZERO {
            let r = hybrid.summary.max_fct.as_ps() as f64 / pkt_fct.as_ps() as f64;
            errors.push((r - 1.0).abs());
        }
    }
    mean(&errors)
}

/// Runs the untraced CLI once the way the end-to-end run does (one thread,
/// same cache use) and returns `(pass wall seconds, result JSONL, median
/// wall ms of `repsbench list`)`.
fn cli_reference(o: &Opts, dir: &Path, grid_path: &Path) -> Result<(f64, String, f64), String> {
    let file = |n: &str| dir.join(n).to_string_lossy().into_owned();
    let run = |tag: &str, args: Vec<String>| -> Result<f64, String> {
        let usage = child::run(
            &o.repsbench,
            &args,
            &dir.join(format!("{tag}.stdout")),
            &dir.join(format!("{tag}.stderr")),
        )?;
        if usage.ok {
            Ok(usage.wall_s)
        } else {
            Err(format!("`repsbench {}` failed", args.join(" ")))
        }
    };
    let mut lists = Vec::new();
    for _ in 0..5 {
        lists.push(run("list", workload::list_args(grid_path))? * 1e3);
    }
    let (out, cache) = (file("cli.jsonl"), file("cli-cache"));
    let run_on = |threads: usize, extra: &[&str]| workload::run_args(grid_path, threads, extra);
    let wall = match o.workload.cache {
        CacheUse::Off => run("cli", run_on(1, &["--out", &out]))?,
        CacheUse::Cold => run("cli", run_on(1, &["--cache", &cache, "--out", &out]))?,
        CacheUse::Warm => {
            let threads = workload::WORKLOADS[0].threads_here();
            let populated = file("populate.jsonl");
            run(
                "populate",
                run_on(threads, &["--cache", &cache, "--out", &populated]),
            )?;
            let (s1, s2) = (file("s1.jsonl"), file("s2.jsonl"));
            run(
                "s1",
                run_on(1, &["--shard", "1/2", "--cache", &cache, "--out", &s1]),
            )? + run(
                "s2",
                run_on(1, &["--shard", "2/2", "--cache", &cache, "--out", &s2]),
            )? + run("merge", workload::strings(&["merge", &out, &s1, &s2]))?
        }
    };
    let jsonl = std::fs::read_to_string(dir.join("cli.jsonl"))
        .map_err(|e| format!("reading the CLI output: {e}"))?;
    Ok((wall, jsonl, median(&lists)))
}

/// The whole traced run; `Ok(false)` when an output check failed.
fn probe(o: &Opts) -> Result<bool, String> {
    let w = o.workload;
    let bench = workload::bench_dir();
    let dir = bench.join(format!("out/probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let grid = w.rendered_grid(o.seed)?;
    let grid_path = dir.join("grid");
    std::fs::write(&grid_path, &grid).map_err(|e| format!("writing the rendered grid: {e}"))?;
    let (cli_wall_s, cli_jsonl, list_ms) = cli_reference(o, &dir, &grid_path)?;

    let mut tr = Tracer::new();
    // The cache namespace is ours alone, so no build fingerprint is needed.
    let cache = CellCache::open(dir.join("cache"), "layerprobe")
        .map_err(|e| format!("opening the cache: {e}"))?;
    let cells = parse_and_expand(&mut Tracer::new(), &grid)?;

    // Untimed set-up of the warm pass: populate the cache (not traced). Its
    // results are dropped: `results` holds what the traced pass executed,
    // which for the warm workload is nothing.
    let mut results: Vec<CellResult> = Vec::new();
    if w.cache == CacheUse::Warm {
        sweep::run_cells_cached(&cells, workload::WORKLOADS[0].threads_here(), Some(&cache));
    }

    // The traced pass: the in-process mirror of one timed CLI pass.
    let mut pass_jsonl = String::new();
    let mut pass_lookups = (0u64, 0u64);
    let mut cell_ms = Vec::new();
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let pass_started = clock::now();
    tr.span("pass", None, |tr| -> Result<(), String> {
        if w.cache == CacheUse::Warm {
            let warm = warm_sequence(tr, &grid, &cache)?;
            pass_lookups = (warm.hits, warm.lookups);
            pass_jsonl = warm.jsonl;
            return Ok(());
        }
        let cells = parse_and_expand(tr, &grid)?;
        let ids: Vec<usize> = cells.iter().map(|c| tr.cell(&c.key())).collect();
        if w.cache == CacheUse::Cold {
            for (cell, &id) in cells.iter().zip(&ids) {
                pass_lookups.1 += 1;
                if tr
                    .span("sweep.cache.lookup", Some(id), |_| cache.lookup(cell))
                    .is_some()
                {
                    pass_lookups.0 += 1;
                }
            }
        }
        for (cell, &id) in cells.iter().zip(&ids) {
            let before = alloc_snapshot();
            let r = tr.span("sweep.matrix.cell_run", Some(id), |_| cell.run());
            let after = alloc_snapshot();
            allocs += after.0 - before.0;
            alloc_bytes += after.1 - before.1;
            cell_ms.push(r.wall_ns as f64 / 1e6);
            results.push(r);
        }
        if w.cache == CacheUse::Cold {
            for (r, &id) in results.iter().zip(&ids) {
                tr.span("sweep.cache.store", Some(id), |_| cache.store(r))
                    .map_err(|e| format!("storing a result: {e}"))?;
            }
        }
        results.sort_by(|a, b| a.key.cmp(&b.key));
        pass_jsonl = tr.span("sweep.sink.to_jsonl", None, |_| sweep::to_jsonl(&results));
        black_box(tr.span("sweep.sink.aggregate", None, |_| {
            sweep::render_aggregates(&results, "OPS")
        }));
        Ok(())
    })?;
    let pass_wall_s = clock::secs_since(pass_started);

    // Outside the pass: the sweep layers at this workload's size (the warm
    // workload's pass already was that), then the instrumented replay.
    let mut merged_jsonl = pass_jsonl.clone();
    let mut replays = Vec::new();
    if w.cache != CacheUse::Warm {
        if w.cache == CacheUse::Off {
            for r in &results {
                let id = tr.cell(&r.key);
                tr.span("sweep.cache.store", Some(id), |_| cache.store(r))
                    .map_err(|e| format!("storing a result: {e}"))?;
            }
        }
        merged_jsonl = warm_sequence(&mut tr, &grid, &cache)?.jsonl;
        for cell in &cells {
            let id = tr.cell(&cell.key());
            let seed = cell.derived_seed();
            black_box(tr.span("workloads.generate", Some(id), |_| {
                cell.workload.build(
                    cell.fabric.config.n_hosts(),
                    cell.sim.config().link_bps,
                    &mut Rng64::new(seed),
                )
            }));
            black_box(tr.span("netsim.topology.build", Some(id), |_| {
                Topology::build(cell.fabric.config.clone(), seed)
            }));
            replays.push(replay_cell(&mut tr, cell, id));
        }
    }

    // Work distribution of the CLI's runner, only observable with >1 thread.
    let threads = w.threads_here();
    let idle_frac = if threads > 1 && w.cache != CacheUse::Warm {
        let started = clock::now();
        let busy: Vec<f64> = sweep::runner::run_indexed(&cells, threads, |c| {
            let t = clock::now();
            black_box(c.run());
            clock::secs_since(t)
        });
        1.0 - busy.iter().sum::<f64>() / (threads as f64 * clock::secs_since(started))
    } else {
        0.0
    };

    // Record-level probes over this workload's own output.
    let lines: Vec<&str> = pass_jsonl.lines().collect();
    let parse_record_us = time_ns(lines.len() as u64, |i| {
        black_box(sweep::parse_record(lines[i as usize]).is_ok());
    }) / 1e3;
    let json_parse_us = time_ns(lines.len() as u64, |i| {
        black_box(harness::json::Value::parse(lines[i as usize]).is_ok());
    }) / 1e3;

    // Totals over the executed cells.
    let sum = |f: fn(&CellResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let executed = w.cache != CacheUse::Warm;
    let events = sum(|r| r.events);
    let run_ms: f64 = cell_ms.iter().sum();
    let counters = |f: fn(&netsim::stats::Counters) -> u64| {
        results.iter().map(|r| f(&r.summary.counters)).sum::<u64>() as f64
    };
    let mut all = CountingSink::default();
    let mut reps = CountingSink::default();
    for r in &replays {
        all.add(&r.sink);
        if r.lb.starts_with("REPS") {
            reps.add(&r.sink);
        }
    }
    let hold_samples: u64 = replays.iter().map(|r| r.steps).sum();
    let hold_mean = ratio(
        replays.iter().map(|r| r.hold_weighted).sum::<u128>() as f64,
        replays.iter().map(|r| r.events).sum::<u64>() as f64,
    );
    let hold_peak = replays.iter().map(|r| r.hold_peak).max().unwrap_or(0);
    let probe_hold = (hold_mean.max(16.0) as u64).next_power_of_two();
    let calendar_ns = probe_calendar(probe_hold);
    let first = &cells[0];
    let topo = Topology::build(first.fabric.config.clone(), first.derived_seed());
    let resolve_us = match cells.iter().find(|c| !c.fidelity.is_pkt()) {
        Some(hybrid) if executed => probe_fluid(hybrid),
        _ => 0.0,
    };
    let (reps_next_ev, reps_on_ack) = probe_lb(&mut reps::reps::Reps::default_paper());
    let family_ns = |name: &str| -> Result<f64, String> {
        let kind = LbKind::parse(name)?;
        Ok(probe_lb(kind.build(&mut Rng64::new(1)).as_mut()).0)
    };

    let data_tx = counters(|c| c.data_tx);
    let retransmits = counters(|c| c.retransmissions);
    let digest = workload::digest_hex(pass_jsonl.as_bytes());
    let pinned_as = if w.cache == CacheUse::Warm {
        workload::WORKLOADS[0].name
    } else {
        w.name
    };
    let digest_matches = match (o.seed, workload::expected_digest(pinned_as)?) {
        (0, Some(expected)) => Some(expected == digest),
        _ => None,
    };

    let ms = |name: &str| mean(&tr.durations_ns(name)) / 1e6;
    let us = |name: &str| mean(&tr.durations_ns(name)) / 1e3;
    let metrics: Vec<Metric> = vec![
        metric("sweep.specfile.parse_ms", "ms", ms("sweep.specfile.parse")),
        metric("sweep.matrix.expand_ms", "ms", ms("sweep.matrix.expand")),
        metric("sweep.shard.select_ms", "ms", ms("sweep.shard.select")),
        metric("sweep.cache.lookup_us", "us", us("sweep.cache.lookup")),
        metric("sweep.cache.store_us", "us", us("sweep.cache.store")),
        metric(
            "sweep.cache.hit_frac",
            "ratio",
            ratio(pass_lookups.0 as f64, pass_lookups.1 as f64),
        ),
        metric("sweep.runner.idle_frac", "ratio", idle_frac),
        metric(
            "sweep.matrix.experiment_ms",
            "ms",
            ms("sweep.matrix.experiment"),
        ),
        metric("sweep.sink.to_jsonl_ms", "ms", ms("sweep.sink.to_jsonl")),
        metric("sweep.sink.parse_record_us", "us", parse_record_us),
        metric("sweep.sink.aggregate_ms", "ms", ms("sweep.sink.aggregate")),
        metric(
            "sweep.merge.merge_ms",
            "ms",
            ms("sweep.merge.merge_contents"),
        ),
        metric("sweep.cli.list_ms", "ms", list_ms),
        metric("harness.json.parse_us", "us", json_parse_us),
        metric(
            "harness.experiment.build_ms",
            "ms",
            ms("harness.experiment.build"),
        ),
        metric("workloads.generate_ms", "ms", ms("workloads.generate")),
        metric(
            "netsim.topology.build_ms",
            "ms",
            ms("netsim.topology.build"),
        ),
        metric("netsim.topology.route_ns", "ns", probe_route(&topo)),
        metric("netsim.engine.run_ms", "ms", run_ms),
        metric(
            "netsim.engine.ns_per_event",
            "ns",
            ratio(run_ms * 1e6, events),
        ),
        metric("netsim.engine.events", "count", events),
        metric("netsim.engine.batches", "count", sum(|r| r.batches)),
        metric(
            "netsim.engine.avg_batch",
            "count",
            ratio(events, sum(|r| r.batches)),
        ),
        metric(
            "netsim.engine.max_batch",
            "count",
            results.iter().map(|r| r.max_batch).max().unwrap_or(0) as f64,
        ),
        metric(
            "netsim.engine.chained_frac",
            "ratio",
            ratio(sum(|r| r.chained_services), events),
        ),
        metric("netsim.engine.cell_ms_p50", "ms", median(&cell_ms)),
        metric(
            "netsim.engine.cell_ms_p90",
            "ms",
            supported_percentile(&cell_ms, 0.9),
        ),
        metric(
            "netsim.engine.cell_ms_p99",
            "ms",
            supported_percentile(&cell_ms, 0.99),
        ),
        metric("netsim.event.hold_mean", "count", hold_mean),
        metric("netsim.event.hold_peak", "count", hold_peak as f64),
        metric("netsim.event.ns_per_op", "ns", calendar_ns),
        metric(
            "netsim.event.est_share",
            "ratio",
            ratio(2.0 * events * calendar_ns, run_ms * 1e6),
        ),
        metric("netsim.path_choices", "count", all.path_choices as f64),
        metric("netsim.link.data_tx", "count", data_tx),
        metric("netsim.link.ctrl_tx", "count", counters(|c| c.ctrl_tx)),
        metric("netsim.link.drops", "count", counters(|c| c.total_drops())),
        metric("netsim.link.ecn_marks", "count", counters(|c| c.ecn_marks)),
        metric(
            "netsim.failures.control_events",
            "count",
            all.control_events as f64,
        ),
        metric("netsim.fluid.resolves", "count", all.fluid_resolves as f64),
        metric("netsim.fluid.resolve_us", "us", resolve_us),
        metric(
            "netsim.fluid.est_share",
            "ratio",
            ratio(all.fluid_resolves as f64 * resolve_us, run_ms * 1e3),
        ),
        metric(
            "netsim.fluid.fg_fct_err",
            "ratio",
            if executed {
                fg_fct_error(&cells, &results)
            } else {
                0.0
            },
        ),
        metric("transport.retransmits", "count", retransmits),
        metric("transport.timeouts", "count", counters(|c| c.timeouts)),
        metric("transport.reorders", "count", all.reorders as f64),
        metric(
            "transport.reorder_depth_max",
            "count",
            all.reorder_depth_max as f64,
        ),
        metric(
            "transport.goodput_frac",
            "ratio",
            if data_tx > 0.0 {
                1.0 - retransmits / data_tx
            } else {
                0.0
            },
        ),
        metric(
            "transport.sack.ns_per_pkt",
            "ns",
            probe_sack(all.reorder_depth_max),
        ),
        metric("core.reps.next_ev_ns", "ns", reps_next_ev),
        metric("core.reps.on_ack_ns", "ns", reps_on_ack),
        metric("core.reps.ev_choices", "count", reps.ev_choices() as f64),
        metric(
            "core.reps.recycle_frac",
            "ratio",
            ratio(reps.ev_recycled as f64, reps.ev_choices() as f64),
        ),
        metric(
            "core.reps.frozen_frac",
            "ratio",
            ratio(reps.ev_frozen as f64, reps.ev_choices() as f64),
        ),
        metric("core.reps.freezes", "count", reps.freezes as f64),
        metric("baselines.ecmp.next_ev_ns", "ns", family_ns("ECMP")?),
        metric("baselines.ops.next_ev_ns", "ns", family_ns("OPS")?),
        metric("baselines.plb.next_ev_ns", "ns", family_ns("PLB")?),
        metric("baselines.flowlet.next_ev_ns", "ns", family_ns("Flowlet")?),
        metric("baselines.bitmap.next_ev_ns", "ns", family_ns("BitMap")?),
        metric("baselines.mptcp.next_ev_ns", "ns", family_ns("MPTCP")?),
        metric("baselines.mprdma.next_ev_ns", "ns", family_ns("MPRDMA")?),
        metric(
            "alloc.per_kevent",
            "count",
            ratio(allocs as f64 * 1e3, events),
        ),
        metric(
            "alloc.bytes_per_cell",
            "B",
            ratio(alloc_bytes as f64, cell_ms.len() as f64),
        ),
        metric(
            "probe.overhead_frac",
            "ratio",
            pass_wall_s / cli_wall_s - 1.0,
        ),
        metric(
            "check.digest_mismatch",
            "count",
            f64::from(digest_matches == Some(false)),
        ),
    ];

    // Output checks: the in-process pass, the merged shards and the CLI must
    // all have produced the same bytes, one record per cell.
    let mut failed = 0;
    for (what, bytes) in [("merged shards", &merged_jsonl), ("CLI output", &cli_jsonl)] {
        if *bytes != pass_jsonl {
            eprintln!("FAILED {}: {what} differ from the in-process pass", w.name);
            failed = cells.len() as u64;
        }
    }
    if lines.len() != cells.len() {
        eprintln!(
            "FAILED {}: {} records for {} cells",
            w.name,
            lines.len(),
            cells.len()
        );
        failed = cells.len() as u64;
    }
    if digest_matches == Some(false) {
        eprintln!(
            "warning: {} result digest {digest} differs from expected/digests.tsv — simulated results changed",
            w.name
        );
    }

    let trace_path = bench.join(format!("out/trace-{}-{}.json", w.name, o.seed));
    std::fs::write(&trace_path, tr.to_json())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;

    let report = RunReport {
        workload: w.name.to_string(),
        seed: o.seed,
        trace: 1,
        attempted: cells.len() as u64,
        failed,
        digest,
        digest_matches,
        samples: vec![
            ("cells", cells.len() as u64),
            ("spans", tr.spans.len() as u64),
            ("hold_samples", hold_samples),
            ("threads", threads as u64),
        ],
        notes: vec![("cli_wall_s", cli_wall_s), ("pass_wall_s", pass_wall_s)],
        metrics,
    };
    // Retransmits per load balancer: which cells pay for recovery.
    let mut by_lb: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for r in &results {
        *by_lb.entry(&r.lb).or_default() += r.summary.counters.retransmissions;
    }
    let by_lb: Vec<String> = by_lb.iter().map(|(lb, n)| format!("{lb}={n}")).collect();
    report.publish(
        &o.out,
        &[
            format!("transport.retransmits by lb: {}", by_lb.join(" ")),
            format!("spans written to {}", trace_path.display()),
        ],
    )
}
