//! Declarative scenario grids and their expansion into runnable cells.
//!
//! A [`ScenarioMatrix`] is the cartesian product of labeled axes, one per
//! row of the registry [`crate::axis::AXES`] (`fabric × workload × failure
//! × ... × lb × seed`). [`ScenarioMatrix::expand`] flattens it into
//! independent [`Cell`]s; each cell's RNG seed is derived by hashing its
//! *key* (the `/`-joined axis labels), so results depend only on what the
//! cell *is* — never on thread count, completion order or which other
//! cells a filter selected.

use baselines::kind::LbKind;
use harness::experiment::{Experiment, Summary};
use netsim::time::Time;
use netsim::topology::Topology;
use reps::reps::RepsConfig;
use transport::cc::CcKind;
use transport::config::CoalesceConfig;

use crate::axis::{self, AXES};
use crate::fault::FaultSpec;
use crate::fidelity::FidelitySpec;
use crate::series::series_doc;
use crate::spec::{FabricSpec, FailureSpec, SimProfile, WorkloadSpec};
use crate::store::DocKind;

/// FNV-1a 64-bit: the stable cell-key hash. Never change these constants —
/// every recorded per-cell seed depends on them.
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Salt of the failure axis's random stream: the cell's derived seed XOR
/// this seeds its picks.
const FAILURE_STREAM: u64 = 0x4641_494c_5f32_5f32;
/// Salt of the fault axis's random stream, distinct from the failure
/// axis's so neither axis's picks move the other's.
const FAULT_STREAM: u64 = 0x4641_554c_5f34_5f34;

/// An [`LbKind`] with a stable axis label. Labels are derived from the
/// LB-spec grammar ([`LbKind::spec`]): a default configuration labels as
/// its bare family name, a tuned one as `Family{key=value,...}` — unique
/// per distinct configuration by construction, so parameter ablations need
/// no hand-rolled label strings.
#[derive(Debug, Clone)]
pub struct LabeledLb {
    /// Stable label used in cell keys (the canonical spec string).
    pub label: String,
    /// The scheme.
    pub kind: LbKind,
}

impl LabeledLb {
    /// Labels a scheme with its canonical spec string ([`LbKind::spec`]).
    pub fn plain(kind: LbKind) -> LabeledLb {
        LabeledLb {
            label: kind.spec(),
            kind,
        }
    }

    /// Parses any spelling of an LB spec ([`LbKind::parse`]) and labels it
    /// canonically: spelled-out defaults, reordered parameters and braced
    /// equivalents of the legacy forms land on one cell key, derived seed,
    /// shard and cache address.
    pub fn parse(s: &str) -> Result<LabeledLb, String> {
        LbKind::parse(s).map(LabeledLb::plain)
    }
}

/// A declarative scenario grid.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Preset name; the first component of every cell key.
    pub name: String,
    /// Fabric axis.
    pub fabrics: Vec<FabricSpec>,
    /// Load-balancer axis.
    pub lbs: Vec<LabeledLb>,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Failure-plan axis.
    pub failures: Vec<FailureSpec>,
    /// Seed axis (logical seed indices).
    pub seeds: Vec<u32>,
    /// Congestion-controller axis (default `[Dctcp]`).
    pub ccs: Vec<CcKind>,
    /// ACK-coalescing axis as `(label, config)` (default per-packet).
    pub coalesce: Vec<(String, CoalesceConfig)>,
    /// Routing-reconvergence axis: how long after a failure switches keep
    /// spraying onto the dead path (`None` = never reconverge, the paper's
    /// pessimistic default). The default single-`None` axis is *omitted*
    /// from cell keys so pre-existing derived seeds, shard membership and
    /// cache addresses survive the axis addition.
    pub reconv: Vec<Option<Time>>,
    /// Series vantage-point axis: which ToR's uplinks `--series` tracks
    /// (per-cell, so one grid can record several vantage points). The
    /// default ToR 0 is *omitted* from cell keys — like `reconv`, the axis
    /// addition is invisible to every pre-existing cell.
    pub track: Vec<u32>,
    /// Adversarial-fault axis ([`FaultSpec`]): gray failures, payload
    /// corruption, flapping, unidirectional blackholes. The default
    /// single-`None` axis is *omitted* from cell keys — like `reconv` and
    /// `track`, the axis addition is invisible to every pre-existing cell.
    pub faults: Vec<FaultSpec>,
    /// Fidelity axis ([`FidelitySpec`]): full packet fidelity or fluid
    /// background over packet foreground. The default single-`Pkt` axis is
    /// *omitted* from cell keys — like `reconv`, `track` and `faults`, the
    /// axis addition is invisible to every pre-existing cell.
    pub fidelities: Vec<FidelitySpec>,
    /// Simulator profile for every cell.
    pub sim: SimProfile,
    /// Optional background traffic applied to every cell.
    pub background: Option<(WorkloadSpec, LbKind)>,
    /// Per-cell simulated-time deadline.
    pub deadline: Time,
}

impl ScenarioMatrix {
    /// A matrix with single-element default axes; chain the builder methods
    /// to widen the axes you sweep.
    pub fn new(name: impl Into<String>) -> ScenarioMatrix {
        ScenarioMatrix {
            name: name.into(),
            fabrics: vec![FabricSpec::two_tier(8, 1)],
            lbs: vec![
                LabeledLb::plain(LbKind::Ops { evs_size: 1 << 16 }),
                LabeledLb::plain(LbKind::Reps(RepsConfig::default())),
            ],
            workloads: vec![WorkloadSpec::Tornado { bytes: 256 << 10 }],
            failures: vec![FailureSpec::None],
            seeds: vec![0],
            ccs: vec![CcKind::Dctcp],
            coalesce: vec![("pp".to_string(), CoalesceConfig::per_packet())],
            reconv: vec![None],
            track: vec![0],
            faults: vec![FaultSpec::None],
            fidelities: vec![FidelitySpec::Pkt],
            sim: SimProfile::PaperDefault,
            background: None,
            deadline: Time::from_secs(2),
        }
    }

    /// Replaces the fabric axis.
    pub fn fabrics(mut self, fabrics: impl IntoIterator<Item = FabricSpec>) -> Self {
        self.fabrics = fabrics.into_iter().collect();
        self
    }

    /// Replaces the load-balancer axis.
    pub fn lbs(mut self, lbs: impl IntoIterator<Item = LabeledLb>) -> Self {
        self.lbs = lbs.into_iter().collect();
        self
    }

    /// Replaces the workload axis.
    pub fn workloads(mut self, w: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads = w.into_iter().collect();
        self
    }

    /// Replaces the failure axis.
    pub fn failures(mut self, f: impl IntoIterator<Item = FailureSpec>) -> Self {
        self.failures = f.into_iter().collect();
        self
    }

    /// Replaces the seed axis with `0..n`.
    pub fn seeds(mut self, n: u32) -> Self {
        self.seeds = (0..n.max(1)).collect();
        self
    }

    /// Replaces the congestion-controller axis.
    pub fn ccs(mut self, ccs: impl IntoIterator<Item = CcKind>) -> Self {
        self.ccs = ccs.into_iter().collect();
        self
    }

    /// Replaces the ACK-coalescing axis.
    pub fn coalesce(mut self, co: impl IntoIterator<Item = (String, CoalesceConfig)>) -> Self {
        self.coalesce = co.into_iter().collect();
        self
    }

    /// Replaces the routing-reconvergence axis (`None` = never).
    pub fn reconv(mut self, delays: impl IntoIterator<Item = Option<Time>>) -> Self {
        self.reconv = delays.into_iter().collect();
        self
    }

    /// Replaces the series vantage-point axis (tracked ToR indices).
    pub fn track(mut self, tors: impl IntoIterator<Item = u32>) -> Self {
        self.track = tors.into_iter().collect();
        self
    }

    /// Replaces the adversarial-fault axis.
    pub fn faults(mut self, faults: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Replaces the fidelity axis.
    pub fn fidelities(mut self, f: impl IntoIterator<Item = FidelitySpec>) -> Self {
        self.fidelities = f.into_iter().collect();
        self
    }

    /// Sets the simulator profile.
    pub fn sim(mut self, sim: SimProfile) -> Self {
        self.sim = sim;
        self
    }

    /// Adds background traffic to every cell.
    pub fn background(mut self, w: WorkloadSpec, lb: LbKind) -> Self {
        self.background = Some((w, lb));
        self
    }

    /// Sets the per-cell deadline.
    pub fn deadline(mut self, deadline: Time) -> Self {
        self.deadline = deadline;
        self
    }

    /// Number of cells the matrix expands to.
    pub fn len(&self) -> usize {
        AXES.iter().map(|axis| (axis.len)(self)).product()
    }

    /// Whether any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that the grid expands into cells that can all run: no axis
    /// is empty, no axis label repeats (duplicates would collide in the
    /// cell key and silently share seeds), no failure or fault schedules
    /// an instant past [`Time::MAX`], and every fabric has the tracked
    /// ToRs, the cables each fault takes and the hosts each workload
    /// needs. The error names the offending axis.
    pub fn check(&self) -> Result<(), (&'static str, String)> {
        for axis in &AXES {
            let mut seen = std::collections::BTreeSet::new();
            for label in axis.labels(self) {
                if let Some(l) = seen.replace(label) {
                    return Err((axis.name, format!("duplicate {} label {l:?}", axis.name)));
                }
            }
            if seen.is_empty() {
                return Err((axis.name, format!("the {} axis is empty", axis.name)));
            }
        }
        let failures = self.failures.iter().map(|f| ("failure", f.check()));
        let faults = self.faults.iter().map(|f| ("fault", f.check()));
        for (axis, checked) in failures.chain(faults) {
            checked.map_err(|msg| (axis, msg))?;
        }
        for fabric in &self.fabrics {
            let (label, cfg) = (&fabric.label, &fabric.config);
            let tors = cfg.n_tors();
            if let Some(tor) = self.track.iter().find(|&&t| t >= tors) {
                let msg =
                    format!("tracked ToR {tor} does not exist in fabric {label} ({tors} ToRs)");
                return Err(("track", msg));
            }
            let cables = cfg.n_cables();
            if let Some(f) = self.faults.iter().find(|f| u64::from(f.cables()) > cables) {
                let (fault, n) = (f.label(), f.cables());
                let msg = format!("fault {fault:?} needs {n} cables, fabric {label} has {cables}");
                return Err(("fault", msg));
            }
            let workloads = self.workloads.iter().map(|w| ("workload", w));
            let background = self.background.iter().map(|(w, _)| ("background", w));
            for (axis, w) in workloads.chain(background) {
                if let Err(e) = w.fits(cfg.n_hosts()) {
                    return Err((
                        axis,
                        format!("workload {} on fabric {label}: {e}", w.label()),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Expands the cartesian grid into independent cells, in registry
    /// order: the first row of [`AXES`] turns slowest, `seed` fastest.
    ///
    /// # Panics
    ///
    /// Panics when [`ScenarioMatrix::check`] fails.
    pub fn expand(&self) -> Vec<Cell> {
        if let Err((_, msg)) = self.check() {
            panic!("matrix {:?}: {msg}", self.name);
        }
        let lens: Vec<usize> = AXES.iter().map(|axis| (axis.len)(self)).collect();
        let mut at = vec![0; AXES.len()];
        let mut cell = self.first_cell();
        let mut cells = Vec::with_capacity(self.len());
        loop {
            cells.push(cell.clone());
            // An odometer: the last axis that can still advance turns, and
            // every axis after it starts over.
            let Some(r) = (0..AXES.len()).rev().find(|&r| at[r] + 1 < lens[r]) else {
                return cells;
            };
            at[r] += 1;
            at[r + 1..].fill(0);
            for (axis, &i) in AXES[r..].iter().zip(&at[r..]) {
                (axis.pick)(&mut cell, self, i);
            }
        }
    }

    /// The cell at the first value of every axis.
    fn first_cell(&self) -> Cell {
        Cell {
            preset: self.name.clone(),
            fabric: self.fabrics[0].clone(),
            lb: self.lbs[0].clone(),
            workload: self.workloads[0].clone(),
            failures: self.failures[0].clone(),
            cc: self.ccs[0],
            coalesce: self.coalesce[0].clone(),
            reconv: self.reconv[0],
            track: self.track[0],
            fault: self.faults[0].clone(),
            fidelity: self.fidelities[0],
            sim: self.sim,
            background: self.background.clone(),
            seed: self.seeds[0],
            deadline: self.deadline,
        }
    }
}

/// One fully-specified point of a matrix: everything needed to build and
/// run a [`harness::Experiment`], independent of every other cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Owning preset name.
    pub preset: String,
    /// Fabric shape.
    pub fabric: FabricSpec,
    /// Load balancer.
    pub lb: LabeledLb,
    /// Workload description.
    pub workload: WorkloadSpec,
    /// Failure description.
    pub failures: FailureSpec,
    /// Congestion controller.
    pub cc: CcKind,
    /// Coalescing policy with its axis label.
    pub coalesce: (String, CoalesceConfig),
    /// Routing-reconvergence delay (`None` = never reconverge).
    pub reconv: Option<Time>,
    /// ToR whose uplinks the series sink tracks (0 = the default vantage).
    pub track: u32,
    /// Adversarial fault injected into the cell (`None` = healthy).
    pub fault: FaultSpec,
    /// Modelling fidelity (`Pkt` = everything packet-level).
    pub fidelity: FidelitySpec,
    /// Simulator profile.
    pub sim: SimProfile,
    /// Optional background traffic.
    pub background: Option<(WorkloadSpec, LbKind)>,
    /// Logical seed index (the seed-axis value, not the RNG seed).
    pub seed: u32,
    /// Simulated-time deadline.
    pub deadline: Time,
}

impl Cell {
    /// The stable, fully self-describing cell key. Everything that affects
    /// the cell's outcome appears here — including the simulator profile,
    /// background traffic and deadline — so equal keys imply equal results
    /// and the derived RNG seed can be the key's hash.
    pub fn key(&self) -> String {
        axis::render_key(self, &AXES)
    }

    /// The scenario key: the cell key minus the load-balancer and seed
    /// components. Cells sharing a scenario key form one comparison row
    /// group in reports.
    ///
    /// The reconvergence (`rc=...`), vantage (`tk=...`), fault (`ft=...`)
    /// and fidelity (`fi=...`) components are only present when their axes
    /// are set ([`axis::KeyForm::Omit`]): the defaults render exactly the
    /// pre-axis key, so derived seeds, shard membership and cache addresses
    /// of every pre-existing cell are unchanged (pinned by
    /// `tests/key_stability.rs`).
    pub fn scenario(&self) -> String {
        axis::render_key(self, axis::scenario_axes())
    }

    /// The cell's RNG seed, derived from [`Cell::key`] alone — byte-stable
    /// across thread counts, run orders and filter sets.
    pub fn derived_seed(&self) -> u64 {
        fnv1a64(&self.key())
    }

    /// Builds the experiment for this cell.
    pub fn experiment(&self) -> Experiment {
        let seed = self.derived_seed();
        let mut sim = self.sim.config();
        if self.reconv.is_some() {
            sim.ecmp_failover = self.reconv;
        }
        let n = self.fabric.config.n_hosts();
        // Distinct derived streams per role so adding an axis value never
        // perturbs an existing cell's draws.
        let mut wl_rng = netsim::rng::Rng64::new(seed ^ 0x5741_4c4f_4144_5f31);
        let workload = self.workload.build(n, sim.link_bps, &mut wl_rng);
        // The failure and fault axes build against one topology, made only
        // when either is set. Each draws from its own derived stream, and
        // the fault's failures install after the failure axis's (the order
        // fixes calendar ties), so a `fault=none` cell installs exactly
        // the pre-axis plan and a faulted cell perturbs nothing else.
        let mut failures = Vec::new();
        if !matches!(self.failures, FailureSpec::None) || !self.fault.is_none() {
            let topo = Topology::build(self.fabric.config.clone(), seed);
            failures = self.failures.build(&topo, seed ^ FAILURE_STREAM);
            failures.extend(self.fault.build(&topo, seed ^ FAULT_STREAM, self.deadline));
        }
        let mut exp = Experiment::new(
            self.key(),
            self.fabric.config.clone(),
            self.lb.kind.clone(),
            workload,
        );
        exp.sim = sim;
        exp.cc = self.cc;
        exp.coalesce = self.coalesce.1;
        exp.failures = failures;
        exp.seed = seed;
        exp.deadline = self.deadline;
        if let Some((bg_spec, bg_lb)) = &self.background {
            let mut bg_rng = netsim::rng::Rng64::new(seed ^ 0x4247_5f33_4247_5f33);
            let bg = bg_spec.build(n, exp.sim.link_bps, &mut bg_rng);
            exp.background = Some((bg, bg_lb.clone()));
        }
        // Hybrid fidelity swaps the background to the fluid model; with no
        // background workload it is a no-op (but still keyed, so the cell
        // is honest about what it asked for).
        exp.fluid_background = !self.fidelity.is_pkt();
        exp
    }

    /// Runs the cell to completion, uninstrumented.
    pub fn run(&self) -> CellResult {
        self.run_instrumented(&[], false).result
    }

    /// Runs the cell with any combination of opt-in instrumentation: one
    /// document per requested kind in `kinds` — per-link time series
    /// ([`crate::series`]) and the flight-recorder trace
    /// ([`crate::trace`]) — and, with `diagnostics`, per-LB decision
    /// counters in the summary
    /// ([`harness::experiment::Experiment::diagnostics`]).
    ///
    /// Series and trace instrumentation only *read* simulation state, so
    /// the byte-stable result record is identical to [`Cell::run`]'s;
    /// diagnostics add an extra block to the summary JSON, which is why
    /// they are a separate opt-in (pinned by `tests/series.rs` and
    /// `tests/trace.rs`).
    pub fn run_instrumented(&self, kinds: &[DocKind], diagnostics: bool) -> InstrumentedRun {
        let mut exp = self.experiment();
        exp.diagnostics = diagnostics;
        let series = kinds.contains(&DocKind::Series);
        if series {
            exp.track = Some((self.track, self.deadline.min(crate::series::SAMPLE_HORIZON)));
        }
        let mut docs = Vec::new();
        let result = if kinds.contains(&DocKind::Trace) {
            let res = exp.run_traced(netsim::trace::Recorder::new());
            let trace = crate::trace::trace_doc(self, &res.engine.trace.events);
            docs.push((DocKind::Trace, trace));
            docs.extend(series.then(|| (DocKind::Series, series_doc(self, &res.engine))));
            self.result_from(res)
        } else {
            let res = exp.run();
            docs.extend(series.then(|| (DocKind::Series, series_doc(self, &res.engine))));
            self.result_from(res)
        };
        InstrumentedRun { result, docs }
    }

    fn result_from<S: netsim::trace::TraceSink>(
        &self,
        res: harness::experiment::RunResult<S>,
    ) -> CellResult {
        CellResult {
            key: self.key(),
            scenario: self.scenario(),
            lb: self.lb.label.clone(),
            seed: self.seed,
            derived_seed: self.derived_seed(),
            events: res.engine.events_processed,
            wall_ns: res.wall_ns,
            batches: res.engine.batch_stats.batches,
            max_batch: res.engine.batch_stats.max_batch,
            chained_services: res.engine.batch_stats.chained_services,
            kinds: res.engine.batch_stats.kinds,
            lookahead_hints: res.engine.batch_stats.lookahead_hints,
            calendar: res.engine.batch_stats.calendar,
            arena_high_water: res.engine.arena.high_water() as u64,
            arena_wide_high_water: res.engine.arena.wide_high_water() as u64,
            fluid: res
                .engine
                .fluid
                .as_ref()
                .map(|f| f.counters)
                .unwrap_or_default(),
            summary: res.summary,
        }
    }
}

/// The outputs of [`Cell::run_instrumented`].
#[derive(Debug, Clone)]
pub struct InstrumentedRun {
    /// The cell outcome (summary carries diagnostics when requested).
    pub result: CellResult,
    /// One canonical document per requested sidecar kind.
    pub docs: Vec<(DocKind, String)>,
}

impl InstrumentedRun {
    /// The document of `kind`, when requested.
    pub fn doc(&self, kind: DocKind) -> Option<&str> {
        let (_, doc) = self.docs.iter().find(|(k, _)| *k == kind)?;
        Some(doc)
    }
}

/// The outcome of one cell.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    /// The cell key.
    pub key: String,
    /// The scenario (comparison-group) key.
    pub scenario: String,
    /// Load-balancer axis label.
    pub lb: String,
    /// Logical seed index.
    pub seed: u32,
    /// The RNG seed the cell actually ran with.
    pub derived_seed: u64,
    /// Simulator events processed (deterministic for a fixed key).
    pub events: u64,
    /// Wall-clock nanoseconds in the event loop (nondeterministic; kept
    /// out of the byte-stable result JSONL — see [`crate::sink`]).
    pub wall_ns: u64,
    /// Same-timestamp batches the engine drained (deterministic for a
    /// fixed key; perf-stream only, like `events`).
    pub batches: u64,
    /// Largest same-timestamp batch observed (perf-stream only).
    pub max_batch: u64,
    /// Link services chained without a calendar round-trip
    /// (perf-stream only).
    pub chained_services: u64,
    /// Events dispatched by kind; they sum to `events` (perf-stream
    /// only).
    pub kinds: netsim::engine::EventKinds,
    /// Events the batch look-ahead's second stage hinted for
    /// (perf-stream only).
    pub lookahead_hints: u64,
    /// Event-queue work counters at the end of the run (deterministic
    /// for a fixed key; perf-stream only).
    pub calendar: netsim::event::CalendarStats,
    /// Packet-arena slot high-water mark: the peak number of packets in
    /// the fabric at once (deterministic for a fixed key; perf-stream
    /// only).
    pub arena_high_water: u64,
    /// The most ACKs the arena parked in its slab at once — those too wide
    /// for a packet's record (deterministic for a fixed key; perf-stream
    /// only).
    pub arena_wide_high_water: u64,
    /// Fluid-solver counters at the end of the run, all zero for a cell
    /// without a fluid background (deterministic for a fixed key;
    /// perf-stream only).
    pub fluid: netsim::fluid::FluidCounters,
    /// Aggregate run metrics.
    pub summary: Summary,
}

#[cfg(test)]
mod tests {
    use netsim::trace::{Recorder, TraceEvent};

    use super::*;

    #[test]
    fn expansion_is_the_full_cartesian_product() {
        let m = ScenarioMatrix::new("t")
            .fabrics([FabricSpec::two_tier(8, 1)])
            .workloads([
                WorkloadSpec::Tornado { bytes: 1 << 16 },
                WorkloadSpec::Permutation { bytes: 1 << 16 },
            ])
            .failures([FailureSpec::None])
            .seeds(3);
        assert_eq!(m.len(), 2 * 2 * 3);
        let cells = m.expand();
        assert_eq!(cells.len(), 12);
        let keys: std::collections::BTreeSet<String> = cells.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), 12, "cell keys must be unique");
    }

    #[test]
    fn derived_seed_depends_only_on_the_key() {
        let m = ScenarioMatrix::new("t").seeds(2);
        let a = m.expand();
        let b = m.expand();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.derived_seed(), y.derived_seed());
        }
        // Different seed-axis values give different derived seeds.
        assert_ne!(a[0].derived_seed(), a[1].derived_seed());
    }

    #[test]
    #[should_panic(expected = "duplicate lb label")]
    fn duplicate_lb_labels_are_rejected() {
        ScenarioMatrix::new("t")
            .lbs([
                LabeledLb::plain(LbKind::Reps(RepsConfig::default())),
                LabeledLb::plain(LbKind::Reps(RepsConfig::default())),
            ])
            .expand();
    }

    #[test]
    #[should_panic(expected = "duplicate cc label")]
    fn duplicate_cc_axis_is_rejected() {
        ScenarioMatrix::new("t")
            .ccs([CcKind::Dctcp, CcKind::Dctcp])
            .expand();
    }

    #[test]
    fn key_encodes_sim_background_and_deadline() {
        let key = |m: ScenarioMatrix| m.expand()[0].key();
        let base = key(ScenarioMatrix::new("t"));
        let fpga = key(ScenarioMatrix::new("t").sim(SimProfile::FpgaTestbed));
        let bg = key(ScenarioMatrix::new("t")
            .background(WorkloadSpec::Tornado { bytes: 1 << 10 }, LbKind::Ecmp));
        let dl = key(ScenarioMatrix::new("t").deadline(Time::from_secs(5)));
        let keys = [&base, &fpga, &bg, &dl];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b, "axis change must change the key");
            }
        }
        assert!(base.contains("/sim=paper/"), "{base}");
        assert!(fpga.contains("/sim=fpga/"), "{fpga}");
        assert!(bg.contains("/bg=tornado-1024B+ECMP/"), "{bg}");
        assert!(
            dl.ends_with("us/lb=OPS/s=0") && dl.contains("/dl=5000000us/"),
            "{dl}"
        );
        // Every optional component, off its default, in registry order.
        let all = ScenarioMatrix::new("t")
            .reconv([Some(Time::from_us(25))])
            .track([3])
            .faults([FaultSpec::parse("gray").unwrap()])
            .fidelities([FidelitySpec::Hybrid]);
        assert_eq!(
            key(all),
            "t/2t-k8-o1/tornado-262144B/none/sim=paper/cc=DCTCP/co=pp/rc=25us/tk=3/ft=gray/fi=hybrid/bg=none/dl=2000000us/lb=OPS/s=0"
        );
    }

    #[test]
    fn parameterized_lbs_label_cells_with_their_spec() {
        let m = ScenarioMatrix::new("t").lbs([
            LabeledLb::plain(LbKind::Ops { evs_size: 64 }),
            LabeledLb::plain(LbKind::Reps(RepsConfig::default().without_freezing())),
        ]);
        let keys: Vec<String> = m.expand().iter().map(|c| c.key()).collect();
        assert!(keys[0].ends_with("/lb=OPS{evs=64}/s=0"), "{}", keys[0]);
        assert!(keys[1].ends_with("/lb=REPS-nofreeze/s=0"), "{}", keys[1]);
    }

    #[test]
    fn default_track_axis_leaves_keys_untouched() {
        let key = ScenarioMatrix::new("t").expand()[0].key();
        assert!(!key.contains("tk="), "{key}");
    }

    #[test]
    fn track_axis_is_keyed_and_reaches_the_series_vantage() {
        let m = ScenarioMatrix::new("t")
            .workloads([WorkloadSpec::Tornado { bytes: 16 << 10 }])
            .track([0, 3]);
        assert_eq!(m.len(), 2 * 2);
        let cells = m.expand();
        assert_eq!(cells[0].track, 0);
        assert!(!cells[0].key().contains("tk="), "{}", cells[0].key());
        assert_eq!(cells[2].track, 3);
        assert!(
            cells[2].key().contains("/co=pp/tk=3/bg="),
            "{}",
            cells[2].key()
        );
        assert_ne!(cells[0].derived_seed(), cells[2].derived_seed());
        // The vantage point reaches the series document: ToR 3's uplinks
        // are tracked instead of ToR 0's.
        let series = |c: &Cell| {
            let out = c.run_instrumented(&[DocKind::Series], false);
            out.doc(DocKind::Series)
                .map(str::to_string)
                .expect("series")
        };
        let (doc_t0, doc_t3) = (series(&cells[0]), series(&cells[2]));
        let links = |doc: &str| -> Vec<String> {
            doc.lines()
                .skip(1)
                .map(|l| {
                    harness::json::Value::parse(l)
                        .expect("record parses")
                        .get("link")
                        .expect("link field")
                        .render()
                })
                .collect()
        };
        assert_eq!(links(&doc_t0).len(), links(&doc_t3).len());
        assert_ne!(links(&doc_t0), links(&doc_t3));
    }

    #[test]
    #[should_panic(expected = "tracked ToR 9 does not exist")]
    fn out_of_range_track_vantage_is_rejected_at_expansion() {
        ScenarioMatrix::new("t").track([9]).expand();
    }

    #[test]
    fn parameterized_background_lb_is_keyed_by_its_spec() {
        let key = ScenarioMatrix::new("t")
            .background(
                WorkloadSpec::Tornado { bytes: 1 << 10 },
                LbKind::Ops { evs_size: 128 },
            )
            .expand()[0]
            .key();
        assert!(key.contains("/bg=tornado-1024B+OPS{evs=128}/"), "{key}");
    }

    #[test]
    fn fnv_is_the_reference_implementation() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn default_reconv_axis_leaves_keys_untouched() {
        // The exact pre-axis key shape: no `rc=` component anywhere. This
        // is what keeps every previously recorded derived seed, shard
        // assignment and cache address valid.
        let key = ScenarioMatrix::new("t").expand()[0].key();
        assert!(!key.contains("rc="), "{key}");
        assert_eq!(
            key,
            "t/2t-k8-o1/tornado-262144B/none/sim=paper/cc=DCTCP/co=pp/bg=none/dl=2000000us/lb=OPS/s=0"
        );
    }

    #[test]
    fn reconv_axis_is_keyed_and_seeded() {
        let m = ScenarioMatrix::new("t").reconv([None, Some(Time::from_us(25))]);
        assert_eq!(m.len(), 2 * 2);
        let cells = m.expand();
        let none = &cells[0];
        let some = &cells[2];
        assert_eq!(none.reconv, None);
        assert!(!none.key().contains("rc="), "{}", none.key());
        assert!(some.key().contains("/co=pp/rc=25us/bg="), "{}", some.key());
        assert_ne!(none.derived_seed(), some.derived_seed());
        // The delay reaches the simulator config; the default does not
        // override the profile.
        assert_eq!(none.experiment().sim.ecmp_failover, None);
        assert_eq!(some.experiment().sim.ecmp_failover, Some(Time::from_us(25)));
    }

    #[test]
    fn reconv_labels_pick_the_coarsest_exact_unit() {
        use crate::axis::reconv_label;
        assert_eq!(reconv_label(&None), "none");
        assert_eq!(reconv_label(&Some(Time::from_us(25))), "25us");
        assert_eq!(reconv_label(&Some(Time::from_ns(500))), "500ns");
        assert_eq!(reconv_label(&Some(Time(1_500_077))), "1500077ps");
    }

    #[test]
    #[should_panic(expected = "duplicate reconv label")]
    fn duplicate_reconv_axis_is_rejected() {
        ScenarioMatrix::new("t")
            .reconv([Some(Time::from_us(10)), Some(Time::from_us(10))])
            .expand();
    }

    #[test]
    fn default_fault_axis_leaves_keys_untouched() {
        // Same contract as `rc=`/`tk=`: `fault=none` renders the exact
        // pre-axis key, keeping recorded seeds and cache addresses valid.
        let key = ScenarioMatrix::new("t").expand()[0].key();
        assert!(!key.contains("ft="), "{key}");
    }

    #[test]
    fn fault_axis_is_keyed_and_installs_the_plan() {
        let m = ScenarioMatrix::new("t").faults([
            FaultSpec::None,
            FaultSpec::parse("gray{p=0.05,n=2}").unwrap(),
        ]);
        assert_eq!(m.len(), 2 * 2);
        let cells = m.expand();
        let none = &cells[0];
        let gray = &cells[2];
        assert!(none.fault.is_none());
        assert!(!none.key().contains("ft="), "{}", none.key());
        assert!(
            gray.key().contains("/co=pp/ft=gray{p=0.05,n=2}/bg="),
            "{}",
            gray.key()
        );
        assert_ne!(none.derived_seed(), gray.derived_seed());
        // The plan reaches the experiment: two extra failures, appended
        // after the (here empty) failure-axis plan.
        assert!(none.experiment().failures.is_empty());
        assert_eq!(gray.experiment().failures.len(), 2);
    }

    #[test]
    fn fault_plan_expansion_is_deterministic() {
        let m = ScenarioMatrix::new("t").faults([FaultSpec::parse("flap{period=40us}").unwrap()]);
        let cell = &m.expand()[0];
        let dump = |c: &Cell| format!("{:?}", c.experiment().failures);
        assert_eq!(dump(cell), dump(cell));
    }

    /// One cell with both failure axes set: a random-cable failure, whose
    /// picks draw from the failure stream, and a gray fault on `n` cables.
    fn failure_and_fault_cell() -> Cell {
        ScenarioMatrix::new("t")
            .failures([FailureSpec::parse("cables25pct-at10us-perm").unwrap()])
            .faults([FaultSpec::parse("gray{n=3}").unwrap()])
            .expand()
            .remove(0)
    }

    #[test]
    fn fault_picks_the_same_cables_when_the_failure_axis_is_set() {
        // The fault draws from its own stream: the failure axis's shuffle
        // before it moves none of its picks.
        let cell = failure_and_fault_cell();
        let seed = cell.derived_seed();
        let topo = Topology::build(cell.fabric.config.clone(), seed);
        let alone = cell.fault.build(&topo, seed ^ FAULT_STREAM, cell.deadline);
        let failures = cell.experiment().failures;
        assert_eq!(alone.len(), 3);
        let tail = &failures[failures.len() - alone.len()..];
        assert_eq!(format!("{tail:?}"), format!("{alone:?}"));
    }

    #[test]
    fn failure_axis_entries_install_before_fault_axis_entries() {
        // Both onsets are 10us: the calendar runs tied controls in push
        // order, so the trace shows the install order.
        let cell = failure_and_fault_cell();
        let exp = cell.experiment();
        let cuts = exp.failures.len() - 3;
        assert!(cuts > 0);
        let mut engine = exp.build_traced(Recorder::new());
        engine.run_until(Time::from_us(10));
        let order: String = engine
            .trace
            .events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::LinkDown { .. } => Some('d'),
                TraceEvent::LinkGray { .. } => Some('g'),
                _ => None,
            })
            .collect();
        assert_eq!(order, "d".repeat(2 * cuts) + &"g".repeat(2 * 3));
    }

    #[test]
    #[should_panic(expected = "schedules an instant past the end of time")]
    fn wrapping_failure_schedule_is_rejected_at_expansion() {
        // Each duration fits, but the wave's second heal would wrap: a
        // builder-made grid is checked like a spec file's.
        ScenarioMatrix::new("t")
            .failures([FailureSpec::Rolling {
                count: 2,
                period: Time::from_us(9_223_372_036_855),
                down_for: Time::from_us(5),
            }])
            .expand();
    }

    #[test]
    #[should_panic(expected = "duplicate fault label")]
    fn duplicate_fault_axis_is_rejected() {
        // Two spellings of the same fault share a canonical label, so they
        // must collide rather than silently share a cell key.
        ScenarioMatrix::new("t")
            .faults([
                FaultSpec::parse("gray").unwrap(),
                FaultSpec::parse("gray{p=0.01,at=10us}").unwrap(),
            ])
            .expand();
    }

    #[test]
    fn default_fidelity_axis_leaves_keys_untouched() {
        // Same contract as `rc=`/`tk=`/`ft=`: `fidelity=pkt` renders the
        // exact pre-axis key, keeping recorded seeds and cache addresses
        // valid.
        let key = ScenarioMatrix::new("t").expand()[0].key();
        assert!(!key.contains("fi="), "{key}");
    }

    #[test]
    fn fidelity_axis_is_keyed_and_reaches_the_experiment() {
        let m = ScenarioMatrix::new("t")
            .workloads([WorkloadSpec::Tornado { bytes: 16 << 10 }])
            .background(WorkloadSpec::Tornado { bytes: 8 << 10 }, LbKind::Ecmp)
            .fidelities([FidelitySpec::Pkt, FidelitySpec::Hybrid]);
        assert_eq!(m.len(), 2 * 2);
        let cells = m.expand();
        let pkt = &cells[0];
        let hybrid = &cells[2];
        assert!(pkt.fidelity.is_pkt());
        assert!(!pkt.key().contains("fi="), "{}", pkt.key());
        assert!(
            hybrid.key().contains("/co=pp/fi=hybrid/bg="),
            "{}",
            hybrid.key()
        );
        assert_ne!(pkt.derived_seed(), hybrid.derived_seed());
        assert!(!pkt.experiment().fluid_background);
        assert!(hybrid.experiment().fluid_background);
        // Hybrid cells run, complete, and stay deterministic.
        let a = hybrid.run();
        let b = hybrid.run();
        assert!(a.summary.completed);
        assert_eq!(crate::sink::jsonl_record(&a), crate::sink::jsonl_record(&b));
    }

    #[test]
    fn cell_runs_and_summarizes() {
        let m = ScenarioMatrix::new("smoke").workloads([WorkloadSpec::Tornado { bytes: 64 << 10 }]);
        let cell = &m.expand()[0];
        let res = cell.run();
        assert!(res.summary.completed);
        assert_eq!(res.key, cell.key());
        assert_eq!(res.derived_seed, cell.derived_seed());
    }
}
