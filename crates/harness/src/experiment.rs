//! Experiment assembly: topology + transport + workload + failures → run.
//!
//! [`Experiment`] is the single entry point every sweep cell runs
//! through: it builds the engine, installs endpoints configured with the
//! chosen load balancer / congestion controller / coalescing policy,
//! registers the workload's start rules and dependency triggers, schedules
//! failures, runs to completion and summarizes.

use std::rc::Rc;

use baselines::kind::LbKind;
use netsim::config::SimConfig;
use netsim::engine::{Engine, MessageSpec};
use netsim::event::ControlEvent;
use netsim::failures::{self, Failure};
use netsim::ids::HostId;
use netsim::stats::Counters;
use netsim::time::Time;
use netsim::topology::{FatTreeConfig, Topology};
use netsim::trace::{NoTrace, TraceSink};
use transport::cc::CcKind;
use transport::config::{CoalesceConfig, TransportConfig, BACKGROUND_BIT};
use transport::endpoint::HostEndpoint;
use workloads::spec::{StartRule, Workload};

/// Window ceiling as a multiple of the path BDP: enough headroom for the
/// micro figures to ride out transient collisions.
const MAX_CWND_BDP: f64 = 1.5;

/// A fully-specified experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Name for reports.
    pub name: String,
    /// Fabric profile.
    pub sim: SimConfig,
    /// Topology shape.
    pub fabric: FatTreeConfig,
    /// Load balancer under test.
    pub lb: LbKind,
    /// Congestion controller.
    pub cc: CcKind,
    /// ACK coalescing policy.
    pub coalesce: CoalesceConfig,
    /// Foreground workload.
    pub workload: Workload,
    /// Background workload (ECMP-class traffic for the mixed scenarios).
    pub background: Option<(Workload, LbKind)>,
    /// Model the background workload as fluid flows (hybrid fidelity)
    /// instead of packets: analytic max-min rate shares re-solved only on
    /// control events, folded into the links' effective rates. The
    /// background LB kind is ignored in fluid mode (the fluid model routes
    /// per-flow by deterministic ECMP). No effect without `background`.
    pub fluid_background: bool,
    /// Failures, installed in order.
    pub failures: Vec<Failure>,
    /// RNG seed (topology salts, EV draws, arrival jitter).
    pub seed: u64,
    /// Give up after this much simulated time.
    pub deadline: Time,
    /// Timeseries tracking, `(tor, until)`: record the uplinks of ToR
    /// `tor` and sample their queues periodically until `until` (`None`
    /// tracks and samples nothing, the cheap default).
    pub track: Option<(u32, Time)>,
    /// Collect per-LB decision counters into [`Summary::diagnostics`]
    /// (opt-in: the block changes the summary's JSONL bytes).
    pub diagnostics: bool,
}

impl Experiment {
    /// A new experiment with paper-default fabric parameters.
    pub fn new(
        name: impl Into<String>,
        fabric: FatTreeConfig,
        lb: LbKind,
        workload: Workload,
    ) -> Experiment {
        Experiment {
            name: name.into(),
            sim: SimConfig::paper_default(),
            fabric,
            lb,
            cc: CcKind::Dctcp,
            coalesce: CoalesceConfig::default(),
            workload,
            background: None,
            fluid_background: false,
            failures: Vec::new(),
            seed: 1,
            deadline: Time::from_ms(500),
            track: None,
            diagnostics: false,
        }
    }

    /// Builds the engine with all endpoints and schedules installed.
    pub fn build(&self) -> Engine<NoTrace, HostEndpoint> {
        self.build_traced(NoTrace)
    }

    /// [`Experiment::build`] with a caller-supplied flight-recorder sink
    /// (the `--trace` path). Everything else is identical, so a traced run
    /// replays the exact same simulation.
    pub fn build_traced<S: TraceSink>(&self, trace: S) -> Engine<S, HostEndpoint> {
        let topo = Topology::build(self.fabric.clone(), self.seed);
        let n = topo.n_hosts;
        let mut engine = Engine::with_trace(topo, self.sim.clone(), self.seed, trace);
        engine.routing = self.lb.routing_mode();

        // Worst-case one-way switch hops of the fabric, for the BDP estimate.
        let max_hops = if self.fabric.tiers == 2 { 3 } else { 5 };
        let mut tcfg = TransportConfig::from_sim(&engine.cfg, max_hops, self.lb.clone())
            .with_cc(self.cc)
            .with_coalesce(self.coalesce);
        tcfg.cc_params.max_cwnd = (tcfg.cc_params.init_cwnd as f64 * MAX_CWND_BDP) as u64;
        if let Some((_, bg_lb)) = &self.background {
            tcfg = tcfg.with_background_lb(bg_lb.clone());
        }
        let tcfg = Rc::new(tcfg);

        // Assemble the per-host message schedules and triggers.
        let mut endpoints: Vec<HostEndpoint> = (0..n)
            .map(|h| HostEndpoint::new(HostId(h), n, engine.cfg.link_bps, Rc::clone(&tcfg)))
            .collect();

        let mut expected = 0usize;
        let mut install = |w: &Workload, tag_bit: u64, flow_base: u32| {
            for f in &w.flows {
                let spec = MessageSpec {
                    flow: netsim::ids::FlowId(f.flow.0 + flow_base),
                    dst: f.dst,
                    bytes: f.bytes,
                    tag: f.tag | tag_bit,
                };
                let ep = &mut endpoints[f.src.index()];
                match f.start {
                    StartRule::At(t) => ep.schedule_message(t, spec),
                    StartRule::OnReceive { tag } => ep.trigger_on_receive(tag | tag_bit, spec),
                    StartRule::OnSendComplete { tag } => {
                        ep.trigger_on_send_complete(tag | tag_bit, spec)
                    }
                }
            }
        };
        install(&self.workload, 0, 0);
        expected += self.workload.len();
        if let Some((bg, _)) = &self.background {
            if !self.fluid_background {
                install(bg, BACKGROUND_BIT, self.workload.len() as u32);
            }
            expected += bg.len();
        }

        for (h, ep) in endpoints.into_iter().enumerate() {
            engine.set_endpoint(HostId(h as u32), ep);
        }
        for h in 0..n {
            engine.schedule_control(Time::ZERO, ControlEvent::HostStart(HostId(h)));
        }

        failures::install(&self.failures, &mut engine);
        engine.stats.expected_flows = expected;

        // Hybrid fidelity: the background workload becomes a fluid
        // population instead of packets. Same flow ids (base-offset past
        // the foreground), so the summary's fg/bg split and the completion
        // accounting are oblivious to the modelling fidelity.
        if self.fluid_background {
            if let Some((bg, _)) = &self.background {
                let flow_base = self.workload.len() as u32;
                let mut fluid = netsim::fluid::FluidNet::new(engine.links.len());
                for f in &bg.flows {
                    let start = match f.start {
                        StartRule::At(t) => t,
                        // Trigger rules have no meaning without per-packet
                        // progress; fluid flows start immediately.
                        StartRule::OnReceive { .. } | StartRule::OnSendComplete { .. } => {
                            Time::ZERO
                        }
                    };
                    fluid.add_flow(
                        &engine.topo,
                        f.flow.0 + flow_base,
                        f.src,
                        f.dst,
                        f.bytes,
                        start,
                    );
                }
                fluid.finalize();
                engine.attach_fluid(fluid);
            }
        }

        if let Some((tor, until)) = self.track {
            for l in engine.topo.switches[tor as usize].up_links.iter() {
                engine.stats.track_link(l);
            }
            engine.enable_sampling(until);
        }
        engine
    }

    /// Builds and runs to completion (or deadline), returning the engine for
    /// inspection plus a summary.
    pub fn run(&self) -> RunResult {
        self.run_traced(NoTrace)
    }

    /// [`Experiment::run`] with a caller-supplied flight-recorder sink; the
    /// filled sink rides back on [`RunResult::engine`].
    pub fn run_traced<S: TraceSink>(&self, trace: S) -> RunResult<S> {
        let mut engine = self.build_traced(trace);
        // detlint: allow(DET002) — wall_ns perf measurement; reaches the perf JSONL only, never result bytes
        let started = std::time::Instant::now();
        let completed = engine.run_to_completion(self.deadline);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let summary = Summary::from_engine(self, &engine, completed);
        RunResult {
            summary,
            wall_ns,
            engine,
        }
    }
}

/// The outcome of one experiment run.
pub struct RunResult<S: TraceSink = NoTrace> {
    /// The engine, for timeseries extraction (`engine.events_processed`
    /// carries the event count for events/sec accounting, and
    /// `engine.trace` the filled flight-recorder sink).
    pub engine: Engine<S, HostEndpoint>,
    /// Aggregate summary.
    pub summary: Summary,
    /// Wall-clock nanoseconds spent inside the event loop (excludes
    /// engine construction). Nondeterministic by nature — reported through
    /// the sweep perf sink, never through the byte-stable summary JSONL.
    pub wall_ns: u64,
}

/// Aggregate metrics of one run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Experiment name.
    pub name: String,
    /// Load balancer label.
    pub lb: String,
    /// Whether every expected flow finished before the deadline.
    pub completed: bool,
    /// Foreground flows completed.
    pub fg_flows: usize,
    /// Maximum foreground flow completion time (workload runtime).
    pub max_fct: Time,
    /// Mean foreground FCT.
    pub avg_fct: Time,
    /// 99th-percentile foreground FCT.
    pub p99_fct: Time,
    /// Completion instant of the last foreground flow (collective runtime).
    pub makespan: Time,
    /// Mean per-flow goodput in Gbps (foreground).
    pub avg_goodput_gbps: f64,
    /// Background max FCT (mixed-traffic scenarios), if any.
    pub bg_max_fct: Option<Time>,
    /// Fabric counters.
    pub counters: Counters,
    /// Per-LB decision counters summed across connections (opt-in via
    /// [`Experiment::diagnostics`]; `None` keeps the JSONL bytes identical
    /// to a pre-diagnostics run). Values are `f64` because `repsbench
    /// merge` averages them fieldwise; whole numbers render as integer
    /// literals, so the round trip stays byte-exact either way.
    pub diagnostics: Option<Vec<(String, f64)>>,
}

impl Summary {
    fn from_engine<S: TraceSink>(
        exp: &Experiment,
        engine: &Engine<S, HostEndpoint>,
        completed: bool,
    ) -> Summary {
        let fg_count = exp.workload.len() as u32;
        let (fg, bg): (Vec<_>, Vec<_>) =
            (engine.stats.flows.iter()).partition(|f| f.flow.0 < fg_count);
        let max_fct = fg.iter().map(|f| f.fct()).max().unwrap_or(Time::ZERO);
        let avg_fct = if fg.is_empty() {
            Time::ZERO
        } else {
            Time(
                (fg.iter().map(|f| f.fct().as_ps() as u128).sum::<u128>() / fg.len() as u128)
                    as u64,
            )
        };
        let p99_fct = {
            let mut fcts: Vec<Time> = fg.iter().map(|f| f.fct()).collect();
            fcts.sort_unstable();
            fcts.get(((fcts.len() as f64 - 1.0) * 0.99).round() as usize)
                .copied()
                .unwrap_or(Time::ZERO)
        };
        let makespan = fg.iter().map(|f| f.end).max().unwrap_or(Time::ZERO);
        let goodput = if fg.is_empty() {
            0.0
        } else {
            fg.iter().map(|f| f.goodput_bps()).sum::<f64>() / fg.len() as f64 / 1e9
        };
        Summary {
            name: exp.name.clone(),
            lb: exp.lb.label().to_string(),
            completed,
            fg_flows: fg.len(),
            max_fct,
            avg_fct,
            p99_fct,
            makespan,
            avg_goodput_gbps: goodput,
            bg_max_fct: bg.iter().map(|f| f.fct()).max(),
            counters: engine.stats.counters,
            diagnostics: if exp.diagnostics {
                Some(collect_diagnostics(engine))
            } else {
                None
            },
        }
    }
}

/// Sums every host's load-balancer decision counters (host order, names in
/// first-appearance order — deterministic for a fixed seed).
fn collect_diagnostics<S: TraceSink>(engine: &Engine<S, HostEndpoint>) -> Vec<(String, f64)> {
    let mut acc: Vec<(&'static str, u64)> = Vec::new();
    for h in 0..engine.topo.n_hosts {
        if let Some(ep) = engine.endpoint(HostId(h)) {
            ep.lb_diagnostics(&mut acc);
        }
    }
    let mut out: Vec<(String, f64)> = acc
        .into_iter()
        .map(|(name, v)| (name.to_string(), v as f64))
        .collect();
    if let Some(fluid) = &engine.fluid {
        out.push(("fluid_resolves".to_string(), fluid.counters.resolves as f64));
        out.push(("fluid_bg_flows".to_string(), fluid.counters.admitted as f64));
        out.push((
            "fluid_residual_updates".to_string(),
            fluid.counters.residual_updates as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reps::reps::RepsConfig;
    use workloads::patterns;

    #[test]
    fn permutation_experiment_runs_to_completion() {
        let mut rng = netsim::rng::Rng64::new(3);
        let w = patterns::permutation(32, 256 << 10, &mut rng);
        let exp = Experiment::new(
            "test-perm",
            FatTreeConfig::two_tier(8, 1),
            LbKind::Reps(RepsConfig::default()),
            w,
        );
        let res = exp.run();
        assert!(res.summary.completed, "did not complete");
        assert_eq!(res.summary.fg_flows, 32);
        assert!(res.summary.max_fct > Time::ZERO);
        assert!(res.summary.avg_fct <= res.summary.max_fct);
    }

    #[test]
    fn tornado_reps_not_slower_than_ops() {
        // Macro sanity: REPS must at least match OPS on a clean tornado.
        let run = |lb: LbKind| {
            let w = patterns::tornado(32, 1 << 20);
            let mut exp = Experiment::new("t", FatTreeConfig::two_tier(8, 1), lb, w);
            exp.seed = 7;
            exp.run().summary
        };
        let reps = run(LbKind::Reps(RepsConfig::default()));
        let ops = run(LbKind::Ops { evs_size: 1 << 16 });
        assert!(reps.completed && ops.completed);
        let r = reps.max_fct.as_ps() as f64;
        let o = ops.max_fct.as_ps() as f64;
        assert!(r <= o * 1.1, "REPS {r} vs OPS {o}");
    }

    #[test]
    fn background_traffic_is_tracked_separately() {
        let mut rng = netsim::rng::Rng64::new(5);
        let main = patterns::permutation(32, 128 << 10, &mut rng);
        let bg = patterns::tornado(32, 64 << 10);
        let mut exp = Experiment::new(
            "mixed",
            FatTreeConfig::two_tier(8, 1),
            LbKind::Reps(RepsConfig::default()),
            main,
        );
        exp.background = Some((bg, LbKind::Ecmp));
        let res = exp.run();
        assert!(res.summary.completed);
        assert_eq!(res.summary.fg_flows, 32);
        assert!(res.summary.bg_max_fct.is_some());
    }

    #[test]
    fn fluid_background_completes_and_reports_diagnostics() {
        let mut rng = netsim::rng::Rng64::new(5);
        let main = patterns::permutation(32, 128 << 10, &mut rng);
        let bg = patterns::tornado(32, 64 << 10);
        let mut exp = Experiment::new(
            "hybrid",
            FatTreeConfig::two_tier(8, 1),
            LbKind::Reps(RepsConfig::default()),
            main,
        );
        exp.background = Some((bg, LbKind::Ecmp));
        exp.fluid_background = true;
        exp.diagnostics = true;
        let res = exp.run();
        assert!(res.summary.completed, "hybrid run must complete");
        assert_eq!(res.summary.fg_flows, 32);
        assert!(
            res.summary.bg_max_fct.is_some(),
            "fluid completions must feed the bg FCT split"
        );
        let diag = res.summary.diagnostics.as_ref().expect("diagnostics on");
        let get = |k: &str| diag.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert!(get("fluid_resolves").unwrap() >= 1.0);
        assert_eq!(get("fluid_bg_flows"), Some(32.0));
        assert!(get("fluid_residual_updates").unwrap() >= 1.0);
        // Determinism: an identical run produces identical bytes.
        let again = exp.run();
        assert_eq!(format!("{:?}", again.summary), format!("{:?}", res.summary));
    }

    #[test]
    fn tracked_links_produce_series() {
        let w = patterns::tornado(32, 512 << 10);
        let mut exp = Experiment::new(
            "micro",
            FatTreeConfig::two_tier(8, 1),
            LbKind::Ops { evs_size: 1 << 16 },
            w,
        );
        exp.track = Some((0, Time::from_us(200)));
        let res = exp.run();
        assert!(res.summary.completed);
        let tor0 = &res.engine.topo.switches[0];
        let up0 = tor0.up_links.at(0);
        let series = res.engine.stats.link_series(up0).expect("tracked");
        assert!(!series.bucket_bytes.is_empty());
        assert!(!series.queue_samples.is_empty());
    }
}
