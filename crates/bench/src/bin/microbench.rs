//! `microbench` — the offline hot-path benchmark suite (tinybench).
//!
//! Component and small-simulation benches on the `tinybench` harness
//! (the offline image cannot fetch `criterion`), plus the DES hot-path
//! measurements the zero-allocation refactor is tracked by:
//!
//! * `hotpath/permutation_cell` — a full single sweep cell (32-host
//!   permutation, REPS) measured in simulator **events per second**; this
//!   is the number the CI `microbench-smoke` job gates on.
//! * `calendar/*` — the engine's event queue against a plain
//!   BinaryHeap-of-POD, one pair per level of the queue. Packet-path
//!   events, which take its monotone lanes:
//!   `calendar/engine_queue_linkshape8192`, a hold of 8 192
//!   `QueueService`/`Arrive` events from a lock-step start, each
//!   rescheduled one of the fabric's four link constants ahead — the
//!   `fig02` shape, and what the lanes buy over a heap. Timer events,
//!   which go past the lanes to the binary heap behind them:
//!   `calendar/engine_queue_hold256_uniform`, a hold model at about the
//!   timer population cells really have — the level *is* a heap, so the
//!   pair guards what the path in front of it costs (the skipped lane
//!   scan, the single push call site), not a data structure. See the
//!   `netsim::event` module docs for the bake-off history, including the
//!   larger timer-only holds that were measured and deleted with the
//!   calendar ring.
//! * `hybrid/*` — the hybrid-fidelity headline: one O(10k)-host cell
//!   (160 ToRs × 64 hosts) with an all-hosts tornado background run at
//!   matched offered load as packets (`fidelity=pkt`) and as fluid flows
//!   (`fidelity=hybrid{bg=fluid}`). Besides the per-bench baselines the
//!   pair carries its own gate: the fluid variant must stay at least
//!   [`HYBRID_SPEEDUP_FLOOR`]x faster than its all-packet twin. The
//!   tornado admits everything at t=0, so that pair is the solver with
//!   every flow dirty; `hybrid/fluid_churn10k` is the other regime — the
//!   solver alone on the same fabric under a trace-driven background,
//!   one arrival or departure per resolve, in **resolves per second**.
//!   There a resolve re-solves a component of about one flow and
//!   advances a handful of rate classes rather than ~300 flows, so what
//!   it measures is the per-resolve fixed cost.
//!
//! ```text
//! microbench [--out PATH] [--target-ms N] [--filter SUBSTR]
//!            [--check BASELINE.json [--tolerance F]]
//! ```
//!
//! Writes the JSON report to `--out` (default `BENCH_hotpath.json`).
//! With `--check`, compares every bench in `GATED_BENCHES` against the
//! named baseline report and exits non-zero when a current rate is more
//! than `--tolerance` (default 0.2) below its baseline, or when the
//! hybrid pair misses its relative floor.

use std::process::ExitCode;
use std::time::Instant;

use ballsbins::batched::BatchedBallsBins;
use ballsbins::recycled::{theorem_parameters, RecycledBallsBins};
use baselines::kind::LbKind;
use bench::{hotpath_experiment, hybrid_experiment};
use harness::experiment::Experiment;
use netsim::arena::PacketRef;
use netsim::event::{Event, EventQueue};
use netsim::hash::ecmp_select;
use netsim::ids::{HostId, LinkId, NodeRef, SwitchId};
use netsim::rng::Rng64;
use netsim::time::Time;
use netsim::topology::FatTreeConfig;
use reps::lb::{AckFeedback, LoadBalancer};
use reps::reps::{Reps, RepsConfig};
use tinybench::{json_field, BenchResult, Harness};
use transport::sack::OooTracker;
use workloads::patterns;
use workloads::traces::{self, SizeCdf};

/// The gated benchmark: its events/sec must not regress vs. the baseline.
const GATED_BENCH: &str = "hotpath/permutation_cell";

/// The 10k-host hybrid cell with its background as packet flows.
const HYBRID_PKT_BENCH: &str = "hybrid/cell10k_bg_pkt";
/// The same cell with the background on the analytic fluid model.
const HYBRID_FLUID_BENCH: &str = "hybrid/cell10k_bg_fluid";
/// The fluid solver alone under flow churn (see [`bench_fluid_churn`]).
const FLUID_CHURN_BENCH: &str = "hybrid/fluid_churn10k";
/// The sweep's record codec over the golden corpus (see
/// [`bench_record_codec`]).
const RECORD_BENCH: &str = "sweep/record_roundtrip";
/// Minimum pkt/fluid wall-time ratio for the 10k-host cell: hybrid
/// fidelity exists to make the background several times cheaper than
/// packets, so `--check` fails when the fluid variant is less than 7x
/// faster.
///
/// The floor is a ratio *against* the all-packet twin, so whatever speeds
/// the packet path up eats into it. PR 10 reported 96x, but about 10x of
/// that was the calendar ring's draining-bucket bug slowing the twin (see
/// `netsim::event`, bakeoff entry 3). The arena-header / in-flight-window
/// / prefetch work then took the twin from ~370 to ~270 ms while the
/// fluid cell stayed at ~18 ms: on the builder's host, alternating runs
/// of the pair read 19.5–23.8x before it and 13.7–15.9x after. The
/// event queue's monotone lanes (PR 19) sped up both twins — the fluid
/// cell's foreground is packets too — so the ratio barely moved: five
/// alternating full runs a side read 12.8–16.7x at the parent (pkt
/// 263–297 ms, fluid 17–23 ms) and 12.8–17.1x after (202–279 ms,
/// 14–22 ms). Replacing the calendar ring by a binary heap (PR 20) left
/// it there too — both twins hold 10 240 timers in that heap: three
/// alternating full runs a side read 14.7–16.2x at the parent and
/// 14.8–17.0x after. Sorted per-host connection tables sped up the twin
/// more than the fluid cell: six alternating `--target-ms 80`
/// runs a side on a 2-vCPU host read pkt 170–212 ms (median 179), fluid
/// 14.4–15.5 ms, 11.4–14.2x at the parent and pkt 129–199 ms (median
/// 154), fluid 13.8–19.8 ms, 8.5–14.4x (median 9.25x) after. The old 10x
/// floor failed four of those six runs, so it was re-derived to 7x,
/// more than 10 % below the lowest reading. The one-line arena record
/// left the ratio above that: six alternating `--target-ms 80` runs a
/// side read pkt 128–143 ms (median 131), fluid 13.2–15.6 ms, 8.3–10.2x
/// (median 9.6x) at the parent and pkt 133–160 ms (median 142), fluid
/// 13.2–14.6 ms, 9.4–12.0x (median 10.4x) after, so the 7x floor stands.
/// Inline load balancers and endpoints stored by value sped up the twin
/// again, more than the fluid cell: sixteen alternating `--target-ms 80`
/// runs a side, in a slow and noisy phase of the host, read pkt
/// 169–311 ms (median 203), fluid 15.4–28.0 ms, 7.4–15.4x (median
/// 11.1x) at the parent and pkt 143–281 ms (median 169), fluid
/// 14.6–27.2 ms, 8.0–13.7x (median 10.2x) after. The lowest reading is
/// 14 % above 7x, so the floor stands. The look-ahead's second hop (egress
/// link, connection table) sped the twin up once more: ten alternating
/// `--target-ms 80` runs a side read pkt 267–375 ms (median 318), fluid
/// 27.4–31.3 ms, 8.8–12.0x (median 10.9x) at the parent and pkt
/// 204–263 ms (median 233), fluid 22.5–31.0 ms, 6.8–10.2x (median 8.4x)
/// after. One of the ten, 6.8x, read under the floor; the floor was left
/// where it is.
const HYBRID_SPEEDUP_FLOOR: f64 = 7.0;

/// Every bench `--check` gates against the baseline report: the
/// end-to-end hot path, the event queue's two shapes — timers at the
/// hot-path cell's population, the link shape the lanes serve — both
/// fidelities of the 10k-host hybrid cell, the fluid solver under churn
/// on that fabric, the 16-host `simulation/*` family (which regressed
/// ~30% across PR 7 with no gate watching), and the sweep's record codec,
/// which a warm cached sweep spends most of its time in. Benches that count elements
/// are gated on elems/sec, the rest on iters/sec. A gated bench missing
/// from either report fails the check.
const GATED_BENCHES: &[&str] = &[
    GATED_BENCH,
    HOLD_BENCH,
    LINKSHAPE_BENCH,
    HYBRID_PKT_BENCH,
    HYBRID_FLUID_BENCH,
    FLUID_CHURN_BENCH,
    RECORD_BENCH,
    "simulation/tornado_16hosts_reps",
    "simulation/tornado_16hosts_ops",
    "simulation/tornado_16hosts_ecmp",
    "simulation/incast_8to1_1MiB",
];

struct Opts {
    out: String,
    target_ms: Option<u64>,
    check: Option<String>,
    tolerance: f64,
    filter: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        out: "BENCH_hotpath.json".to_string(),
        target_ms: None,
        check: None,
        tolerance: 0.2,
        filter: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--out" => opts.out = value("--out")?.clone(),
            "--target-ms" => {
                opts.target_ms = Some(
                    value("--target-ms")?
                        .parse::<u64>()
                        .map_err(|e| format!("--target-ms: {e}"))?,
                )
            }
            "--check" => opts.check = Some(value("--check")?.clone()),
            "--filter" => opts.filter = Some(value("--filter")?.clone()),
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse::<f64>()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}\nusage: microbench [--out PATH] [--target-ms N] [--filter SUBSTR] [--check BASELINE.json [--tolerance F]]"
                ))
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut h = Harness::new();
    if let Some(ms) = opts.target_ms {
        h = h.target_ms(ms);
    }
    if let Some(pat) = &opts.filter {
        h = h.filter(pat);
    }

    bench_reps(&mut h);
    bench_substrate(&mut h);
    bench_calendar(&mut h);
    bench_simulation(&mut h);
    bench_hotpath(&mut h);
    bench_hybrid(&mut h);
    bench_fluid_churn(&mut h);
    bench_record_codec(&mut h);

    let json = h.to_json();
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("writing {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} benches to {}", h.results().len(), opts.out);

    let hybrid_ok = hybrid_speedup_holds(h.results());
    if let Some(baseline_path) = &opts.check {
        let baseline = check_regression(&json, baseline_path, opts.tolerance);
        if !hybrid_ok {
            return ExitCode::FAILURE;
        }
        return baseline;
    }
    ExitCode::SUCCESS
}

/// Prints — and under `--check`, gates — the pkt/fluid wall-time ratio of
/// the 10k-host hybrid cell. Returns `true` when the pair was filtered
/// out or the fluid variant is at least [`HYBRID_SPEEDUP_FLOOR`]x faster.
fn hybrid_speedup_holds(results: &[BenchResult]) -> bool {
    let ns = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.ns_per_iter)
    };
    let (Some(pkt), Some(fluid)) = (ns(HYBRID_PKT_BENCH), ns(HYBRID_FLUID_BENCH)) else {
        return true;
    };
    let speedup = pkt / fluid;
    if speedup < HYBRID_SPEEDUP_FLOOR {
        eprintln!(
            "REGRESSION: fluid background only {speedup:.1}x faster than packets on the 10k-host cell (floor {HYBRID_SPEEDUP_FLOOR}x)"
        );
        return false;
    }
    eprintln!(
        "hybrid/cell10k: fluid background {speedup:.1}x faster than packets (floor {HYBRID_SPEEDUP_FLOOR}x) — ok"
    );
    true
}

/// The rate a bench is gated on, with its unit: elems/sec when the bench
/// counts elements, iters/sec otherwise.
fn gated_rate(report: &str, name: &str) -> Option<(f64, &'static str)> {
    json_field(report, name, "elems_per_sec")
        .map(|r| (r / 1e6, "M elems/s"))
        .or_else(|| json_field(report, name, "iters_per_sec").map(|r| (r, "iters/s")))
}

/// Gates every bench in [`GATED_BENCHES`] against a checked-in baseline
/// report. All gated benches are evaluated so a failing run reports every
/// regression at once, not just the first.
fn check_regression(current: &str, baseline_path: &str, tolerance: f64) -> ExitCode {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("reading baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for name in GATED_BENCHES {
        let (Some((base, unit)), Some((now, _))) =
            (gated_rate(&baseline, name), gated_rate(current, name))
        else {
            eprintln!("{name} missing from baseline or current report");
            failed = true;
            continue;
        };
        let pct = now / base * 100.0;
        let floor_pct = (1.0 - tolerance) * 100.0;
        if now < base * (1.0 - tolerance) {
            eprintln!(
                "REGRESSION: {name} at {now:.2} {unit} is {pct:.0}% of the {base:.2} {unit} baseline (floor {floor_pct:.0}%)"
            );
            failed = true;
            continue;
        }
        eprintln!("{name}: {now:.2} {unit} ({pct:.0}% of baseline, floor {floor_pct:.0}%) — ok");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The REPS per-packet paths.
fn bench_reps(h: &mut Harness) {
    h.bench_function("reps/next_ev", |b| {
        let mut reps = Reps::new(RepsConfig::default());
        let mut rng = Rng64::new(1);
        // Warm the buffer so both branches (reuse + explore) are exercised.
        for ev in 0..8u16 {
            reps.on_ack(
                &AckFeedback {
                    ev,
                    ecn: false,
                    now: Time::from_us(1),
                    cwnd_packets: 16,
                    rtt: Time::from_us(10),
                },
                &mut rng,
            );
        }
        b.iter(|| reps.next_ev(Time::from_us(2), &mut rng))
    });
    h.bench_function("reps/on_ack", |b| {
        let mut reps = Reps::new(RepsConfig::default());
        let mut rng = Rng64::new(2);
        let fb = AckFeedback {
            ev: 77,
            ecn: false,
            now: Time::from_us(1),
            cwnd_packets: 16,
            rtt: Time::from_us(10),
        };
        b.iter(|| reps.on_ack(&fb, &mut rng))
    });
}

/// Simulator substrate micro paths.
fn bench_substrate(h: &mut Harness) {
    h.bench_function("substrate/ecmp_select_8way", |b| {
        let mut ev = 0u16;
        b.iter(|| {
            ev = ev.wrapping_add(1);
            ecmp_select(HostId(3), HostId(96), ev, 0xDEAD, 8)
        })
    });
    h.bench_function("substrate/ooo_tracker_in_order_256", |b| {
        b.elements(256);
        b.iter_batched(OooTracker::new, |mut t| {
            for seq in 0..256u64 {
                t.record(seq);
            }
            t.cum_ack()
        })
    });
    h.bench_function("substrate/ooo_tracker_reversed_256", |b| {
        b.elements(256);
        b.iter_batched(OooTracker::new, |mut t| {
            for seq in (0..256u64).rev() {
                t.record(seq);
            }
            t.cum_ack()
        })
    });
    h.bench_function("substrate/batched_balls_round_64", |b| {
        let mut rng = Rng64::new(5);
        let mut p = BatchedBallsBins::new(64, 0.99);
        b.iter(|| p.step(&mut rng))
    });
    h.bench_function("substrate/recycled_balls_round_64", |b| {
        let mut rng = Rng64::new(5);
        let (bb, tau) = theorem_parameters(64);
        let mut p = RecycledBallsBins::new(64, bb, tau);
        b.iter(|| p.step(&mut rng))
    });
    h.bench_function("substrate/rng_next_u64", |b| {
        let mut rng = Rng64::new(9);
        b.iter(|| rng.next_u64())
    });
}

/// What the calendar benches need from a queue: the engine's queue and a
/// plain `BinaryHeap` both fit it.
trait Calendar: Default {
    /// Schedules a timer — an event the engine's queue keeps on its heap
    /// level.
    fn push(&mut self, at: Time, token: u64);
    /// Schedules a packet-path event (`QueueService` for even tokens,
    /// `Arrive` for odd) — one the engine's queue offers to its lanes.
    fn push_packet(&mut self, at: Time, token: u32);
    fn pop(&mut self) -> Option<(Time, u64)>;
    fn len(&self) -> usize;
}

impl Calendar for EventQueue {
    fn push(&mut self, at: Time, token: u64) {
        let host = HostId(0);
        EventQueue::push(self, at, Event::Timer { host, token });
    }

    fn push_packet(&mut self, at: Time, token: u32) {
        let ev = if token.is_multiple_of(2) {
            Event::QueueService {
                link: LinkId(token),
            }
        } else {
            Event::Arrive {
                node: NodeRef::Switch(SwitchId(0)),
                pkt: PacketRef(token),
            }
        };
        EventQueue::push(self, at, ev);
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        EventQueue::pop(self).map(|(at, ev)| match ev {
            Event::Timer { token, .. } => (at, token),
            Event::QueueService { link } => (at, link.0 as u64),
            Event::Arrive { pkt, .. } => (at, pkt.0 as u64),
            other => unreachable!("calendar benches push no controls, popped {other:?}"),
        })
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}

/// Operations per calendar bench iteration.
const CALENDAR_OPS: u64 = 65_536;

/// The timer-only bench: a hold model at [`HOLD_HELD`] timers, the order
/// of what a cell's heap level really holds (one sweep timer per host: 32
/// on the suite's median cell, at most 136 on any of its cells).
const HOLD_BENCH: &str = "calendar/engine_queue_hold256_uniform";
const HOLD_HELD: u64 = 256;

/// The hold-model bench: [`HOLD_HELD`] timers pending, each op pops the
/// earliest and schedules a replacement a uniform 1..4 us ahead — the
/// classic DES queue stress shape (no packets involved, so nothing ever
/// takes a lane).
fn bench_hold<Q: Calendar>(h: &mut Harness, name: &str) {
    h.bench_function(name, |b| {
        b.elements(CALENDAR_OPS);
        b.iter_batched(
            || {
                let mut q = Q::default();
                let mut rng = Rng64::new(11);
                for token in 0..HOLD_HELD {
                    q.push(Time::from_ns(rng.gen_range(1 << 16)), token);
                }
                (q, rng)
            },
            |(mut q, mut rng)| {
                for _ in 0..CALENDAR_OPS {
                    let (at, token) = q.pop().expect("hold model never drains");
                    q.push(at + Time::from_ns(1 + rng.gen_range(1 << 12)), token);
                }
                q.len()
            },
        )
    });
}

/// The link-shape bench (the `fig02` shape: 128 hosts, ~8k events held).
const LINKSHAPE_BENCH: &str = "calendar/engine_queue_linkshape8192";
const LINKSHAPE_HELD: u32 = 8_192;
/// What a packet-path push is scheduled ahead by on the paper fabric: a
/// header and an MTU frame serialized at 400 Gb/s, a host-bound and a
/// switch-bound hop.
const LINKSHAPE_DELTAS_PS: [u64; 4] = [1_280, 83_200, 500_000, 1_000_000];

/// The link-shape bench: what the packet path asks of the queue. Every
/// host starts at once, and every pop schedules a `QueueService` or an
/// `Arrive` exactly one of four link constants ahead — so the pushes of
/// each constant arrive already in `(time, seq)` order, which is what the
/// engine queue's lanes exploit and a heap cannot.
fn bench_linkshape<Q: Calendar>(h: &mut Harness, name: &str) {
    h.bench_function(name, |b| {
        b.elements(CALENDAR_OPS);
        b.iter_batched(
            || {
                let mut q = Q::default();
                for token in 0..LINKSHAPE_HELD {
                    q.push_packet(Time::from_ps(LINKSHAPE_DELTAS_PS[1]), token);
                }
                q
            },
            |mut q| {
                for i in 0..CALENDAR_OPS as usize {
                    let (at, token) = q.pop().expect("hold model never drains");
                    q.push_packet(at + Time::from_ps(LINKSHAPE_DELTAS_PS[i % 4]), token as u32);
                }
                q.len()
            },
        )
    });
}

fn bench_calendar(h: &mut Harness) {
    bench_hold::<EventQueue>(h, HOLD_BENCH);
    bench_hold::<PodBinHeap>(h, "calendar/binheap_pod_hold256_uniform");
    bench_linkshape::<EventQueue>(h, LINKSHAPE_BENCH);
    bench_linkshape::<PodBinHeap>(h, "calendar/binheap_pod_linkshape8192");
}

/// `std::BinaryHeap` over POD `(time, seq, token)` entries sized like the
/// engine queue's entries: every event through one heap, which is what
/// the engine did before it had lanes (see `netsim::event`).
#[derive(Default)]
struct PodBinHeap {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Time, u64, [u64; 3])>>,
    seq: u64,
}

impl Calendar for PodBinHeap {
    fn push(&mut self, at: Time, token: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(std::cmp::Reverse((at, seq, [token, 0, 0])));
    }

    fn push_packet(&mut self, at: Time, token: u32) {
        self.push(at, token as u64);
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        self.heap
            .pop()
            .map(|std::cmp::Reverse((at, _, p))| (at, p[0]))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// End-to-end simulation benches.
fn bench_simulation(h: &mut Harness) {
    let run_tornado = |lb: LbKind| {
        let w = patterns::tornado(16, 256 << 10);
        let mut exp = Experiment::new("bench", FatTreeConfig::two_tier(8, 1), lb, w);
        exp.seed = 3;
        exp.deadline = Time::from_ms(100);
        let res = exp.run();
        assert!(res.summary.completed);
        res.summary.max_fct.as_ps()
    };
    h.bench_function("simulation/tornado_16hosts_reps", |b| {
        b.iter(|| run_tornado(LbKind::Reps(RepsConfig::default())))
    });
    h.bench_function("simulation/tornado_16hosts_ops", |b| {
        b.iter(|| run_tornado(LbKind::Ops { evs_size: 1 << 16 }))
    });
    h.bench_function("simulation/tornado_16hosts_ecmp", |b| {
        b.iter(|| run_tornado(LbKind::Ecmp))
    });
    h.bench_function("simulation/incast_8to1_1MiB", |b| {
        b.iter(|| {
            let w = patterns::incast(32, 8, HostId(0), 1 << 20);
            let mut exp = Experiment::new(
                "bench",
                FatTreeConfig::two_tier(8, 1),
                LbKind::Reps(RepsConfig::default()),
                w,
            );
            exp.seed = 5;
            exp.deadline = Time::from_ms(100);
            exp.run().summary.completed
        })
    });
}

/// [`hotpath_experiment`] in simulator events/sec (engine build excluded
/// from timing).
fn bench_hotpath(h: &mut Harness) {
    let exp = hotpath_experiment();
    let deadline = exp.deadline;
    // Events per run are deterministic for the fixed seed: count them once.
    let mut probe = exp.build();
    let events = probe.run_until(deadline);
    assert!(events > 100_000, "hot-path cell too small: {events} events");
    h.bench_function(GATED_BENCH, |b| {
        b.elements(events);
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let mut engine = exp.build();
                // detlint: allow(DET002) — this IS the benchmark measurement
                let start = Instant::now();
                let n = engine.run_until(deadline);
                total += start.elapsed();
                assert_eq!(n, events, "nondeterministic event count");
            }
            total
        })
    });
}

/// The hybrid-fidelity headline pair: the O(10k)-host cell from
/// [`hybrid_experiment`] run to the same simulated horizon with its
/// background as packets vs. as fluid flows. Engine builds sit outside
/// the timed region, so the reported wall time is pure simulation;
/// `main` derives the pkt/fluid speedup from the two results and
/// enforces [`HYBRID_SPEEDUP_FLOOR`] under `--check`.
fn bench_hybrid(h: &mut Harness) {
    for (name, fluid) in [(HYBRID_PKT_BENCH, false), (HYBRID_FLUID_BENCH, true)] {
        // The event-count probe costs a full cell simulation, so it runs
        // lazily inside the closure: a `--filter` that excludes the
        // hybrid family never builds the 10k-host engine at all.
        let mut probed: Option<u64> = None;
        h.bench_function(name, |b| {
            let exp = hybrid_experiment(fluid);
            let deadline = exp.deadline;
            let events = *probed.get_or_insert_with(|| {
                let mut probe = exp.build();
                let n = probe.run_until(deadline);
                assert!(n > 10_000, "hybrid cell too small: {n} events");
                n
            });
            b.elements(events);
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let mut engine = exp.build();
                    // detlint: allow(DET002) — this IS the benchmark measurement
                    let start = Instant::now();
                    let n = engine.run_until(deadline);
                    total += start.elapsed();
                    assert_eq!(n, events, "nondeterministic event count");
                }
                total
            })
        });
    }
}

/// The fluid solver alone under flow churn: the background population of
/// [`churn_experiment`] walked from wake to wake through
/// `next_event`/`resolve` on its own fabric, no packet in sight — every
/// resolve admits or completes about one flow out of a few hundred
/// active, held at a handful of distinct rates: the regime the
/// component-local re-solve and the per-rate-class progression exist for.
/// Elements are resolves; the engine build sits outside the timed region.
fn bench_fluid_churn(h: &mut Harness) {
    // Lazy like `bench_hybrid`'s probe: a filtered-out bench builds nothing.
    let mut probed: Option<u64> = None;
    h.bench_function(FLUID_CHURN_BENCH, |b| {
        let exp = churn_experiment();
        let walk = || {
            let mut engine = exp.build();
            let mut fluid = engine
                .fluid
                .take()
                .expect("hybrid cell carries a fluid net");
            // detlint: allow(DET002) — this IS the benchmark measurement
            let start = Instant::now();
            let mut resolves = 0u64;
            while let Some(at) = fluid.next_event() {
                fluid.resolve(at, &engine.links);
                fluid.drain_completions().for_each(drop);
                resolves += 1;
            }
            (resolves, start.elapsed())
        };
        let resolves = *probed.get_or_insert_with(|| {
            let n = walk().0;
            assert!(n > 10_000, "churn walk too short: {n} resolves");
            n
        });
        b.elements(resolves);
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let (n, elapsed) = walk();
                total += elapsed;
                assert_eq!(n, resolves, "nondeterministic resolve count");
            }
            total
        })
    });
}

/// The golden result records `sweep`'s tests pin, one file per preset.
const GOLDEN_RECORDS: [&str; 9] = [
    include_str!("../../../sweep/tests/golden/evs-sensitivity.quick.jsonl"),
    include_str!("../../../sweep/tests/golden/fig02-tornado-micro.quick.jsonl"),
    include_str!("../../../sweep/tests/golden/fig07-failure-micro.quick.jsonl"),
    include_str!("../../../sweep/tests/golden/flap-reconv.quick.jsonl"),
    include_str!("../../../sweep/tests/golden/flowlet-gap.quick.jsonl"),
    include_str!("../../../sweep/tests/golden/gray-failures.quick.jsonl"),
    include_str!("../../../sweep/tests/golden/hybrid-scale.quick.jsonl"),
    include_str!("../../../sweep/tests/golden/oversub-asym.quick.jsonl"),
    include_str!("../../../sweep/tests/golden/reconv-delay.quick.jsonl"),
];

/// The sweep's record codec: every golden record parsed back into a cell
/// result and rendered again, which is what a cache hit and a merged line
/// cost. Elements are records.
fn bench_record_codec(h: &mut Harness) {
    h.bench_function(RECORD_BENCH, |b| {
        let lines: Vec<&str> = GOLDEN_RECORDS.iter().flat_map(|f| f.lines()).collect();
        b.elements(lines.len() as u64);
        b.iter(|| {
            let mut bytes = 0;
            for line in &lines {
                let record = sweep::parse_record(line).expect("golden record parses");
                bytes += sweep::sink::jsonl_record(&record).len();
            }
            bytes
        })
    });
}

/// [`hybrid_experiment`]'s fluid cell with its tornado swapped for a
/// `dctrace-10pct-40us` background (Poisson arrivals, websearch sizes,
/// 10 % load for 40 us: ~9.5k mice and elephants). The foreground is along
/// for the ride — [`bench_fluid_churn`] only takes the fluid net.
fn churn_experiment() -> Experiment {
    let mut exp = hybrid_experiment(true);
    let mut rng = Rng64::new(11);
    let bg = traces::poisson_trace(
        10_240,
        0.10,
        Time::from_us(40),
        exp.sim.link_bps,
        &SizeCdf::websearch(),
        &mut rng,
    );
    exp.background = Some((bg, LbKind::Ecmp));
    exp
}
