//! `alloctrace` — one-off allocation accounting for a microbench cell.
//!
//! ```text
//! alloctrace [10k]
//! ```
//!
//! Runs one of `microbench`'s cells under a counting global allocator
//! and reports allocations and bytes for the build phase and the run
//! phase, per simulator event and per host, the bytes still live per host
//! after each phase, and each phase's peak live memory: the gated
//! hot-path permutation cell by default, the all-packet 10 240-host cell
//! (`hybrid/cell10k_bg_pkt`) with `10k`. The `sizes:` line gives the
//! per-connection, per-host, per-link and per-pending-event structs those
//! bytes are made of. CI runs `alloctrace 10k`, keeps its `sizes:` and
//! `peak live` lines in the job summary, and fails when the run's peak
//! live heap exceeds the ceiling pinned in `ci.yml`.

use std::mem::size_of;
use std::process::ExitCode;

use netsim::time::Time;

#[global_allocator]
static A: tinybench::alloc::Counting = tinybench::alloc::Counting;

fn snap() -> (u64, u64) {
    (tinybench::alloc::allocs(), tinybench::alloc::bytes())
}

/// The phase's peak live bytes and the bytes live at its end; restarts
/// the peak for the next phase.
fn phase_memory() -> (u64, u64) {
    let mem = (
        tinybench::alloc::peak_bytes(),
        tinybench::alloc::live_bytes(),
    );
    tinybench::alloc::reset_peak();
    mem
}

fn main() -> ExitCode {
    let exp = match std::env::args().nth(1).as_deref() {
        None => bench::hotpath_experiment(),
        Some("10k") => bench::hybrid_experiment(false),
        Some(other) => {
            eprintln!("unknown cell {other:?}\nusage: alloctrace [10k]");
            return ExitCode::FAILURE;
        }
    };

    let (a0, b0) = snap();
    tinybench::alloc::reset_peak();
    let mut engine = exp.build();
    let (a1, b1) = snap();
    let build_mem = phase_memory();
    let mut events = 0;
    let mut max_pending = 0usize;
    let mut t = Time::ZERO;
    while t < exp.deadline {
        t += Time::from_us(2);
        events += engine.run_until(t);
        max_pending = max_pending.max(engine.pending_events());
        if engine.pending_events() == 0 {
            break;
        }
    }
    let (a2, b2) = snap();
    let run_mem = phase_memory();
    let hosts = engine.topo.n_hosts as f64;
    println!("cell: {} ({hosts} hosts)", exp.name);
    println!("max pending events: {max_pending}");
    println!("arena high water: {} packets", engine.arena.high_water());
    for (phase, allocs, bytes, (_, live)) in [
        ("build", a1 - a0, b1 - b0, build_mem),
        ("run", a2 - a1, b2 - b1, run_mem),
    ] {
        println!(
            "{phase:<6} {allocs} allocs, {} KiB; per host {:.1} allocs, {:.0} bytes, {:.0} bytes live after",
            bytes / 1024,
            allocs as f64 / hosts,
            bytes as f64 / hosts,
            live as f64 / hosts
        );
    }
    println!(
        "run    over {events} events: {:.3} allocs/event, {:.1} bytes/event",
        (a2 - a1) as f64 / events as f64,
        (b2 - b1) as f64 / events as f64
    );
    println!(
        "sizes: Reps {} B, Lb {} B, Cc {} B, SenderConn {} B, ReceiverConn {} B, \
         HostEndpoint {} B, Link {} B, queue entry {} B",
        size_of::<reps::Reps>(),
        size_of::<baselines::Lb>(),
        size_of::<transport::Cc>(),
        size_of::<transport::conn::SenderConn>(),
        size_of::<transport::conn::ReceiverConn>(),
        size_of::<transport::endpoint::HostEndpoint>(),
        size_of::<netsim::link::Link>(),
        netsim::event::ENTRY_BYTES
    );
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    println!(
        "peak live: build {:.1} MiB, run {:.1} MiB",
        mib(build_mem.0),
        mib(run_mem.0)
    );
    ExitCode::SUCCESS
}
