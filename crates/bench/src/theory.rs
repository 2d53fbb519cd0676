//! Theory and distribution figures: Table 1, Figs. 14, 17, 18, 20, 24.
//!
//! None of these simulates a fabric, so none is a sweep preset; the
//! `theory [GLOB]` binary runs the entries of [`ENTRIES`] by name.

use ballsbins::batched::average_max_load;
use ballsbins::imbalance::imbalance_stats;
use ballsbins::recycled::{theorem_parameters, RecycledBallsBins};
use netsim::rng::Rng64;
use workloads::traces::SizeCdf;

/// Every theory entry in paper order: the name `theory [GLOB]` matches
/// against, and its printer.
pub const ENTRIES: [(&str, fn()); 6] = [
    ("table1_footprint", table1),
    ("fig14_evs_imbalance", fig14),
    ("fig17_balls_bins_ops", fig17),
    ("fig18_recycled_balls", fig18),
    ("fig20_coalesced_balls", fig20),
    ("fig24_trace_cdfs", fig24),
];

/// The entries whose name matches `glob` (`*` and `?` wildcards), in
/// paper order.
pub fn select(glob: &str) -> Vec<(&'static str, fn())> {
    ENTRIES
        .into_iter()
        .filter(|(name, _)| sweep::glob::matches(glob, name))
        .collect()
}

/// Table 1: REPS per-connection memory footprint.
pub fn table1() {
    println!("=== Table 1: REPS per-connection memory footprint ===");
    print!("{}", reps::footprint::table1());
}

/// Fig. 14: expected load imbalance at a 32-uplink switch vs EVS size,
/// for 1 and 32 active flows.
pub fn fig14() {
    println!("=== Fig. 14: load imbalance vs EVS size (32 uplinks) ===");
    for flows in [1u32, 32] {
        println!("# {flows} flow(s) active");
        println!("{:>8} {:>10} {:>10} {:>10}", "EVS", "mean", "p2.5", "p97.5");
        for exp in 5..=16u32 {
            let evs = 1u32 << exp;
            let trials = if exp >= 14 { 15 } else { 40 };
            let s = imbalance_stats(32, evs, flows, trials, 42);
            println!(
                "2^{exp:<6} {:>10.3} {:>10.3} {:>10.3}",
                s.mean, s.p2_5, s.p97_5
            );
        }
    }
    println!("(paper: ~10% imbalance below 2^8 EVs with 32 flows, <1% at 2^16)");
}

/// Fig. 17: batched balls-into-bins at λ=0.99 — average max queue over
/// 1000 rounds for 4..128 output ports.
pub fn fig17() {
    println!("=== Fig. 17: balls-into-bins, lambda=0.99, 1000 rounds ===");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "ports", "round100", "round500", "round1000"
    );
    for ports in [4usize, 8, 16, 32, 64, 128] {
        let avg = average_max_load(ports, 0.99, 1000, 25, 7);
        println!(
            "{ports:>8} {:>12.1} {:>12.1} {:>12.1}",
            avg[99], avg[499], avg[999]
        );
    }
    println!("(paper: max queue grows with round count, faster for more ports)");
}

/// Fig. 18: OPS vs recycled balls-into-bins, n = 5, 200 rounds.
pub fn fig18() {
    println!("=== Fig. 18: recycled vs oblivious balls-into-bins (n=5) ===");
    let n = 5;
    let (b, tau) = theorem_parameters(n);
    let mut rng_rec = Rng64::new(3);
    let mut rng_ops = Rng64::new(3);
    let mut rec = RecycledBallsBins::new(n, b, tau);
    let mut ops = ballsbins::batched::BatchedBallsBins::new(n, 1.0);
    let rec_trace = rec.run(200, &mut rng_rec);
    let ops_trace = ops.run(200, &mut rng_ops);
    println!("tau = {tau}, colors = {}", n * b);
    println!("{:>8} {:>10} {:>10}", "round", "OPS", "recycled");
    for r in (9..200).step_by(10) {
        println!("{:>8} {:>10} {:>10}", r + 1, ops_trace[r], rec_trace[r]);
    }
    println!(
        "final: OPS {} vs recycled {} (paper: OPS grows unbounded, recycled stays near tau)",
        ops_trace[199], rec_trace[199]
    );
}

/// Fig. 20: recycled balls with coalesced feedback (every 2/4/8 services).
pub fn fig20() {
    println!("=== Fig. 20: recycled balls with ACK coalescing ===");
    let n = 16;
    let (b, tau) = theorem_parameters(n);
    println!("tau = {tau}");
    let mut rng_ops = Rng64::new(5);
    let mut ops = ballsbins::batched::BatchedBallsBins::new(n, 1.0);
    let ops_trace = ops.run(2000, &mut rng_ops);
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "round", "OPS", "k=1", "k=2", "k=4", "k=8"
    );
    let traces: Vec<Vec<u64>> = [1u32, 2, 4, 8]
        .iter()
        .map(|&k| {
            let mut rng = Rng64::new(5);
            let mut p = RecycledBallsBins::with_coalescing(n, b, tau, k);
            p.run(2000, &mut rng)
        })
        .collect();
    for r in (199..2000).step_by(200) {
        println!(
            "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            r + 1,
            ops_trace[r],
            traces[0][r],
            traces[1][r],
            traces[2][r],
            traces[3][r]
        );
    }
    println!("(paper: 2:1/4:1 barely exceed tau; 8:1 still beats OPS)");
}

/// Fig. 24: flow-size CDFs of the datacenter traces.
pub fn fig24() {
    println!("=== Fig. 24: datacenter trace flow-size CDFs ===");
    let cdfs = [SizeCdf::websearch(), SizeCdf::facebook()];
    println!("{:>12} {:>12} {:>12}", "bytes", "WebSearch", "Facebook");
    for exp in 2..=7u32 {
        for mant in [1.0f64, 3.0] {
            let bytes = (mant * 10f64.powi(exp as i32)) as u64;
            println!(
                "{bytes:>12} {:>12.3} {:>12.3}",
                cdfs[0].cdf_at(bytes),
                cdfs[1].cdf_at(bytes)
            );
        }
    }
    println!(
        "mean flow size: WebSearch {:.0} B, Facebook {:.0} B",
        cdfs[0].mean_bytes(),
        cdfs[1].mean_bytes()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_unique_indexed_and_glob_selected() {
        let names: std::collections::BTreeSet<&str> = ENTRIES.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), ENTRIES.len(), "duplicate theory entry name");
        let readme = include_str!("../../../README.md");
        for name in &names {
            assert!(readme.contains(name), "README.md does not index {name}");
        }
        assert_eq!(select("*").len(), ENTRIES.len());
        assert_eq!(select("fig1?_*").len(), 3);
        assert!(
            select("fig99*").is_empty(),
            "a non-matching glob selects nothing"
        );
    }
}
