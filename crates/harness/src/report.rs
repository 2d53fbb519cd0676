//! Plain-text reporting helpers behind `repsbench`'s tables and reports.

use std::fmt::Write as _;

use crate::experiment::Summary;

/// Appends a set of summaries to `out` as an aligned comparison table.
/// Drops are broken out by reason (queue overflow, dead link, bit error,
/// gray loss, corruption) — lumping them together hides exactly the
/// distinction the failure figures are about: a congested balancer, a
/// blackholed one, and one bleeding packets on a gray cable all "drop",
/// for different reasons.
pub fn comparison_table(out: &mut String, title: &str, rows: &[Summary]) {
    let _ = writeln!(out, "## {title}");
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "LB",
        "max FCT(us)",
        "avg FCT(us)",
        "p99 FCT(us)",
        "qdrops",
        "lnkdrop",
        "berdrop",
        "graydrop",
        "corrupt",
        "retx",
        "ecn",
        "done"
    );
    for s in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>12.1} {:>12.1} {:>12.1} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
            s.lb,
            s.max_fct.as_us_f64(),
            s.avg_fct.as_us_f64(),
            s.p99_fct.as_us_f64(),
            s.counters.drops_queue_full,
            s.counters.drops_link_down,
            s.counters.drops_bit_error,
            s.counters.drops_gray,
            s.counters.drops_corrupt,
            s.counters.retransmissions,
            s.counters.ecn_marks,
            if s.completed { "yes" } else { "NO" },
        );
    }
}

/// Appends speedups of each row versus a baseline label to `out` (the
/// paper's "speedup vs ECMP" / "speedup vs OPS" bars).
pub fn speedup_table(out: &mut String, title: &str, rows: &[Summary], baseline_label: &str) {
    let _ = writeln!(out, "## {title} (speedup vs {baseline_label})");
    let Some(base) = rows.iter().find(|s| s.lb == baseline_label) else {
        out.push_str("baseline missing\n");
        return;
    };
    let base_fct = base.max_fct.as_ps().max(1) as f64;
    for s in rows {
        let speedup = base_fct / s.max_fct.as_ps().max(1) as f64;
        let _ = writeln!(out, "{:<14} {:>8.2}x", s.lb, speedup);
    }
}

/// Downsamples a series to at most `n` evenly-spaced points (plot-friendly).
pub fn downsample(points: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if points.len() <= n || n == 0 {
        return points.to_vec();
    }
    let step = points.len() as f64 / n as f64;
    (0..n).map(|i| points[(i as f64 * step) as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::stats::Counters;
    use netsim::time::Time;

    fn summary(lb: &str, max_us: u64) -> Summary {
        Summary {
            name: "t".into(),
            lb: lb.into(),
            completed: true,
            fg_flows: 1,
            max_fct: Time::from_us(max_us),
            avg_fct: Time::from_us(max_us / 2),
            p99_fct: Time::from_us(max_us),
            makespan: Time::from_us(max_us),
            avg_goodput_gbps: 1.0,
            bg_max_fct: None,
            counters: Counters::default(),
            diagnostics: None,
        }
    }

    #[test]
    fn speedup_is_relative_to_baseline() {
        let rows = vec![summary("ECMP", 600), summary("REPS", 100)];
        let mut t = String::new();
        speedup_table(&mut t, "x", &rows, "ECMP");
        assert!(t.contains("REPS"), "{t}");
        assert!(t.contains("6.00x"), "{t}");
        assert!(t.contains("1.00x"), "{t}");
    }

    #[test]
    fn comparison_table_contains_rows() {
        let rows = vec![summary("OPS", 50)];
        let mut t = String::new();
        comparison_table(&mut t, "hdr", &rows);
        assert!(t.contains("OPS"));
        assert!(t.contains("50.0"));
    }

    #[test]
    fn comparison_table_breaks_drops_out_by_reason() {
        let mut s = summary("REPS", 50);
        s.counters.drops_queue_full = 3;
        s.counters.drops_link_down = 7;
        s.counters.drops_bit_error = 1;
        s.counters.drops_gray = 4;
        s.counters.drops_corrupt = 2;
        let mut t = String::new();
        comparison_table(&mut t, "hdr", &[s]);
        for col in ["qdrops", "lnkdrop", "berdrop", "graydrop", "corrupt"] {
            assert!(t.contains(col), "missing column {col}: {t}");
        }
        // The data row carries each count under its own column.
        let row = t.lines().last().unwrap();
        for n in ["3", "7", "1", "4", "2"] {
            assert!(row.split_whitespace().any(|f| f == n), "missing {n}: {row}");
        }
    }

    #[test]
    fn downsample_limits_points() {
        let points: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, 0.0)).collect();
        let d = downsample(&points, 50);
        assert_eq!(d.len(), 50);
        assert_eq!(d[0].0, 0.0);
    }
}
