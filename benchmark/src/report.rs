//! The result line each run prints, the report file runs append to, and
//! `repsperf compare` over two such reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::json::{number, quote, Value};
use crate::stats::{median, spread};

/// One measured value, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub seed: u32,
    /// 0 = end-to-end run, 1 = traced run.
    pub trace: u8,
    /// Cells whose outputs were checked (cells × passes).
    pub attempted: u64,
    /// Cells that broke an output check.
    pub failed: u64,
    /// FNV-1a-64 of the workload's result JSONL.
    pub digest: String,
    /// Whether `digest` equals the pinned seed-0 digest (`None` off seed 0).
    pub digest_matches: Option<bool>,
    /// Sample counts behind the medians, e.g. `passes`, `setups`, `cells`.
    pub samples: Vec<(&'static str, u64)>,
    /// Uncorrected context for the metrics, e.g. `raw_wall_s`, `host_slowdown`.
    pub notes: Vec<(&'static str, f64)>,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The line appended to the report file: the result plus what identifies
    /// the run.
    pub fn report_line(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("{}:{n}", quote(k)))
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), number(*v)))
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":{},\"digest_matches\":{},\"samples\":{{{}}},\"notes\":{{{}}},\"metrics\":{}}}",
            quote(&self.workload),
            self.seed,
            self.trace,
            self.failed == 0,
            self.attempted,
            self.failed,
            quote(&self.digest),
            self.digest_matches
                .map_or("null".to_string(), |b| b.to_string()),
            samples.join(","),
            notes.join(","),
            self.metrics_json()
        )
    }

    /// Prints every metric by name with its unit (human-readable, above the
    /// result line).
    pub fn print_table(&self) {
        println!(
            "== {} seed {} ({}) ==",
            self.workload,
            self.seed,
            if self.trace == 0 {
                "end to end, tracing off"
            } else {
                "traced run"
            }
        );
        for m in &self.metrics {
            println!("{:<34} {:>18} {}", m.name, number(m.value), m.unit);
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .chain(self.notes.iter().map(|(k, v)| format!("{k}={v:.6}")))
            .collect();
        println!(
            "samples: {}; checked {} cells, {} failed; digest {}{}",
            samples.join(" "),
            self.attempted,
            self.failed,
            self.digest,
            match self.digest_matches {
                Some(true) => " (matches expected/digests.tsv)",
                Some(false) => " (DIFFERS from expected/digests.tsv)",
                None => "",
            }
        );
    }

    /// Checks that this run reports exactly the metrics `BENCHMARK.json`
    /// declares for its kind of run — same names, same units, same order — so
    /// the declaration and the code cannot drift apart unnoticed.
    pub fn check_declared(&self, benchmark_json: &str) -> Result<(), String> {
        let (e2e, per_layer) = metric_specs(benchmark_json)?;
        let declared = if self.trace == 0 { e2e } else { per_layer };
        let declared: Vec<(&str, &str)> = declared
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let reported: Vec<(&str, &str)> = self.metrics.iter().map(|m| (m.name, m.unit)).collect();
        if declared == reported {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json declares {declared:?} but this run reports {reported:?}"
            ))
        }
    }

    /// Prints the table and the result line, appends the report line to
    /// `report_file`, and returns whether every output check passed.
    pub fn publish(&self, report_file: &Path, after_table: &[String]) -> Result<bool, String> {
        let declaration = crate::workload::bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&declaration)
            .map_err(|e| format!("reading {}: {e}", declaration.display()))?;
        self.check_declared(&text)?;
        self.print_table();
        for line in after_table {
            println!("{line}");
        }
        self.append_to(report_file)?;
        println!("{}", self.result_line());
        Ok(self.failed == 0)
    }

    /// Appends [`RunReport::report_line`] to `path`.
    pub fn append_to(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        writeln!(f, "{}", self.report_line())
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// One metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

/// The metric declarations of a `BENCHMARK.json`: `(end_to_end, per_layer)`.
pub fn metric_specs(benchmark_json: &str) -> Result<(Vec<MetricSpec>, Vec<MetricSpec>), String> {
    let doc = Value::parse(benchmark_json)?;
    let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks the {key:?} list"))?
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("a {key} metric lacks {k:?}"))
                };
                Ok(MetricSpec {
                    name: text("name")?,
                    unit: text("unit")?,
                    higher_is_better: text("better")? == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// The runs of one report file, grouped `(workload, trace) → metric → values`
/// in file order, plus each run's digest.
#[derive(Debug, Default)]
struct Runs {
    values: BTreeMap<(String, u8), BTreeMap<String, Vec<f64>>>,
    digests: BTreeMap<(String, u8, u64), String>,
    failed: u64,
    order: Vec<(String, u8)>,
}

fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (n, line) in text.lines().enumerate() {
        let v = Value::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?
            .to_string();
        let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let group = (workload.clone(), num("trace") as u8);
        if !runs.order.contains(&group) {
            runs.order.push(group.clone());
        }
        runs.failed += num("failed") as u64;
        if let Some(d) = v.get("digest").and_then(Value::as_str) {
            runs.digests
                .insert((workload, group.1, num("seed") as u64), d.to_string());
        }
        let metrics = runs.values.entry(group).or_default();
        for (name, m) in v
            .get("metrics")
            .and_then(Value::as_obj)
            .into_iter()
            .flatten()
        {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                metrics.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(runs)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let rel = (b - a) / a.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

/// Compares report `b` (the change) against report `a` (the baseline).
/// Returns the rendered table and whether any end-to-end row is out of bound.
///
/// Per workload and end-to-end metric the row shows both medians, both
/// spreads (interquartile distance ÷ median over the report's runs), the
/// worsening and the bound, and is marked `ok`, `out-of-bound`, or
/// `unresolved` when a spread is wider than the bound (unless every run of
/// `b` reads better than every run of `a`). Per-layer metrics carry no
/// bound and are listed as `same`/`moved`; digests are compared per seed.
pub fn compare(a_text: &str, b_text: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let (e2e, per_layer) = metric_specs(benchmark_json)?;
    let (a, b) = (read_runs(a_text)?, read_runs(b_text)?);
    let mut out = String::new();
    let mut out_of_bound = false;
    for group in &a.order {
        let (Some(ma), Some(mb)) = (a.values.get(group), b.values.get(group)) else {
            out.push_str(&format!(
                "{} (trace {}): only in the first report\n",
                group.0, group.1
            ));
            continue;
        };
        let specs = if group.1 == 0 { &e2e } else { &per_layer };
        out.push_str(&format!(
            "== {} ({}) ==\n{:<34} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  {}\n",
            group.0,
            if group.1 == 0 {
                "end to end"
            } else {
                "per layer"
            },
            "metric",
            "median A",
            "median B",
            "sprd A",
            "sprd B",
            "worse",
            "bound",
            "status"
        ));
        for spec in specs {
            let (Some(va), Some(vb)) = (ma.get(&spec.name), mb.get(&spec.name)) else {
                continue;
            };
            let (med_a, med_b) = (median(va), median(vb));
            let sp = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
            let (sp_a, sp_b) = (sp(va), sp(vb));
            let worse = worsening(med_a, med_b, spec.higher_is_better);
            let status = match spec.bound {
                None if med_a == med_b => "same",
                None => "moved",
                Some(bound) => {
                    let b_always_better = va.iter().all(|&x| {
                        vb.iter()
                            .all(|&y| worsening(x, y, spec.higher_is_better) < 0.0)
                    });
                    if sp_a.max(sp_b) > bound && !b_always_better {
                        "unresolved"
                    } else if worse > bound {
                        out_of_bound = true;
                        "out-of-bound"
                    } else {
                        "ok"
                    }
                }
            };
            out.push_str(&format!(
                "{:<34} {:>14.6} {:>14.6} {:>7.1}% {:>7.1}% {:>+7.1}% {:>6}  {}\n",
                spec.name,
                med_a,
                med_b,
                sp_a * 100.0,
                sp_b * 100.0,
                worse * 100.0,
                spec.bound
                    .map_or("-".to_string(), |x| format!("{:.0}%", x * 100.0)),
                status
            ));
        }
    }
    let mut differing = 0;
    for (run, da) in &a.digests {
        if b.digests.get(run).is_some_and(|db| db != da) {
            differing += 1;
            out.push_str(&format!(
                "digest DIFFERS: {} seed {} trace {}\n",
                run.0, run.2, run.1
            ));
        }
    }
    out.push_str(&format!(
        "digests: {differing} differing; failed cells: {} in A, {} in B\n",
        a.failed, b.failed
    ));
    Ok((out, out_of_bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end":[
        {"name":"wall_s","unit":"s","better":"lower","bound":0.1},
        {"name":"events_per_s","unit":"1/s","better":"higher","bound":0.1}],
      "per_layer":[{"name":"netsim.engine.events","unit":"count","better":"lower"}]}"#;

    fn run(workload: &str, seed: u32, wall: f64, eps: f64) -> String {
        RunReport {
            workload: workload.to_string(),
            seed,
            trace: 0,
            attempted: 6,
            failed: 0,
            digest: "00".to_string(),
            digest_matches: None,
            samples: vec![("passes", 3)],
            notes: vec![("raw_wall_s", wall)],
            metrics: vec![
                metric("wall_s", "s", wall),
                metric("events_per_s", "1/s", eps),
            ],
        }
        .report_line()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunReport {
            workload: "w".to_string(),
            seed: 0,
            trace: 0,
            attempted: 12,
            failed: 0,
            digest: "ab".to_string(),
            digest_matches: Some(true),
            samples: vec![],
            notes: vec![],
            metrics: vec![metric("wall_s", "s", 1.2034)],
        };
        let v = Value::parse(&r.result_line()).expect("valid JSON");
        let keys: Vec<&String> = v.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        assert!(Value::parse(&r.report_line()).is_ok());
        // One of the two declared end-to-end metrics is missing.
        assert!(r.check_declared(BENCH).is_err());
        let both = RunReport {
            metrics: vec![
                metric("wall_s", "s", 1.0),
                metric("events_per_s", "1/s", 2.0),
            ],
            ..r
        };
        assert_eq!(both.check_declared(BENCH), Ok(()));
    }

    #[test]
    fn compare_marks_rows_against_the_bound() {
        let a = [
            run("w", 0, 1.00, 100.0),
            run("w", 1, 1.01, 101.0),
            run("w", 2, 0.99, 99.0),
        ]
        .join("\n");
        // Same within noise: ok on both metrics.
        let (table, bad) = compare(&a, &a, BENCH).expect("compare");
        assert!(!bad, "{table}");
        assert_eq!(table.matches(" ok\n").count(), 2, "{table}");
        // 20% slower wall: out of bound; throughput unchanged.
        let b = [
            run("w", 0, 1.20, 100.0),
            run("w", 1, 1.21, 101.0),
            run("w", 2, 1.19, 99.0),
        ]
        .join("\n");
        let (table, bad) = compare(&a, &b, BENCH).expect("compare");
        assert!(bad);
        assert!(table.contains("out-of-bound"), "{table}");
        // A lower events_per_s is the worse direction.
        let c = [
            run("w", 0, 1.0, 80.0),
            run("w", 1, 1.0, 81.0),
            run("w", 2, 1.0, 79.0),
        ]
        .join("\n");
        assert!(compare(&a, &c, BENCH).expect("compare").1);
        // Spread wider than the bound: unresolved, not a regression.
        let noisy = [
            run("w", 0, 0.8, 100.0),
            run("w", 1, 1.3, 100.0),
            run("w", 2, 1.0, 100.0),
        ]
        .join("\n");
        let (table, bad) = compare(&a, &noisy, BENCH).expect("compare");
        assert!(!bad);
        assert!(table.contains("unresolved"), "{table}");
    }
}
