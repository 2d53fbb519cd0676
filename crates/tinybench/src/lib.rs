//! A minimal, dependency-free stand-in for the [`criterion`] crate.
//!
//! This workspace builds in offline environments where crates.io is not
//! reachable, so the real `criterion` cannot be fetched. The
//! micro-benchmarks only need a small slice of the API; this crate
//! provides that slice — in the same spirit as `proptest-shim` — with
//! wall-clock measurement and machine-readable JSON output:
//!
//! * [`Harness::bench_function`] with a criterion-style [`Bencher`]
//!   (`iter`, `iter_batched`, `iter_custom`),
//! * per-bench element throughput via [`Bencher::elements`]
//!   (criterion's `Throughput::Elements`),
//! * automatic iteration-count calibration against a wall-clock budget,
//!   overridable for CI smoke runs (`TINYBENCH_TARGET_MS`,
//!   [`Harness::target_ms`]),
//! * a fixed-field-order JSON report ([`Harness::to_json`]) so downstream
//!   tooling can diff runs and gate regressions.
//!
//! Measurements are wall-clock medians over a handful of samples — good
//! enough to detect the 1.5–2x hot-path changes this repo tracks, not a
//! substitute for criterion's statistics.
//!
//! [`alloc`] holds the workspace's one counting global allocator, shared
//! by the allocation-accounting tests and `alloctrace`.
//!
//! [`criterion`]: https://crates.io/crates/criterion

pub mod alloc;

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-bench measurement budget in milliseconds (CLI/env override).
const DEFAULT_TARGET_MS: u64 = 200;
/// Samples per bench; the median is reported.
const SAMPLES: usize = 5;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/name` style, caller-chosen).
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Median wall-clock time of one sample, in nanoseconds.
    pub sample_ns: u64,
    /// Nanoseconds per iteration (median sample / iters).
    pub ns_per_iter: f64,
    /// Iterations per second.
    pub iters_per_sec: f64,
    /// Elements processed per iteration, when the bench declared throughput.
    pub elements_per_iter: Option<u64>,
    /// Elements per second (`elements_per_iter * iters_per_sec`).
    pub elems_per_sec: Option<f64>,
}

impl BenchResult {
    /// Renders the result as one JSON object with a fixed field order.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"name\":\"");
        for c in self.name.chars() {
            match c {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
                c => s.push(c),
            }
        }
        s.push_str(&format!(
            "\",\"iters\":{},\"sample_ns\":{},\"ns_per_iter\":{:.3},\"iters_per_sec\":{:.3}",
            self.iters, self.sample_ns, self.ns_per_iter, self.iters_per_sec
        ));
        match (self.elements_per_iter, self.elems_per_sec) {
            (Some(n), Some(eps)) => {
                s.push_str(&format!(
                    ",\"elements_per_iter\":{n},\"elems_per_sec\":{eps:.3}"
                ));
            }
            _ => s.push_str(",\"elements_per_iter\":null,\"elems_per_sec\":null"),
        }
        s.push('}');
        s
    }
}

/// The timing context handed to each benchmark closure.
///
/// The harness calls the closure several times while calibrating `iters`;
/// the closure must time exactly `self.iters` executions of the routine
/// through one of the `iter*` methods.
pub struct Bencher {
    /// Number of routine executions this call must time.
    pub iters: u64,
    elapsed: Duration,
    elements: Option<u64>,
}

impl Bencher {
    /// Times `iters` back-to-back executions of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` on fresh inputs from `setup`, excluding setup time
    /// (criterion's `iter_batched` with per-iteration batches).
    pub fn iter_batched<S, O, Setup, F>(&mut self, mut setup: Setup, mut routine: F)
    where
        Setup: FnMut() -> S,
        F: FnMut(S) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }

    /// Hands full timing control to the routine: it receives the iteration
    /// count and must return the elapsed wall-clock time.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut routine: F) {
        self.elapsed = routine(self.iters);
    }

    /// Declares that each iteration processes `n` elements, enabling the
    /// elements-per-second throughput column (criterion's
    /// `Throughput::Elements`).
    pub fn elements(&mut self, n: u64) {
        self.elements = Some(n);
    }
}

/// The benchmark harness: runs closures, collects [`BenchResult`]s.
#[derive(Debug, Default)]
pub struct Harness {
    results: Vec<BenchResult>,
    target: Option<Duration>,
    filter: Option<String>,
}

impl Harness {
    /// A harness with the default measurement budget (or the
    /// `TINYBENCH_TARGET_MS` environment override).
    pub fn new() -> Harness {
        Harness::default()
    }

    /// Overrides the per-sample wall-clock budget (CI smoke runs).
    pub fn target_ms(mut self, ms: u64) -> Harness {
        self.target = Some(Duration::from_millis(ms.max(1)));
        self
    }

    /// Only runs benches whose name contains `pat` (substring match);
    /// everything else is skipped silently and left out of the report.
    pub fn filter(mut self, pat: &str) -> Harness {
        self.filter = Some(pat.to_string());
        self
    }

    fn target(&self) -> Duration {
        if let Some(t) = self.target {
            return t;
        }
        let ms = std::env::var("TINYBENCH_TARGET_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_TARGET_MS);
        Duration::from_millis(ms)
    }

    /// Runs one benchmark: calibrates the iteration count until a sample
    /// fills the wall-clock budget, then reports the median of
    /// [`SAMPLES`] samples.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        if let Some(pat) = &self.filter {
            if !name.contains(pat.as_str()) {
                return;
            }
        }
        let target = self.target();
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
            elements: None,
        };
        // Calibration: grow iters geometrically until one sample takes at
        // least the budget (or the count stops mattering for huge routines).
        loop {
            f(&mut b);
            if b.elapsed >= target || b.iters >= 1 << 30 {
                break;
            }
            let grow = if b.elapsed.is_zero() {
                16
            } else {
                // Aim 20% past the budget to converge in one or two steps.
                let ratio = target.as_secs_f64() / b.elapsed.as_secs_f64() * 1.2;
                ratio.clamp(2.0, 100.0) as u64
            };
            b.iters = b.iters.saturating_mul(grow);
        }
        let mut samples: Vec<Duration> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            f(&mut b);
            samples.push(b.elapsed);
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let sample_ns = median.as_nanos() as u64;
        let ns_per_iter = sample_ns as f64 / b.iters as f64;
        let iters_per_sec = if ns_per_iter > 0.0 {
            1e9 / ns_per_iter
        } else {
            0.0
        };
        let elems_per_sec = b.elements.map(|n| n as f64 * iters_per_sec);
        let result = BenchResult {
            name: name.to_string(),
            iters: b.iters,
            sample_ns,
            ns_per_iter,
            iters_per_sec,
            elements_per_iter: b.elements,
            elems_per_sec,
        };
        eprintln!("{}", render_line(&result));
        self.results.push(result);
    }

    /// All results measured so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders every result as a JSON array (fixed field order, one object
    /// per bench, execution order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str("  ");
            s.push_str(&r.to_json());
        }
        s.push_str("\n]\n");
        s
    }
}

/// One human-readable progress line per bench (stderr).
fn render_line(r: &BenchResult) -> String {
    let mut line = format!(
        "{:<40} {:>12} ns/iter {:>14.0} iters/s",
        r.name,
        format_ns(r.ns_per_iter),
        r.iters_per_sec
    );
    if let Some(eps) = r.elems_per_sec {
        line.push_str(&format!("  {:>12.2} M elems/s", eps / 1e6));
    }
    line
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.1}m", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}k", ns / 1e3)
    } else {
        format!("{ns:.1}")
    }
}

/// Extracts `"field":<number>` for the record with `"name":"<name>"` from a
/// tinybench JSON report. Good enough for regression gating without a JSON
/// dependency; returns `None` when the record or field is missing.
pub fn json_field(report: &str, name: &str, field: &str) -> Option<f64> {
    let probe = format!("\"name\":\"{name}\"");
    let start = report.find(&probe)?;
    let record = &report[start..];
    let end = record.find('}')?;
    let record = &record[..end];
    let fprobe = format!("\"{field}\":");
    let fstart = record.find(&fprobe)? + fprobe.len();
    let rest = &record[fstart..];
    let stop = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..stop].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrates_and_measures_a_cheap_routine() {
        let mut h = Harness::new().target_ms(5);
        let mut acc = 0u64;
        h.bench_function("spin", |b| {
            b.iter(|| {
                acc = acc.wrapping_mul(31).wrapping_add(1);
                acc
            })
        });
        let r = &h.results()[0];
        assert!(r.iters > 1, "cheap routine must calibrate up: {}", r.iters);
        assert!(r.ns_per_iter > 0.0);
        assert!(r.iters_per_sec > 0.0);
        assert_eq!(r.elements_per_iter, None);
    }

    #[test]
    fn throughput_elements_are_reported() {
        let mut h = Harness::new().target_ms(2);
        h.bench_function("batch", |b| {
            b.elements(100);
            b.iter(|| std::hint::black_box(42))
        });
        let r = &h.results()[0];
        assert_eq!(r.elements_per_iter, Some(100));
        let eps = r.elems_per_sec.expect("throughput set");
        assert!((eps / r.iters_per_sec - 100.0).abs() < 1e-6);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut h = Harness::new().target_ms(2);
        h.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u64; 16], |v| v.iter().sum::<u64>())
        });
        assert!(h.results()[0].ns_per_iter > 0.0);
    }

    #[test]
    fn iter_custom_controls_timing() {
        let mut h = Harness::new().target_ms(1);
        h.bench_function("custom", |b| {
            b.iter_custom(|iters| Duration::from_nanos(iters * 10))
        });
        let r = &h.results()[0];
        assert!((r.ns_per_iter - 10.0).abs() < 1.0, "{}", r.ns_per_iter);
    }

    #[test]
    fn json_roundtrips_through_field_extractor() {
        let mut h = Harness::new().target_ms(1);
        h.bench_function("a/b", |b| {
            b.elements(7);
            b.iter(|| 1u32)
        });
        let json = h.to_json();
        assert!(json.starts_with("[\n"), "{json}");
        let eps = json_field(&json, "a/b", "elems_per_sec").expect("field");
        assert!(eps > 0.0);
        let iters = json_field(&json, "a/b", "iters").expect("field");
        assert!(iters >= 1.0);
        assert_eq!(json_field(&json, "missing", "iters"), None);
        assert_eq!(json_field(&json, "a/b", "missing"), None);
    }

    #[test]
    fn json_escapes_names() {
        let r = BenchResult {
            name: "quo\"te\\".to_string(),
            iters: 1,
            sample_ns: 1,
            ns_per_iter: 1.0,
            iters_per_sec: 1.0,
            elements_per_iter: None,
            elems_per_sec: None,
        };
        let j = r.to_json();
        assert!(j.contains("quo\\\"te\\\\"), "{j}");
    }
}
