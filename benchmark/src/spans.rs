//! In-memory spans around calls into a layer's public functions.
//!
//! `layerprobe` opens a span before each call and closes it after; spans
//! nest by call order, carry the cell key as the identifier shared by
//! everything done for one cell, stay in memory for the whole run and are
//! written out as `trace.json` when it ends. A layer's *self* time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::clock;
use crate::json::{number, quote};

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`, e.g. `sweep.cache.lookup`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index into [`Tracer::cells`] of the cell this work was for.
    pub cell: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced run (single-threaded by design: the traced
/// pass runs one cell at a time so allocation counts stay exact).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Cell keys, referenced by [`Span::cell`].
    pub cells: Vec<String>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: clock::now(),
            spans: Vec::new(),
            cells: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        clock::now().duration_since(self.origin).as_nanos() as u64
    }

    /// Registers a cell key and returns its identifier for [`Tracer::span`].
    pub fn cell(&mut self, key: &str) -> usize {
        self.cells.push(key.to_string());
        self.cells.len() - 1
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open, and returns `f`'s result. `f` gets the tracer back so it can
    /// open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            cell,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations in nanoseconds of every span named `name`, in call order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Renders the spans as the `trace.json` document.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(|c| quote(c)).collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let opt = |o: Option<usize>| o.map_or("null".to_string(), |i| i.to_string());
                format!(
                    "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                    quote(s.name),
                    s.start_ns,
                    s.end_ns,
                    opt(s.parent),
                    opt(s.cell)
                )
            })
            .collect();
        let selfs: Vec<String> = self_times(&self.spans)
            .iter()
            .map(|(name, t)| {
                format!(
                    "{{\"name\":{},\"calls\":{},\"total_ms\":{},\"self_ms\":{}}}",
                    quote(name),
                    t.calls,
                    number(t.total_ns as f64 / 1e6),
                    number(t.self_ns as f64 / 1e6)
                )
            })
            .collect();
        format!(
            "{{\"cells\":[{}],\n\"layers\":[{}],\n\"spans\":[\n{}\n]}}\n",
            cells.join(","),
            selfs.join(","),
            spans.join(",\n")
        )
    }
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the spans' durations minus what their direct children cover.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the summed duration
/// of its direct children (children of one parent never overlap — the
/// traced pass is single-threaded — so the sum is the covered interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(*covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("cell.run", 10, 60, Some(0)),
            span("engine.run", 20, 50, Some(1)),
            span("cell.run", 60, 90, Some(0)),
        ];
        let t = self_times(&spans);
        // pass: 100 − (50 + 30); grandchildren are not subtracted twice.
        assert_eq!(t["pass"].self_ns, 20);
        assert_eq!(t["pass"].total_ns, 100);
        // cell.run: (50 − 30) + 30 over two calls.
        assert_eq!(
            t["cell.run"],
            LayerTime {
                calls: 2,
                total_ns: 80,
                self_ns: 50
            }
        );
        assert_eq!(t["engine.run"].self_ns, 30);
        // Self times partition the root span.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_by_call_order_and_shares_the_cell_id() {
        let mut tr = Tracer::new();
        let cell = tr.cell("preset/fabric/lb=REPS/s=0");
        let got = tr.span("outer", Some(cell), |tr| {
            tr.span("inner", Some(cell), |_| 7) + tr.span("inner", Some(cell), |_| 1)
        });
        assert_eq!(got, 8);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert!(tr.spans.iter().all(|s| s.cell == Some(cell)));
        assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tr.durations_ns("inner").len(), 2);
        let doc = crate::json::Value::parse(&tr.to_json()).expect("trace.json parses");
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(3)
        );
    }
}
