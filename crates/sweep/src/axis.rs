//! The axis registry: every grid axis as one row of [`AXES`], in cell-key
//! order, which is also expansion order (the last row turns fastest).
//!
//! A row names the axis as spec files spell it, says how its label enters
//! a cell key ([`KeyForm`]), and carries the accessors everything else
//! iterates instead of naming axes: [`ScenarioMatrix::len`],
//! [`ScenarioMatrix::check`] and [`ScenarioMatrix::expand`], [`Cell::key`]
//! and [`Cell::scenario`], [`crate::specfile`]'s parser and renderer, and
//! `repsbench`'s `--lb`/`--fault`/`--fidelity` filters and `list` columns.
//! Adding an axis is one row here plus its value type's `label` and the
//! `parse` that inverts it.
//!
//! Every label this module renders feeds cell keys, derived seeds, shard
//! membership and cache addresses, so the whole file is a DET004 scope:
//! no float may reach it.

use baselines::kind::LbKind;
use netsim::time::Time;
use transport::cc::CcKind;
use transport::config::{CoalesceConfig, CoalesceVariant};

use crate::fault::FaultSpec;
use crate::fidelity::FidelitySpec;
use crate::matrix::{Cell, LabeledLb, ScenarioMatrix};
use crate::spec::{num, FabricSpec, FailureSpec, SimProfile, WorkloadSpec};

/// How an axis label enters a cell key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyForm {
    /// `/label`.
    Bare,
    /// `/tag=label`.
    Tag(&'static str),
    /// `/tag=label`, left out while the label is the given default: the
    /// axis came later, and its default keeps every earlier key, derived
    /// seed, shard and cache address.
    Omit(&'static str, &'static str),
}

/// A `repsbench list` column: its position, header and width.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Position among the columns after `preset` and `cells`.
    pub at: usize,
    /// Header text.
    pub head: &'static str,
    /// Right-aligned width.
    pub width: usize,
}

/// One grid axis.
#[derive(Debug)]
pub struct Axis {
    /// The name spec files spell it with (`fabric = ...`).
    pub name: &'static str,
    /// How its label enters a cell key.
    pub key: KeyForm,
    /// Its `repsbench list` column, if it has one.
    pub column: Option<Column>,
    /// Whether `repsbench run --<name> SPEC|GLOB` filters cells on it.
    pub filter: bool,
    /// How many values a matrix holds on it (1 for a single setting).
    pub len: fn(&ScenarioMatrix) -> usize,
    /// The label of a matrix's `i`-th value.
    pub label: fn(&ScenarioMatrix, usize) -> String,
    /// Appends the label of a cell's value.
    pub write_label: fn(&Cell, &mut String),
    /// Parses one value and returns its canonical label.
    pub canonical: fn(&str) -> Result<String, String>,
    /// Parses a spec-file value list onto a matrix.
    pub set: fn(&mut ScenarioMatrix, &[&str]) -> Result<(), String>,
    /// Copies a matrix's `i`-th value into a cell.
    pub pick: fn(&mut Cell, &ScenarioMatrix, usize),
}

impl Axis {
    /// The labels of a matrix's values on this axis, in order.
    pub fn labels<'a>(&'a self, m: &'a ScenarioMatrix) -> impl Iterator<Item = String> + 'a {
        (0..(self.len)(m)).map(move |i| (self.label)(m, i))
    }

    /// The label of a cell's value on this axis.
    pub fn cell_label(&self, cell: &Cell) -> String {
        let mut label = String::new();
        (self.write_label)(cell, &mut label);
        label
    }

    const fn listed(mut self, at: usize, head: &'static str, width: usize) -> Axis {
        self.column = Some(Column { at, head, width });
        self
    }

    const fn filtered(mut self) -> Axis {
        self.filter = true;
        self
    }
}

/// A swept axis, `values => field`: a `Vec` of values on the matrix, one
/// of them in each cell.
macro_rules! swept {
    ($name:literal, $key:expr, $values:ident => $field:ident, $label:expr, $parse:expr) => {
        Axis {
            name: $name,
            key: $key,
            column: None,
            filter: false,
            len: |m| m.$values.len(),
            label: |m, i| ($label)(&m.$values[i]).into(),
            write_label: |c, out| out.push_str(&($label)(&c.$field)),
            canonical: |s| ($parse)(s).map(|v| ($label)(&v).into()),
            set: |m, values| {
                m.$values = values
                    .iter()
                    .map(|&v| ($parse)(v))
                    .collect::<Result<_, _>>()?;
                Ok(())
            },
            pick: |c, m, i| c.$field = Clone::clone(&m.$values[i]),
        }
    };
}

/// A single-valued setting, `field => field`: one value on the matrix,
/// shared by every cell.
macro_rules! setting {
    ($name:literal, $key:expr, $values:ident => $field:ident, $label:expr, $parse:expr) => {
        Axis {
            name: $name,
            key: $key,
            column: None,
            filter: false,
            len: |_| 1,
            label: |m, _| ($label)(&m.$values).into(),
            write_label: |c, out| out.push_str(&($label)(&c.$field)),
            canonical: |s| ($parse)(s).map(|v| ($label)(&v).into()),
            set: |m, values| match values {
                [v] => {
                    m.$values = ($parse)(v)?;
                    Ok(())
                }
                _ => Err(format!(
                    "{} takes exactly one value, got {}",
                    $name,
                    values.len()
                )),
            },
            pick: |c, m, _| c.$field = Clone::clone(&m.$values),
        }
    };
}

use KeyForm::{Bare, Omit, Tag};

/// Every axis, in cell-key order. The last two, `lb` and `seed`, vary
/// inside one scenario (see [`scenario_axes`]).
pub static AXES: [Axis; 14] = [
    swept!("fabric", Bare, fabrics => fabric, fabric_label, FabricSpec::parse)
        .listed(3, "fab", 4),
    swept!("workload", Bare, workloads => workload, WorkloadSpec::label, WorkloadSpec::parse)
        .listed(1, "wl", 4),
    swept!("failure", Bare, failures => failures, FailureSpec::label, FailureSpec::parse)
        .listed(2, "fail", 4),
    setting!("sim", Tag("sim"), sim => sim, SimProfile::label, SimProfile::parse),
    swept!("cc", Tag("cc"), ccs => cc, CcKind::label, CcKind::parse),
    swept!("coalesce", Tag("co"), coalesce => coalesce, coalesce_label, parse_coalesce),
    swept!("reconv", Omit("rc", "none"), reconv => reconv, reconv_label, parse_reconv)
        .listed(4, "rc", 4),
    swept!("track", Omit("tk", "0"), track => track, u32::to_string, |s| num(s, "tracked ToR")),
    swept!("fault", Omit("ft", "none"), faults => fault, FaultSpec::label, FaultSpec::parse)
        .listed(5, "ft", 4)
        .filtered(),
    swept!("fidelity", Omit("fi", "pkt"), fidelities => fidelity, FidelitySpec::label, FidelitySpec::parse)
        .listed(6, "fi", 4)
        .filtered(),
    setting!("background", Tag("bg"), background => background, background_label, parse_background),
    setting!("deadline", Tag("dl"), deadline => deadline, |v: &Time| v.label(), Time::parse_label),
    swept!("lb", Tag("lb"), lbs => lb, lb_label, LabeledLb::parse)
        .listed(0, "lbs", 4)
        .filtered(),
    swept!("seed", Tag("s"), seeds => seed, u32::to_string, |s| num(s, "seed"))
        .listed(7, "seeds", 6),
];

/// The axis spec files and `repsbench` flags call `name`.
pub fn by_name(name: &str) -> Option<&'static Axis> {
    AXES.iter().find(|a| a.name == name)
}

/// The rows of a scenario key: every axis but `lb` and `seed`.
pub fn scenario_axes() -> &'static [Axis] {
    &AXES[..AXES.len() - 2]
}

/// The `repsbench list` columns, in column order.
pub fn columns() -> Vec<(&'static Axis, Column)> {
    let mut columns: Vec<_> = AXES.iter().filter_map(|a| Some((a, a.column?))).collect();
    columns.sort_by_key(|(_, c)| c.at);
    columns
}

/// Renders `cell`'s key over `rows`: the preset name, then one component
/// per row in the row's [`KeyForm`], written in place.
pub fn render_key(cell: &Cell, rows: &[Axis]) -> String {
    let mut key = String::with_capacity(160);
    key.push_str(&cell.preset);
    for row in rows {
        let start = key.len();
        key.push('/');
        if let Tag(tag) | Omit(tag, _) = row.key {
            key.push_str(tag);
            key.push('=');
        }
        let label = key.len();
        (row.write_label)(cell, &mut key);
        if let Omit(_, default) = row.key {
            if key[label..] == *default {
                key.truncate(start);
            }
        }
    }
    key
}

// === Labels and values without a type of their own ======================

fn fabric_label(fabric: &FabricSpec) -> &str {
    &fabric.label
}

fn lb_label(lb: &LabeledLb) -> &str {
    &lb.label
}

fn coalesce_label((label, _): &(String, CoalesceConfig)) -> &str {
    label
}

/// The label of one reconvergence-axis value: `none` for the paper's
/// pessimistic no-reconvergence default, otherwise the delay in the
/// coarsest exact unit ([`Time::label`]: `25us`, `500ns`, `77ps`) so
/// distinct delays always get distinct labels.
pub fn reconv_label(delay: &Option<Time>) -> String {
    match delay {
        None => "none".to_string(),
        Some(t) => t.label(),
    }
}

/// Inverts [`reconv_label`].
pub fn parse_reconv(s: &str) -> Result<Option<Time>, String> {
    match s {
        "none" => Ok(None),
        _ => Time::parse_label(s).map(Some),
    }
}

/// The coalescing variants by label prefix.
const COALESCE_VARIANTS: [(&str, CoalesceVariant); 3] = [
    ("plain", CoalesceVariant::Plain),
    ("carry", CoalesceVariant::CarryEvs),
    ("reuse", CoalesceVariant::ReuseEvs),
];

/// One coalescing-axis value, labeled from its variant and ratio
/// (`plain4`, `carry16`). `pp`, per-packet ACKs, is the axis default.
pub fn coalescing(ratio: u32, variant: CoalesceVariant) -> (String, CoalesceConfig) {
    let (prefix, _) = COALESCE_VARIANTS
        .iter()
        .find(|(_, v)| *v == variant)
        .expect("every variant has a prefix");
    (
        format!("{prefix}{ratio}"),
        CoalesceConfig::ratio(ratio, variant),
    )
}

/// Parses `pp` or `plainN`/`carryN`/`reuseN` and labels the value through
/// [`coalescing`], so `plain04` and `plain4` are one value.
pub fn parse_coalesce(s: &str) -> Result<(String, CoalesceConfig), String> {
    if s == "pp" {
        return Ok(("pp".to_string(), CoalesceConfig::per_packet()));
    }
    for (prefix, variant) in COALESCE_VARIANTS {
        if let Some(ratio) = s.strip_prefix(prefix) {
            let n: u32 = num(ratio, "coalescing ratio")?;
            if n == 0 {
                return Err(format!("coalescing ratio in {s:?} must be at least 1"));
            }
            return Ok(coalescing(n, variant));
        }
    }
    Err(format!(
        "unknown coalesce policy {s:?} (pp, plainN, carryN or reuseN)"
    ))
}

/// The label of the background setting: `none`, or `workload+LB` with the
/// LB's canonical spec.
pub fn background_label(bg: &Option<(WorkloadSpec, LbKind)>) -> String {
    match bg {
        None => "none".to_string(),
        Some((w, lb)) => format!("{}+{}", w.label(), lb.spec()),
    }
}

/// Inverts [`background_label`]. Splits on the first `+`: workload labels
/// never contain one, while LB specs can (`REPS+freeze@50us`).
pub fn parse_background(s: &str) -> Result<Option<(WorkloadSpec, LbKind)>, String> {
    if s == "none" {
        return Ok(None);
    }
    let (wl, lb) = s
        .split_once('+')
        .ok_or_else(|| format!("background {s:?} is not `workload+LB` or `none`"))?;
    Ok(Some((WorkloadSpec::parse(wl)?, LbKind::parse(lb)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specfile::{parse, render};

    /// Per axis: a value list that leaves the default, and two spellings
    /// of one value (two values, for a single-valued setting).
    const SAMPLES: [(&str, &str, &str); 14] = [
        ("fabric", "2t-k8-o1, ls-4x8-o1", "2t-k8-o1, 2t-k08-o1"),
        (
            "workload",
            "perm-1024B, tornado-2048B",
            "perm-1024B, perm-01024B",
        ),
        (
            "failure",
            "none, cable1-at8us-perm",
            "cable1-at8us-perm, cable1-at08us-perm",
        ),
        ("sim", "fpga", "paper, fpga"),
        ("cc", "DCTCP, EQDS", "EQDS, EQDS"),
        ("coalesce", "pp, plain1, carry16", "plain4, plain04"),
        ("reconv", "none, 25us", "25us, 25000ns"),
        ("track", "0, 3", "1, 01"),
        ("fault", "none, gray{p=0.05}", "gray, gray{p=0.01,at=10us}"),
        (
            "fidelity",
            "pkt, hybrid{bg=fluid}",
            "hybrid, hybrid{bg=fluid}",
        ),
        ("background", "perm-1024B+REPS{evs=128}", "none, none"),
        ("deadline", "1500ns", "1us, 2us"),
        (
            "lb",
            "OPS, REPS{freeze=off}",
            "REPS-nofreeze, REPS{freeze=off}",
        ),
        ("seed", "0, 3", "1, 01"),
    ];

    fn sample(axis: &Axis) -> (&'static str, &'static str) {
        let (_, values, twins) = SAMPLES
            .iter()
            .find(|(name, ..)| *name == axis.name)
            .unwrap_or_else(|| panic!("axis {} has no sample", axis.name));
        (values, twins)
    }

    #[test]
    fn every_axis_rejects_a_repeated_value_at_its_line() {
        for axis in &AXES {
            let (_, twins) = sample(axis);
            let err = parse(&format!("[g]\n\n{} = {twins}\n", axis.name)).expect_err(axis.name);
            assert_eq!(err.line, 3, "{}: {err}", axis.name);
            let (duplicate, single) = (
                format!("duplicate {} label", axis.name),
                format!("{} takes exactly one value", axis.name),
            );
            assert!(
                err.msg.contains(&duplicate) || err.msg.contains(&single),
                "{}: {err}",
                axis.name
            );
        }
    }

    #[test]
    fn every_axis_round_trips_and_keys_only_what_is_not_default() {
        let defaults = ScenarioMatrix::new("g");
        for axis in &AXES {
            let (values, _) = sample(axis);
            let ms = parse(&format!("[g]\n{} = {values}\n", axis.name)).expect(values);
            let text = render(&ms);
            let again = parse(&text).expect(&text);
            assert_eq!(render(&again), text, "{}: render∘parse", axis.name);
            let (cells, before) = (again[0].expand(), ms[0].expand());
            let keys = |cells: &[Cell]| cells.iter().map(Cell::key).collect::<Vec<_>>();
            assert_eq!(keys(&cells), keys(&before), "{}", axis.name);
            for cell in &cells {
                let (key, label) = (format!("{}/", cell.key()), axis.cell_label(cell));
                let keyed = match axis.key {
                    Bare => key.contains(&format!("/{label}/")),
                    Tag(tag) => key.contains(&format!("/{tag}={label}/")),
                    Omit(tag, default) => key.contains(&format!("/{tag}=")) == (label != default),
                };
                assert!(keyed, "{}: {key} ({label})", axis.name);
            }
            if let Omit(_, default) = axis.key {
                // The omitted label is the one a new matrix starts with, and
                // the sample leaves it.
                assert_eq!((axis.label)(&defaults, 0), default, "{}", axis.name);
                assert!(cells.iter().any(|c| axis.cell_label(c) != default));
            }
        }
    }

    #[test]
    fn coalescing_labels_come_from_the_parsed_value() {
        let label = |s: &str| parse_coalesce(s).expect(s).0;
        assert_eq!(label("plain04"), "plain4");
        assert_eq!(label("plain+4"), "plain4");
        assert_eq!(label("carry016"), "carry16");
        // Per-packet ACKs and 1:1 coalescing are one configuration with
        // two labels: fig12 keys its 1:1 cells `co=plain1`.
        assert_eq!(label("pp"), "pp");
        assert_eq!(label("plain1"), "plain1");
    }
}
