//! Golden-output pinning for the DES hot-path refactor.
//!
//! The zero-allocation engine rework (borrowed routing tables, indexed
//! uplink selection, the arena-indexed POD calendar) must not change a
//! single output byte: these tests replay small `fig*` presets and
//! compare the JSONL result stream against snapshots recorded from the
//! pre-refactor engine (`tests/golden/*.jsonl`, generated with
//! `repsbench run --filter <preset> --quiet --out <file>` at quick
//! scale).
//!
//! File names are a contract with the benchmark, which takes every
//! `tests/golden/<name>.quick.jsonl` for the output of the quick-scale
//! built-in preset `<name>`: a golden of any other grid is
//! named `<name>.grid.jsonl`, as `hybrid-churn.grid.jsonl` is
//! (`golden_file_names_match_their_presets` pins the rule).
//!
//! If a future change *intentionally* alters simulation behaviour —
//! a model fix, a new default — regenerate the snapshots with the same
//! command and call the change out in the PR. If these tests fail
//! *unintentionally*, an engine change broke determinism; do not
//! regenerate.

use harness::Scale;
use sweep::matrix::CellResult;
use sweep::{glob, presets, run_cells, to_jsonl};

fn preset_results(name: &str) -> Vec<CellResult> {
    let cells: Vec<_> = presets::all(Scale::Quick)
        .into_iter()
        .filter(|m| glob::matches(name, &m.name))
        .flat_map(|m| m.expand())
        .collect();
    assert!(!cells.is_empty(), "no preset matches {name:?}");
    run_cells(&cells, 4)
}

fn preset_jsonl(name: &str) -> String {
    to_jsonl(&preset_results(name))
}

#[test]
fn golden_file_names_match_their_presets() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut quick = 0;
    for entry in std::fs::read_dir(&dir).expect("golden directory") {
        let path = entry.expect("golden entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("UTF-8 name");
        let Some(stem) = name.strip_suffix(".quick.jsonl") else {
            assert!(
                name.ends_with(".grid.jsonl"),
                "{name}: neither a preset's nor a grid's golden"
            );
            continue;
        };
        let preset = presets::by_name(stem, Scale::Quick)
            .unwrap_or_else(|| panic!("{name}: no quick-scale preset named {stem:?}"));
        let lines = std::fs::read_to_string(&path)
            .expect("golden file")
            .lines()
            .count();
        assert_eq!(
            lines,
            preset.expand().len(),
            "{name}: one line per cell of {stem}"
        );
        quick += 1;
    }
    assert!(quick > 0, "no preset goldens in {}", dir.display());
}

#[test]
fn fig02_tornado_micro_output_is_byte_identical_to_pre_refactor() {
    assert_eq!(
        preset_jsonl("fig02*"),
        include_str!("golden/fig02-tornado-micro.quick.jsonl"),
        "fig02 output drifted from the pre-refactor golden snapshot"
    );
}

#[test]
fn fig07_failure_micro_output_is_byte_identical_to_pre_refactor() {
    assert_eq!(
        preset_jsonl("fig07*"),
        include_str!("golden/fig07-failure-micro.quick.jsonl"),
        "fig07 output drifted from the pre-refactor golden snapshot"
    );
}

// The two axis presets introduced with the spec-file layer (oversubscribed
// fabrics, reconvergence-delay sweeps) are locked deterministic from day
// one: snapshots recorded at quick scale with
// `repsbench run --filter <preset> --quiet --out <file>`.

// The LB-grammar ablation presets are likewise locked from day one:
// every axis value is a canonical LB-spec string, and the snapshot pins
// both the spec-derived cell keys and the simulation bytes.

#[test]
fn evs_sensitivity_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        preset_jsonl("evs-sensitivity"),
        include_str!("golden/evs-sensitivity.quick.jsonl"),
        "evs-sensitivity output drifted from its day-one golden snapshot"
    );
}

#[test]
fn flowlet_gap_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        preset_jsonl("flowlet-gap"),
        include_str!("golden/flowlet-gap.quick.jsonl"),
        "flowlet-gap output drifted from its day-one golden snapshot"
    );
}

#[test]
fn oversub_asym_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        preset_jsonl("oversub-asym"),
        include_str!("golden/oversub-asym.quick.jsonl"),
        "oversub-asym output drifted from its day-one golden snapshot"
    );
}

#[test]
fn reconv_delay_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        preset_jsonl("reconv-delay"),
        include_str!("golden/reconv-delay.quick.jsonl"),
        "reconv-delay output drifted from its day-one golden snapshot"
    );
}

// The adversarial-fault presets are locked from day one too: the snapshot
// pins the `ft=` key components, the cell-derived cable choices, the
// bounded flap schedules and the gray/corrupt drop counters all at once —
// any nondeterminism in fault-plan expansion shows up as a byte diff.

#[test]
fn gray_failures_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        preset_jsonl("gray-failures"),
        include_str!("golden/gray-failures.quick.jsonl"),
        "gray-failures output drifted from its day-one golden snapshot"
    );
}

#[test]
fn flap_reconv_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        preset_jsonl("flap-reconv"),
        include_str!("golden/flap-reconv.quick.jsonl"),
        "flap-reconv output drifted from its day-one golden snapshot"
    );
}

/// A flapping cable keeps one toggle pair on the calendar, whatever its
/// period and the cell's deadline: the heap level's peak is the cell's
/// timers and controls (34 on these cells), not the 80 032 or 400 030
/// toggles a flap expanded up front to the 2 s deadline would put there.
#[test]
fn flap_reconv_cells_keep_the_calendar_heap_small() {
    let results = preset_results("flap-reconv");
    assert_eq!(results.len(), 8);
    for r in &results {
        assert!(
            r.calendar.heap_peak <= 64,
            "{}: heap level peaked at {}",
            r.key,
            r.calendar.heap_peak
        );
    }
}

// The hybrid-fidelity preset is locked from day one: the snapshot pins
// the `fi=` key components, the pkt cells' bytes (which must equal a
// pre-fidelity-axis run exactly — the axis default changes nothing) and
// the fluid-background cells' analytically-derived foreground FCTs.

#[test]
fn hybrid_scale_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        preset_jsonl("hybrid-scale"),
        include_str!("golden/hybrid-scale.quick.jsonl"),
        "hybrid-scale output drifted from its day-one golden snapshot"
    );
}

// The fluid background under flow churn, where the hybrid-scale cells are
// an all-at-once tornado: a trace-driven background admits and completes
// flows at most wakes, across a cable cut. The grid is built here, not as
// a preset, so the preset list and the key fixtures stay as they are; its
// snapshot is named `.grid.jsonl` because tools that check preset output
// take every `<preset>.quick.jsonl` here for a preset's. The records carry
// their diagnostics block, whose `fluid_resolves` and
// `fluid_residual_updates` pin the solver's wake schedule. Recorded with
// `repsbench run --spec-file G --spec-only --diagnostics --quiet --out F`
// over the grid below.

const HYBRID_CHURN_GRID: &str = "\
[hybrid-churn]
fabric     = 2t-k16-o1
lb         = OPS, REPS
workload   = perm-262144B
background = dctrace-10pct-40us+ECMP
failure    = cable1-at8us-perm
fidelity   = hybrid
deadline   = 2000us
seed       = 0
";

/// Runs the `cells` cells of spec file `grid` with their diagnostics
/// blocks, as its `*.grid.jsonl` snapshot was recorded.
fn grid_jsonl(grid: &str, cells: usize) -> String {
    let expanded: Vec<_> = sweep::specfile::parse(grid)
        .expect("grid parses")
        .iter()
        .flat_map(|m| m.expand())
        .collect();
    assert_eq!(expanded.len(), cells);
    let run = sweep::cache::run_cells_instrumented(
        &expanded,
        2,
        sweep::cache::RunSinks {
            diagnostics: true,
            ..Default::default()
        },
    );
    to_jsonl(&run.results)
}

#[test]
fn hybrid_churn_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        grid_jsonl(HYBRID_CHURN_GRID, 2),
        include_str!("golden/hybrid-churn.grid.jsonl"),
        "hybrid-churn output drifted from its snapshot"
    );
}

// The three per-packet loss faults on one fabric: the bit-error cable of
// the `failure` axis under each `fault` of the loss family. With `n=32`
// every cable of the 32-cable fabric is gray, so the bit-error cable
// draws for both causes and the snapshot pins their draw order as well
// as each cause's drop counter. Recorded like `hybrid-churn.grid.jsonl`
// over the grid below.

const LOSS_FAULTS_GRID: &str = "\
[loss-faults]
fabric   = 2t-k8-o1
lb       = OPS, REPS
workload = perm-1048576B
failure  = ber10pm-at8us
fault    = none, gray{p=0.02,n=32}, corrupt{p=0.001}
seed     = 0
";

#[test]
fn loss_faults_output_is_byte_identical_to_its_snapshot() {
    assert_eq!(
        grid_jsonl(LOSS_FAULTS_GRID, 6),
        include_str!("golden/loss-faults.grid.jsonl"),
        "loss-faults output drifted from its snapshot"
    );
}
