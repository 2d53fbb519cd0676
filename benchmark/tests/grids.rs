//! The pinned grids against today's program: every grid parses with the
//! real spec-file parser, and the suite grid still names cells of the
//! built-in quick preset pool (so `suite_cold` keeps meaning "the suite a
//! user runs"), with exactly the reference cells `expected/` pins.

use std::collections::BTreeSet;

use repsperf::workload::{self, WORKLOADS};

fn keys_of(grid: &str) -> BTreeSet<String> {
    sweep::specfile::parse(grid)
        .expect("the grid parses")
        .iter()
        .flat_map(|m| m.expand())
        .map(|c| c.key())
        .collect()
}

#[test]
fn every_suite_cell_is_a_cell_of_todays_quick_preset_pool() {
    let suite = keys_of(&WORKLOADS[0].rendered_grid(0).expect("suite.grid"));
    let pool: BTreeSet<String> = sweep::presets::all(harness::Scale::Quick)
        .iter()
        .flat_map(|m| m.expand())
        .map(|c| c.key())
        .collect();
    assert_eq!(suite.len(), 330);
    let stale: Vec<&String> = suite.difference(&pool).collect();
    assert!(
        stale.is_empty(),
        "suite.grid cells no preset produces: {stale:?}"
    );
}

#[test]
fn every_workload_grid_parses_and_its_seed_moves_every_cell() {
    for w in &WORKLOADS {
        let zero = keys_of(&w.rendered_grid(0).expect(w.name));
        let seven = keys_of(&w.rendered_grid(7).expect(w.name));
        assert!(!zero.is_empty(), "{}", w.name);
        assert_eq!(zero.len(), seven.len(), "{}", w.name);
        assert!(
            zero.is_disjoint(&seven),
            "{}: a cell ignores --seed",
            w.name
        );
    }
}

#[test]
fn expected_completed_rows_name_real_seed_zero_cells() {
    for w in &WORKLOADS {
        let cells = keys_of(&w.rendered_grid(0).expect(w.name));
        let pinned = workload::expected_completed(w.name).expect("completed.tsv");
        let unknown: Vec<&String> = pinned.difference(&cells).collect();
        assert!(unknown.is_empty(), "{}: {unknown:?}", w.name);
        // suite_warm replays suite_cold's cells and borrows its rows.
        assert_eq!(pinned.is_empty(), w.name == "suite_warm", "{}", w.name);
    }
}
