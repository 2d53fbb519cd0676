//! The top-level `README.md` is the experiment index — the only place
//! that says which command regenerates which figure. These checks keep it
//! from drifting: every preset, every theory entry and every shipped
//! example grid must be named there, each figure with a runnable command.

use harness::Scale;
use sweep::{glob, presets, specfile};

const README: &str = include_str!("../../../README.md");

/// The `bench` crate's `theory::ENTRIES` names (`bench` depends on this
/// crate, so they are spelled out; `bench`'s own test checks its table
/// against the README as well).
const THEORY_ENTRIES: [&str; 6] = [
    "table1_footprint",
    "fig14_evs_imbalance",
    "fig17_balls_bins_ops",
    "fig18_recycled_balls",
    "fig20_coalesced_balls",
    "fig24_trace_cdfs",
];

#[test]
fn readme_indexes_every_preset_and_theory_entry() {
    let all = presets::all(Scale::Quick);
    for m in &all {
        assert!(
            README.contains(&format!("`{}`", m.name)),
            "README.md does not name preset {}",
            m.name
        );
        if let Some(fig) = m.name.strip_prefix("fig") {
            // The documented command's glob must select exactly this preset.
            let filter = format!("fig{}*", &fig[..2]);
            let command = format!("repsbench run --filter '{filter}'");
            assert!(README.contains(&command), "README.md lacks `{command}`");
            let selected = all.iter().filter(|p| glob::matches(&filter, &p.name));
            assert_eq!(selected.count(), 1, "{filter} is ambiguous");
        }
    }
    for entry in THEORY_ENTRIES {
        let command = format!("theory '{}*'", entry.split('_').next().expect("prefix"));
        assert!(README.contains(entry), "README.md does not name {entry}");
        assert!(README.contains(&command), "README.md lacks `{command}`");
    }
}

#[test]
fn readme_names_every_example_grid_and_each_parses() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut grids = 0;
    for entry in std::fs::read_dir(dir).expect("examples/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("grid") {
            continue;
        }
        grids += 1;
        let file = path.file_name().and_then(|f| f.to_str()).expect("utf-8");
        assert!(README.contains(file), "README.md does not name {file}");
        let parsed =
            specfile::parse_file(path.to_str().expect("utf-8")).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            parsed.iter().all(|m| !m.expand().is_empty()),
            "{file} has an empty grid"
        );
    }
    assert!(grids >= 5, "example grids went missing: found {grids}");
}
