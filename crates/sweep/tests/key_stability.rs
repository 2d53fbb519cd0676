//! Cell-key stability: extending the key material (the reconvergence axis,
//! new fabrics, new presets) must not move a single *pre-existing* cell.
//!
//! A cell's key determines its derived RNG seed, its cache address and its
//! fleet-shard assignment; a silent key change invalidates every warm
//! cache and reshuffles shard membership without anyone noticing. The
//! fixture `tests/fixtures/cell_keys_pre_oversub.tsv` was recorded from
//! the presets *before* the oversubscription/reconvergence axes landed
//! (`scale<TAB>derived_seed<TAB>shard-of-4<TAB>key`, regenerate only for
//! intentional changes via `cargo run -p sweep --example dump_cell_keys`).

use std::collections::BTreeSet;

use harness::Scale;
use sweep::{presets, specfile};

const FIXTURE: &str = include_str!("fixtures/cell_keys_pre_oversub.tsv");

/// The full-pool snapshot regenerated after the LB-spec grammar landed
/// (PR 5): every preset — the new ablations included — with labels
/// derived from [`baselines::kind::LbKind::spec`]. Its overlap with the
/// pre-oversub fixture is byte-identical, proving the grammar moved zero
/// pre-existing cells; future PRs diff against the wider pin.
const FIXTURE_LBSPEC: &str = include_str!("fixtures/cell_keys_with_lbspec.tsv");

fn rows_of(fixture: &'static str) -> Vec<(&'static str, u64, u64, &'static str)> {
    fixture
        .lines()
        .map(|l| {
            let mut f = l.splitn(4, '\t');
            let scale = f.next().expect("scale column");
            let seed = u64::from_str_radix(f.next().expect("seed column"), 16).expect("hex seed");
            let shard: u64 = f.next().expect("shard column").parse().expect("shard");
            let key = f.next().expect("key column");
            (scale, seed, shard, key)
        })
        .collect()
}

fn fixture_rows() -> Vec<(&'static str, u64, u64, &'static str)> {
    rows_of(FIXTURE)
}

/// Current `(derived_seed, key)` pairs for the presets named in the
/// fixture, in expansion order.
fn current_rows(scale: Scale, preset_names: &BTreeSet<&str>) -> Vec<(u64, String)> {
    presets::all(scale)
        .into_iter()
        .filter(|m| preset_names.contains(m.name.as_str()))
        .flat_map(|m| m.expand())
        .map(|c| (c.derived_seed(), c.key()))
        .collect()
}

#[test]
fn pre_existing_presets_kept_every_key_seed_and_shard() {
    let rows = fixture_rows();
    assert_eq!(rows.len(), 522, "fixture shape changed unexpectedly");
    let fixture_presets: BTreeSet<&str> = rows
        .iter()
        .map(|(_, _, _, key)| key.split('/').next().expect("preset component"))
        .collect();
    for (tag, scale) in [("quick", Scale::Quick), ("full", Scale::Full)] {
        let expected: Vec<(u64, String)> = rows
            .iter()
            .filter(|(s, _, _, _)| *s == tag)
            .map(|(_, seed, _, key)| (*seed, key.to_string()))
            .collect();
        let current = current_rows(scale, &fixture_presets);
        assert_eq!(
            current, expected,
            "{tag}: a pre-existing preset's cells moved (key/seed/order drift)"
        );
        // Shard membership is derived from the seed; pin it explicitly
        // anyway so a future re-derivation cannot drift silently.
        for (_, seed, shard, key) in rows.iter().filter(|(s, _, _, _)| *s == tag) {
            assert_eq!(seed % 4, *shard, "{key}: shard-of-4 membership moved");
        }
    }
}

#[test]
fn full_pool_matches_the_regenerated_lbspec_fixture() {
    // The wider pin: the whole current pool (spec-derived LB labels, the
    // ablation presets) in expansion order, seeds and shard membership
    // included. Together with the pre-oversub fixture test above this
    // proves the grammar refactor moved zero pre-existing cells while the
    // new presets only extended the suite.
    let rows = rows_of(FIXTURE_LBSPEC);
    assert_eq!(rows.len(), 660, "lbspec fixture shape changed unexpectedly");
    let pre: BTreeSet<(u64, &str)> = fixture_rows()
        .iter()
        .map(|(_, seed, _, key)| (*seed, *key))
        .collect();
    let post: BTreeSet<(u64, &str)> = rows.iter().map(|(_, seed, _, key)| (*seed, *key)).collect();
    assert!(
        pre.is_subset(&post),
        "a pre-oversub cell is missing from the regenerated fixture"
    );
    for (tag, scale) in [("quick", Scale::Quick), ("full", Scale::Full)] {
        let expected: Vec<(u64, String)> = rows
            .iter()
            .filter(|(s, _, _, _)| *s == tag)
            .map(|(_, seed, _, key)| (*seed, key.to_string()))
            .collect();
        let current: Vec<(u64, String)> = presets::all(scale)
            .into_iter()
            .flat_map(|m| m.expand())
            .map(|c| (c.derived_seed(), c.key()))
            .collect();
        assert_eq!(
            current, expected,
            "{tag}: the current pool drifted from the regenerated fixture"
        );
        for (_, seed, shard, key) in rows.iter().filter(|(s, _, _, _)| *s == tag) {
            assert_eq!(seed % 4, *shard, "{key}: shard-of-4 membership moved");
        }
    }
}

#[test]
fn new_presets_extend_rather_than_perturb_the_suite() {
    let fixture_presets: BTreeSet<&str> = fixture_rows()
        .iter()
        .map(|(_, _, _, key)| key.split('/').next().expect("preset component"))
        .collect();
    let now: BTreeSet<String> = presets::all(Scale::Quick)
        .into_iter()
        .map(|m| m.name)
        .collect();
    for name in &fixture_presets {
        assert!(now.contains(*name), "pre-existing preset {name} vanished");
    }
    for new in [
        "oversub-asym",
        "reconv-delay",
        "evs-sensitivity",
        "flowlet-gap",
        "gray-failures",
        "flap-reconv",
        "hybrid-scale",
    ] {
        assert!(now.contains(new), "new preset {new} missing");
        assert!(
            !fixture_presets.contains(new),
            "{new} must postdate the fixture"
        );
    }
}

/// The suite-wide uniqueness contract, spec files included: quick-scale
/// and full-scale expansions of the whole pool are non-empty per preset,
/// globally collision-free, and disjoint from each other — and a spec file
/// cannot smuggle in a colliding matrix by shadowing a built-in name
/// (`presets::ensure_unique_names` is the gate the CLI applies).
#[test]
fn preset_pools_expand_to_disjoint_unique_nonempty_cell_sets() {
    let mut per_scale: Vec<BTreeSet<String>> = Vec::new();
    for scale in [Scale::Quick, Scale::Full] {
        let pool = presets::all(scale);
        presets::ensure_unique_names(&pool).expect("built-in names are unique");
        let mut keys: BTreeSet<String> = BTreeSet::new();
        for m in &pool {
            let cells = m.expand();
            assert!(!cells.is_empty(), "{}: empty preset", m.name);
            for c in cells {
                assert!(
                    keys.insert(c.key()),
                    "{}: key {} collides across the {scale:?} pool",
                    m.name,
                    c.key()
                );
            }
        }
        per_scale.push(keys);
    }
    assert!(
        per_scale[0].is_disjoint(&per_scale[1]),
        "a quick-scale cell key reappears at full scale: {:?}",
        per_scale[0].intersection(&per_scale[1]).next()
    );

    // A spec file shadowing a built-in name is rejected before it can
    // alias cell keys; under a fresh name the same grid coexists.
    let grid = "[fig02-tornado-micro]\nlb = OPS\n";
    let mut pool = presets::all(Scale::Quick);
    pool.extend(specfile::parse(grid).expect("grid parses"));
    presets::ensure_unique_names(&pool).expect_err("shadowing must be rejected");

    let mut pool = presets::all(Scale::Quick);
    pool.extend(specfile::parse("[my-tornado]\nlb = OPS\n").expect("grid parses"));
    presets::ensure_unique_names(&pool).expect("fresh names are fine");
    let mut keys: BTreeSet<String> = BTreeSet::new();
    for m in &pool {
        for c in m.expand() {
            assert!(keys.insert(c.key()), "spec-file cell key collided");
        }
    }
}
