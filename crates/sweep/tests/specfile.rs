//! Spec-file DSL properties:
//!
//! 1. parse → render → parse is byte-stable for arbitrary matrices, and
//!    the reparsed matrix expands to the identical cell keys;
//! 2. every built-in preset re-expressed as a spec file expands to
//!    identical cell keys (the DSL can say everything the Rust builders
//!    say, at both scales);
//! 3. malformed inputs report precise 1-based line numbers.

use proptest::prelude::*;

use harness::Scale;
use sweep::matrix::ScenarioMatrix;
use sweep::{presets, specfile};

/// Deterministic pool sampler (the proptest shim draws the seed; subset
/// selection stays local so pools of unequal length compose).
struct Pick(u64);

impl Pick {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A non-empty, order-preserving subset of `pool`.
    fn subset<T: Clone>(&mut self, pool: &[T]) -> Vec<T> {
        loop {
            let mask = self.next();
            let picked: Vec<T> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
                .map(|(_, v)| v.clone())
                .collect();
            if !picked.is_empty() {
                return picked;
            }
        }
    }

    fn choice<T: Clone>(&mut self, pool: &[T]) -> T {
        pool[(self.next() % pool.len() as u64) as usize].clone()
    }
}

/// Per axis, the values an arbitrary grid takes a subset of. Every fabric
/// has at least 2 ToRs and 16 hosts, so every value fits every fabric.
const POOLS: [(&str, &[&str]); 8] = [
    (
        "fabric",
        &[
            "2t-k8-o1",
            "2t-k6-o2",
            "3t-k4-o1",
            "2t-custom-2x8-u4",
            "ls-4x4-o2",
        ],
    ),
    (
        "lb",
        &[
            "ECMP",
            "OPS",
            "REPS",
            "PLB",
            "MPRDMA",
            "MPTCP",
            "Flowlet",
            "BitMap",
            "Adaptive RoCE",
            "REPS-nofreeze",
            "REPS+freeze@50us",
            "REPS{evs=256,freeze=off}",
            "REPS{buf=16,fto=50us,freezeat=500ns}",
            "OPS{evs=64}",
            "PLB{thresh=0.1,rounds=3}",
            "Flowlet{gap=80us}",
            "BitMap{evs=1024,clear=50us}",
            "MPTCP{subflows=4}",
        ],
    ),
    (
        "workload",
        &[
            "tornado-65536B",
            "perm-3072B",
            "incast4to1-4096B",
            "a2a-w2-1024B",
            "dctrace-40pct-30us",
        ],
    ),
    (
        "failure",
        &[
            "none",
            "cable1-at5us-20us",
            "switches10pct-at8us-perm",
            "degraded5pct-100G",
            "rolling2-every30us-down40us",
        ],
    ),
    ("reconv", &["none", "10us", "500ns"]),
    ("track", &["0", "1"]),
    ("seed", &["0", "1", "5", "9"]),
    ("deadline", &["2000000us", "123us", "77ns"]),
];

fn arbitrary_matrix(seed: u64) -> ScenarioMatrix {
    let mut pick = Pick(seed);
    let mut text = format!("[seed-{seed}]\n");
    for (axis, pool) in POOLS {
        let values = match axis {
            "deadline" => vec![pick.choice(pool)],
            _ => pick.subset(pool),
        };
        text += &format!("{axis} = {}\n", values.join(", "));
    }
    if pick.next() & 1 == 1 {
        // A parameterized background exercises the spec-grammar render path
        // of the `background` setting.
        let lb = pick.choice(&["ECMP", "REPS{evs=128,freeze=off}"]);
        text += &format!("background = tornado-4096B+{lb}\n");
    }
    specfile::parse(&text).expect(&text).remove(0)
}

fn keys(m: &ScenarioMatrix) -> Vec<String> {
    m.expand().iter().map(|c| c.key()).collect()
}

proptest! {
    /// parse ∘ render is the identity on matrices (up to the axis configs
    /// the labels stand for), and render ∘ parse is byte-stable.
    #[test]
    fn round_trip_is_byte_exact(seed in any::<u64>()) {
        let m = arbitrary_matrix(seed);
        let text = specfile::render_matrix(&m);
        let parsed = specfile::parse(&text).expect("rendered matrix parses");
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(
            specfile::render_matrix(&parsed[0]),
            text,
            "render must be parse-stable"
        );
        prop_assert_eq!(keys(&parsed[0]), keys(&m), "cell keys must survive the trip");
    }

    /// Multi-matrix documents round-trip as a whole.
    #[test]
    fn multi_matrix_documents_round_trip(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let ms = vec![arbitrary_matrix(a), arbitrary_matrix(b)];
        let text = specfile::render(&ms);
        let parsed = specfile::parse(&text).expect("rendered document parses");
        prop_assert_eq!(parsed.len(), 2);
        prop_assert_eq!(specfile::render(&parsed), text);
    }
}

#[test]
fn every_builtin_preset_reexpresses_with_identical_cell_keys() {
    for scale in [Scale::Quick, Scale::Full] {
        for m in presets::all(scale) {
            let text = specfile::render_matrix(&m);
            let parsed = specfile::parse(&text).unwrap_or_else(|e| {
                panic!("{} ({scale:?}) does not re-parse: {e}\n{text}", m.name)
            });
            assert_eq!(parsed.len(), 1, "{}", m.name);
            assert_eq!(
                keys(&parsed[0]),
                keys(&m),
                "{} ({scale:?}): spec-file re-expression changed cell keys",
                m.name
            );
        }
    }
}

#[test]
fn ablation_grid_reproduces_the_builtin_ablation_presets() {
    // A parameter sweep is now a text file: the shipped example grid
    // expands to exactly the built-in ablation presets' cells — identical
    // keys, so identical derived seeds, shard membership and cache
    // addresses.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ablation.grid");
    let text = std::fs::read_to_string(path).expect("examples/ablation.grid exists");
    let parsed = specfile::parse(&text).expect("ablation grid parses");
    let names: Vec<&str> = parsed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, vec!["evs-sensitivity", "flowlet-gap"]);
    for m in &parsed {
        let builtin = presets::by_name(&m.name, Scale::Quick).expect("names a built-in preset");
        assert_eq!(
            keys(m),
            keys(&builtin),
            "{}: the example grid drifted from the built-in preset",
            m.name
        );
    }
}

#[test]
fn malformed_inputs_name_their_line() {
    for (text, line, needle) in [
        ("[g]\nplanet = mars", 2, "unknown axis"),
        ("[g]\nlb =", 2, "empty value list"),
        ("[g]\nworkload = tornado-1B,", 2, "empty value"),
        ("[g]\n\n# pad\n[g]", 4, "duplicate matrix name"),
        ("fabric = 2t-k8-o1", 1, "outside a [matrix]"),
        ("[g]\nseed = 1\n\nseed = 2", 4, "duplicate axis"),
        ("[g]\nfabric = 4d-hypercube", 2, "bad fabric"),
        ("[g]\nreconv = sometimes", 2, "bad duration"),
        ("[g]\ncoalesce = plain0", 2, "at least 1"),
        (
            "[g]\nbackground = tornado-1B+ECMP, none",
            2,
            "exactly one value",
        ),
        ("[g]\nbackground = chaos", 2, "is not `workload+LB`"),
        ("[g]\nbackground = chaos+ECMP", 2, "unknown workload"),
        ("[g]\ncc = CUBIC", 2, "unknown cc"),
        ("[g]\nseed = one", 2, "bad seed"),
        ("[g]\nlb = OPS, OPS", 2, "duplicate lb label"),
    ] {
        let err = specfile::parse(text).expect_err(text);
        assert_eq!(err.line, line, "{text:?} -> {err}");
        assert!(err.to_string().contains(needle), "{text:?} -> {err}");
    }
}

#[test]
fn parse_file_prefixes_the_path() {
    let dir = std::env::temp_dir().join(format!("reps-specfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.grid");
    std::fs::write(&path, "[g]\nlb = WAT\n").unwrap();
    let err = specfile::parse_file(&path.to_string_lossy()).expect_err("bad lb");
    assert!(err.contains("bad.grid:line 2:"), "{err}");
    assert!(specfile::parse_file("/no/such/file.grid")
        .expect_err("missing file")
        .contains("/no/such/file.grid"),);
    let _ = std::fs::remove_dir_all(&dir);
}
