//! detlint's own coverage: per-rule fixture pairs (a seeded violation
//! that must trip, a clean file that must pass), lexer round-trips, the
//! pragma grammar, and — the one that keeps CI and `cargo test` in
//! agreement — a live workspace-clean check.

use std::path::Path;

use detlint::lexer::{lex, TokKind};
use detlint::rules::{lint_source, Rule};
use detlint::walk::{lint_workspace, rust_sources};

/// Codes of the findings `src` produces when linted under `path`.
fn codes(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src)
        .into_iter()
        .map(|f| f.rule.code())
        .collect()
}

fn assert_trips(path: &str, src: &str, rule: Rule, at_least: usize) {
    let hits = codes(path, src)
        .iter()
        .filter(|c| **c == rule.code())
        .count();
    assert!(
        hits >= at_least,
        "{path}: expected >= {at_least} {} findings, got {:?}",
        rule.code(),
        codes(path, src)
    );
}

fn assert_clean(path: &str, src: &str) {
    assert_eq!(
        codes(path, src),
        Vec::<&str>::new(),
        "{path}: expected no findings"
    );
}

// ---------------------------------------------------------------- DET001

#[test]
fn det001_fires_on_randomstate_maps_in_sim_crates() {
    let src = include_str!("fixtures/det001_trip.rs");
    // Two type mentions + two constructions of each map kind.
    assert_trips("crates/netsim/src/fixture.rs", src, Rule::Det001, 4);
    assert_trips("crates/sweep/tests/fixture.rs", src, Rule::Det001, 4);
}

#[test]
fn det001_ignores_clean_files_comments_strings_and_other_crates() {
    let trip = include_str!("fixtures/det001_trip.rs");
    let clean = include_str!("fixtures/det001_clean.rs");
    assert_clean("crates/netsim/src/fixture.rs", clean);
    // Outside the simulation crates the rule does not apply at all.
    assert_clean("crates/harness/src/fixture.rs", trip);
    assert_clean("crates/workloads/src/fixture.rs", trip);
}

// ---------------------------------------------------------------- DET002

#[test]
fn det002_fires_on_wall_clock_reads() {
    let src = include_str!("fixtures/det002_trip.rs");
    // Instant::now + two SystemTime mentions (import + ::now).
    assert_trips("crates/sweep/src/fixture.rs", src, Rule::Det002, 2);
    // DET002 is workspace-wide, not just simulation crates.
    assert_trips("crates/harness/src/fixture.rs", src, Rule::Det002, 2);
}

#[test]
fn det002_allows_tinybench_and_pragmad_sites() {
    let trip = include_str!("fixtures/det002_trip.rs");
    let clean = include_str!("fixtures/det002_clean.rs");
    assert_clean("crates/tinybench/src/fixture.rs", trip);
    assert_clean("crates/sweep/src/fixture.rs", clean);
}

// ---------------------------------------------------------------- DET003

#[test]
fn det003_fires_on_pointer_to_usize_casts() {
    let src = include_str!("fixtures/det003_trip.rs");
    assert_trips("crates/netsim/src/fixture.rs", src, Rule::Det003, 2);
    // Address-as-value is banned everywhere, not only sim crates.
    assert_trips("crates/harness/src/fixture.rs", src, Rule::Det003, 2);
}

#[test]
fn det003_ignores_integer_widening_casts() {
    let clean = include_str!("fixtures/det003_clean.rs");
    assert_clean("crates/netsim/src/fixture.rs", clean);
}

// ---------------------------------------------------------------- DET004

#[test]
fn det004_fires_on_floats_in_seed_scopes() {
    let src = include_str!("fixtures/det004_trip.rs");
    assert_trips("crates/netsim/src/hash.rs", src, Rule::Det004, 3);
    assert_trips("crates/sweep/src/shard.rs", src, Rule::Det004, 3);
    assert_trips("crates/sweep/src/axis.rs", src, Rule::Det004, 3);
    // The same code under an unscoped path is fine.
    assert_clean("crates/netsim/src/stats.rs", src);
}

#[test]
fn det004_spares_cfg_test_modules_and_unscoped_functions() {
    let clean = include_str!("fixtures/det004_clean.rs");
    assert_clean("crates/netsim/src/hash.rs", clean);
    let fn_scope = include_str!("fixtures/det004_fn_scope.rs");
    // Exactly the float inside `fn key` — not the struct field type or
    // the report-side aggregation.
    let findings = lint_source("crates/sweep/src/matrix.rs", fn_scope);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Det004);
    assert!(fn_scope
        .lines()
        .nth(findings[0].line as usize - 1)
        .unwrap()
        .contains("1.5"));
}

// --------------------------------------------------------------- SAFE001

#[test]
fn safe001_fires_on_undocumented_unsafe() {
    let src = include_str!("fixtures/safe001_trip.rs");
    // One block + one impl.
    assert_trips("crates/netsim/src/fixture.rs", src, Rule::Safe001, 2);
    assert_trips("src/fixture.rs", src, Rule::Safe001, 2);
}

#[test]
fn safe001_accepts_adjacent_safety_comments() {
    let clean = include_str!("fixtures/safe001_clean.rs");
    assert_clean("crates/netsim/src/fixture.rs", clean);
}

#[test]
fn safe001_requires_adjacency() {
    // A blank line between the SAFETY comment and the unsafe breaks the
    // association: the argument must sit on the code it justifies.
    let src = "// SAFETY: stale, far away\n\nfn f(xs: &[u8]) -> u8 {\n    \
               unsafe { *xs.get_unchecked(0) }\n}\n";
    assert_trips("src/fixture.rs", src, Rule::Safe001, 1);
}

// ---------------------------------------------------------------- pragmas

#[test]
fn pragma_suppresses_only_its_rule_and_line() {
    let src = "use std::collections::HashMap;\n\
               // detlint: allow(DET001) — fixture exemption\n\
               fn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n";
    let found = codes("crates/netsim/src/fixture.rs", src);
    // Line 1 (the import) and line 4 (the construction) still fire; only
    // line 3 is covered.
    assert_eq!(found, vec!["DET001", "DET001"], "{found:?}");
}

#[test]
fn pragma_with_unknown_rule_or_missing_reason_is_a_finding() {
    let unknown = "// detlint: allow(DET999) — whatever\nfn f() {}\n";
    assert_trips("src/fixture.rs", unknown, Rule::Pragma001, 1);
    let unreasoned = "// detlint: allow(DET001)\nfn f() {}\n";
    assert_trips("src/fixture.rs", unreasoned, Rule::Pragma001, 1);
    let fine = "// detlint: allow(DET001) — a justified exemption\nfn f() {}\n";
    assert_clean("src/fixture.rs", fine);
}

#[test]
fn pragma_accepts_plain_dash_and_rule_lists() {
    let src = "// detlint: allow(DET001,DET002) - both justified here\n\
               fn f(m: HashMap<u32, u32>) -> HashMap<u32, u32> { m }\n";
    // Both HashMap mentions share the pragma'd line.
    assert_clean("crates/netsim/src/fixture.rs", src);
}

// ------------------------------------------------------------------ lexer

#[test]
fn lexer_round_trips_every_fixture_and_this_file() {
    let sources: &[&str] = &[
        include_str!("fixtures/det001_trip.rs"),
        include_str!("fixtures/det001_clean.rs"),
        include_str!("fixtures/det002_trip.rs"),
        include_str!("fixtures/det002_clean.rs"),
        include_str!("fixtures/det003_trip.rs"),
        include_str!("fixtures/det003_clean.rs"),
        include_str!("fixtures/det004_trip.rs"),
        include_str!("fixtures/det004_clean.rs"),
        include_str!("fixtures/det004_fn_scope.rs"),
        include_str!("fixtures/safe001_trip.rs"),
        include_str!("fixtures/safe001_clean.rs"),
        include_str!("rules.rs"),
    ];
    for src in sources {
        let rebuilt: String = lex(src).iter().map(|t| t.text).collect();
        assert_eq!(&rebuilt, src, "lexer must be lossless");
    }
}

#[test]
fn lexer_round_trips_the_whole_workspace() {
    let root = workspace_root();
    for (rel, abs) in rust_sources(&root).expect("walk") {
        let src = std::fs::read_to_string(&abs).expect("read");
        let rebuilt: String = lex(&src).iter().map(|t| t.text).collect();
        assert_eq!(rebuilt, src, "lexer must be lossless on {rel}");
    }
}

#[test]
fn lexer_classifies_the_tricky_cases() {
    let kinds = |src: &str| -> Vec<TokKind> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Whitespace)
            .map(|t| t.kind)
            .collect()
    };
    // A string containing HashMap is a Str, not an Ident.
    assert_eq!(kinds(r#""HashMap""#), vec![TokKind::Str]);
    assert_eq!(kinds(r##"r#"raw HashMap"#"##), vec![TokKind::Str]);
    assert_eq!(kinds("// HashMap"), vec![TokKind::LineComment]);
    assert_eq!(
        kinds("/* nested /* HashMap */ */"),
        vec![TokKind::BlockComment]
    );
    // Char literal vs lifetime.
    assert_eq!(kinds("'a'"), vec![TokKind::Char]);
    assert_eq!(kinds("'\\n'"), vec![TokKind::Char]);
    assert_eq!(
        kinds("&'a str"),
        vec![TokKind::Punct, TokKind::Lifetime, TokKind::Ident]
    );
    // Float vs int vs range.
    assert_eq!(kinds("1.5"), vec![TokKind::Float]);
    assert_eq!(kinds("1e9"), vec![TokKind::Float]);
    assert_eq!(kinds("3f64"), vec![TokKind::Float]);
    assert_eq!(kinds("0x1f"), vec![TokKind::Int]);
    assert_eq!(
        kinds("1..5"),
        vec![TokKind::Int, TokKind::Punct, TokKind::Punct, TokKind::Int]
    );
    // Raw identifier.
    assert_eq!(kinds("r#type"), vec![TokKind::Ident]);
}

// ------------------------------------------------------- the live workspace

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// The acceptance-criterion test: the real workspace is clean, so the CI
/// `cargo run -p detlint -- --check` gate and `cargo test` agree.
#[test]
fn the_live_workspace_is_clean() {
    let findings = lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The walker must actually be walking: if it ever silently returned an
/// empty file set, `the_live_workspace_is_clean` would vacuously pass.
#[test]
fn the_walker_sees_the_whole_workspace() {
    let files = rust_sources(&workspace_root()).expect("walk");
    assert!(
        files.len() > 100,
        "expected >100 workspace sources, saw {}",
        files.len()
    );
    let rels: Vec<&str> = files.iter().map(|(r, _)| r.as_str()).collect();
    for expected in [
        "crates/netsim/src/engine.rs",
        "crates/sweep/src/matrix.rs",
        "crates/detlint/src/rules.rs",
        "src/lib.rs",
    ] {
        assert!(rels.contains(&expected), "walker missed {expected}");
    }
    // The seeded-violation fixtures must stay excluded.
    assert!(
        rels.iter().all(|r| !r.contains("tests/fixtures")),
        "fixtures must not be linted as workspace sources"
    );
}
