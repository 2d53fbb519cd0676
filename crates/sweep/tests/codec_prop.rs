//! Property tests for the record codec (`harness::json` and
//! `sweep::parse_record` / `jsonl_record`), seeded from the golden
//! corpus in `tests/golden/*.jsonl`:
//!
//! 1. `parse_record` → `jsonl_record` is byte-exact on every golden line,
//!    and on lines whose strings carry every escape `json::string` emits
//!    (which parse into owned strings rather than source slices);
//! 2. `Value::parse` and `parse_record` never panic on damaged lines —
//!    byte flips, truncations, duplicated or deleted braces and quotes,
//!    or a 10⁵-deep prefix — and every error that names an offset names
//!    one inside the input;
//! 3. the per-cell store's probe never panics on a damaged result record,
//!    series or trace document (seeded from one real cell's documents,
//!    with the same damage), an undamaged document is a hit, and one cut
//!    anywhere before its last newline never is.
//!
//! The shim does not shrink, so every failure message carries the sampled
//! case and the input verbatim.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use harness::json::Value;
use proptest::prelude::*;
use sweep::matrix::{Cell, CellResult, ScenarioMatrix};
use sweep::sink::jsonl_record;
use sweep::spec::WorkloadSpec;
use sweep::{parse_record, CellStore, DocKind};

/// Every line of every golden file, in file-name order.
fn corpus() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("golden directory")
        .map(|e| e.expect("golden entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let lines: Vec<String> = files
        .iter()
        .flat_map(|p| {
            let text = std::fs::read_to_string(p).expect("golden file");
            text.lines().map(str::to_string).collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(lines.len(), 73, "the golden corpus changed size");
    lines
}

/// What `json::string` escapes: the two-character escapes and `\u00XX`
/// for the other control characters.
const ESCAPED: [&str; 8] = ["\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\u{8}"];

/// `text` with the escapable characters picked by `mask` inserted at
/// `at` (a char index, clamped), plus a non-ASCII char next to them.
fn with_escapes(text: &str, mask: u8, at: usize) -> String {
    let at = text.char_indices().nth(at).map_or(text.len(), |(i, _)| i);
    let inserted: String = (ESCAPED.iter().enumerate())
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, s)| *s)
        .chain(["é"])
        .collect();
    format!("{}{inserted}{}", &text[..at], &text[at..])
}

/// Runs `f`, turning a panic into a failure that names the case.
fn no_panic<T>(case: &str, input: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| panic!("panicked on {case}; input {input:?}"))
}

/// Every `offset N` an error names must lie inside the input.
fn offsets_in_bounds(case: &str, input: &str, err: &str) {
    for part in err.split("offset ").skip(1) {
        let digits: String = part.chars().take_while(char::is_ascii_digit).collect();
        let offset: usize = digits
            .parse()
            .unwrap_or_else(|_| panic!("{case}: unparsable offset in {err:?}; input {input:?}"));
        assert!(
            offset <= input.len(),
            "{case}: error {err:?} names offset {offset} past the input's {} bytes; input {input:?}",
            input.len()
        );
    }
}

/// Parses `input` both ways, checking neither panics and every offset an
/// error names is in bounds.
fn check_damaged(case: &str, input: &str) {
    if let Err(e) = no_panic(case, input, || Value::parse(input).map(|_| ())) {
        offsets_in_bounds(case, input, &e);
    }
    if let Err(e) = no_panic(case, input, || parse_record(input).map(|_| ())) {
        offsets_in_bounds(case, input, &e);
    }
}

/// Applies damage `op` at byte `pos` of `line`; the result is made valid
/// UTF-8 again (a flip inside a multi-byte char becomes U+FFFD).
fn damage(line: &str, op: u8, pos: u64, byte: u8) -> String {
    let mut b = line.as_bytes().to_vec();
    if b.is_empty() {
        return String::new();
    }
    let at = (pos % (b.len() as u64 + 1)) as usize;
    let structural = |c: &u8| matches!(c, b'{' | b'}' | b'[' | b']' | b'"');
    // The structural byte nearest after `at`, wrapping around.
    let nearest = (at..b.len())
        .chain(0..at)
        .find(|&i| structural(&b[i]))
        .unwrap_or(0);
    let last = at.min(b.len() - 1);
    match op % 6 {
        0 => b[last] ^= byte | 1,
        1 => b.truncate(at),
        2 => b.insert(nearest, b[nearest]),
        3 => {
            b.remove(nearest);
        }
        4 => {
            let prefix = if byte & 1 == 0 { "[" } else { "{\"a\":" };
            b.splice(0..0, prefix.repeat(100_000).into_bytes());
        }
        _ => b[last] = b"\"\\{}[],:0-"[byte as usize % 10],
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// One small cell and its real documents of every store kind: the result
/// record, the series document and the trace document.
fn documents() -> &'static (Cell, Vec<(DocKind, String)>) {
    static DOCS: OnceLock<(Cell, Vec<(DocKind, String)>)> = OnceLock::new();
    DOCS.get_or_init(|| {
        let cell = ScenarioMatrix::new("probe-prop")
            .workloads([WorkloadSpec::Tornado { bytes: 16 << 10 }])
            .expand()
            .remove(0);
        let out = cell.run_instrumented(&[DocKind::Series, DocKind::Trace], false);
        let record = (DocKind::Result, jsonl_record(&out.result) + "\n");
        (cell, [vec![record], out.docs].concat())
    })
}

/// Stores `input` as `kind`'s document of `cell` in a scratch store and
/// probes it, checking the probe does not panic.
fn probe(case: &str, kind: DocKind, cell: &Cell, input: &str) -> bool {
    let dir = std::env::temp_dir().join(format!("reps-probe-prop-{}", std::process::id()));
    let store = CellStore::create(dir.join(kind.label()), kind).expect("scratch store");
    store
        .store(cell.derived_seed(), input)
        .expect("scratch write");
    let hit = no_panic(case, input, || store.has(cell));
    let _ = std::fs::remove_dir_all(&dir);
    hit
}

fn round_trip(case: &str, line: &str) -> CellResult {
    let record = no_panic(case, line, || parse_record(line))
        .unwrap_or_else(|e| panic!("{case}: {e}; input {line:?}"));
    let again = jsonl_record(&record);
    assert_eq!(again, line, "{case}: re-render differs; input {line:?}");
    record
}

#[test]
fn golden_records_round_trip_byte_exactly() {
    for (i, line) in corpus().iter().enumerate() {
        round_trip(&format!("golden line {i}"), line);
    }
}

#[test]
fn a_deep_prefix_is_an_error_not_an_abort() {
    for line in corpus().iter().take(3) {
        for prefix in ["[", "{\"a\":", "[{\"k\":"] {
            let input = format!("{}{line}", prefix.repeat(100_000));
            assert!(Value::parse(&input).is_err());
            assert!(parse_record(&input).is_err());
        }
    }
}

proptest! {
    /// Escaped strings in every string field of a record take the owned
    /// path through the parser and still re-render byte-exactly.
    #[test]
    fn escaped_strings_round_trip(
        line in 0usize..73,
        mask in any::<u8>(),
        at in 0usize..64,
        field in 0u8..5,
    ) {
        let corpus = corpus();
        let mut r = round_trip("seed line", &corpus[line]);
        let target = match field {
            0 => &mut r.key,
            1 => &mut r.scenario,
            2 => &mut r.lb,
            3 => &mut r.summary.name,
            _ => &mut r.summary.lb,
        };
        *target = with_escapes(target, mask, at);
        let expected = target.clone();
        let escaped = jsonl_record(&r);
        let case = format!("line {line}, mask {mask:#010b}, at {at}, field {field}");
        let parsed = round_trip(&case, &escaped);
        let got = [parsed.key, parsed.scenario, parsed.lb, parsed.summary.name, parsed.summary.lb];
        prop_assert_eq!(&got[field as usize], &expected, "{}; input {:?}", case, escaped);
    }

    /// Damaged records never panic the parsers, and the errors they give
    /// point inside the input.
    #[test]
    fn damaged_records_never_panic(
        line in 0usize..73,
        op in 0u8..6,
        pos in any::<u64>(),
        byte in any::<u8>(),
        rounds in 1usize..4,
    ) {
        let corpus = corpus();
        let mut input = corpus[line].clone();
        for k in 0..rounds {
            input = damage(&input, op.wrapping_add(k as u8 * 5), pos.rotate_left(k as u32 * 17), byte);
        }
        let case = format!("line {line}, op {op}, pos {pos}, byte {byte}, rounds {rounds}");
        check_damaged(&case, &input);
    }

    /// Damaged documents never panic the store's probe; an undamaged one
    /// is a hit and a truncated one never is.
    #[test]
    fn damaged_documents_never_panic_the_store_probe(
        kind in 0usize..3,
        op in 0u8..6,
        pos in any::<u64>(),
        byte in any::<u8>(),
        rounds in 1usize..3,
    ) {
        let (cell, docs) = documents();
        let (kind, doc) = &docs[kind];
        let mut input = doc.clone();
        for k in 0..rounds {
            input = damage(&input, op.wrapping_add(k as u8 * 5), pos.rotate_left(k as u32 * 17), byte);
        }
        let case = format!("{kind:?}, op {op}, pos {pos}, byte {byte}, rounds {rounds}");
        let hit = probe(&case, *kind, cell, &input);
        if input == *doc {
            prop_assert!(hit, "{}: the undamaged document is a miss", case);
        } else if doc.starts_with(input.as_str()) {
            prop_assert!(!hit, "{}: a truncated document is a hit; input {:?}", case, input);
        }
        // The undamaged document cut at `pos` is never a hit either.
        let cut = &doc[..(pos % doc.len() as u64) as usize];
        prop_assert!(!probe(&case, *kind, cell, cut), "{}: cut at {} is a hit", case, cut.len());
    }
}
