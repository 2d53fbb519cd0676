//! The determinism-and-safety rules, their scopes, and the pragma engine.
//!
//! Every rule here exists because a real bug class shipped (or nearly
//! shipped) in this repo — see the crate docs for the catalogue. Rules
//! operate on the lossless token stream from [`crate::lexer`], so a
//! `HashMap` in a doc comment or a string literal never fires.
//!
//! # Suppression pragmas
//!
//! A finding is suppressible **only** via an inline pragma:
//!
//! ```text
//! // detlint: allow(DET001) — reason the exemption is sound
//! ```
//!
//! A pragma is a *plain* comment (`//` or `/* */`, never a doc comment)
//! whose text begins with `detlint:`. It covers the line it shares with
//! code, or — when it stands on its own line — the next line that
//! contains code. Multiple rules may be listed (`allow(DET001,DET002)`).
//! The reason is mandatory and the rule names must be real: a malformed
//! pragma is itself a finding ([`Rule::Pragma001`]), so a typo can never
//! silently disable a rule.

use crate::lexer::{lex, TokKind, Token};

/// The rule catalogue. See each variant's doc and [`Rule::explain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `std::collections::HashMap`/`HashSet` in simulation crates.
    Det001,
    /// Wall-clock reads (`Instant::now`, `SystemTime`) outside the
    /// perf-measurement allowlist.
    Det002,
    /// Pointer-to-`usize` casts (address-as-value).
    Det003,
    /// Float arithmetic inside cell-key / seed-derivation scopes.
    Det004,
    /// An `unsafe` block or impl without a `// SAFETY:` comment.
    Safe001,
    /// A malformed `detlint:` pragma (unknown rule or missing reason).
    Pragma001,
}

impl Rule {
    /// The stable code used in output and pragmas.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Det001 => "DET001",
            Rule::Det002 => "DET002",
            Rule::Det003 => "DET003",
            Rule::Det004 => "DET004",
            Rule::Safe001 => "SAFE001",
            Rule::Pragma001 => "PRAGMA001",
        }
    }

    /// Parses a pragma rule name.
    pub fn from_code(s: &str) -> Option<Rule> {
        Some(match s {
            "DET001" => Rule::Det001,
            "DET002" => Rule::Det002,
            "DET003" => Rule::Det003,
            "DET004" => Rule::Det004,
            "SAFE001" => Rule::Safe001,
            _ => return None,
        })
    }

    /// One-line rationale, printed by `--list-rules`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::Det001 => {
                "RandomState HashMap/HashSet in a simulation crate: iteration order varies \
                 per process, which shipped three cross-process nondeterminism bugs in PR 1 \
                 (RTO sweeps, retransmit queues, ACK flushes). Use netsim::hash::FxHashMap \
                 for hot paths or BTreeMap/BTreeSet where order reaches output."
            }
            Rule::Det002 => {
                "Wall-clock read outside the perf-measurement allowlist: results derived \
                 from Instant/SystemTime differ run-to-run, breaking byte-identical JSONL \
                 across --threads/--shard splits."
            }
            Rule::Det003 => {
                "Pointer cast to usize: addresses differ per process (ASLR), so any value \
                 derived from one — a hash, a sort key, a cache address — is nondeterministic."
            }
            Rule::Det004 => {
                "Float arithmetic in a cell-key or seed-derivation scope: rounding is \
                 platform/opt-level sensitive, and cell keys, derived seeds, shard \
                 membership and cache addresses must be exact integer/string functions."
            }
            Rule::Safe001 => {
                "unsafe block or impl without an immediately preceding `// SAFETY:` comment \
                 stating the invariant that makes it sound."
            }
            Rule::Pragma001 => {
                "Malformed `detlint:` pragma — unknown rule name or missing reason. Every \
                 exemption must name a real rule and justify itself."
            }
        }
    }

    /// All suppressible rules, for `--list-rules`.
    pub const ALL: [Rule; 5] = [
        Rule::Det001,
        Rule::Det002,
        Rule::Det003,
        Rule::Det004,
        Rule::Safe001,
    ];
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable detail.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path,
            self.line,
            self.col,
            self.rule.code(),
            self.msg
        )
    }
}

/// Crates whose sources (including tests) fall under DET001: these feed
/// simulation state or sweep output, where iteration order can reach
/// bytes-on-disk or RNG draws.
const DET001_CRATES: [&str; 5] = [
    "crates/netsim/",
    "crates/transport/",
    "crates/core/",
    "crates/baselines/",
    "crates/sweep/",
];

/// Paths allowed to read wall clocks without a pragma: the whole purpose
/// of these files is measuring wall time.
const DET002_ALLOW: [&str; 1] = ["crates/tinybench/"];

/// Files whose *entire* non-test code is a seed-derivation scope (DET004):
/// the sweep axis registry renders every cell-key label.
const DET004_FILES: [&str; 3] = [
    "crates/netsim/src/hash.rs",
    "crates/sweep/src/axis.rs",
    "crates/sweep/src/shard.rs",
];

/// (file, function names) pairs where only the named function bodies are
/// cell-key/seed scopes — these files legitimately use floats elsewhere
/// (load factors, report aggregation, building failure plans). The
/// `label` functions are the axis values' key labels.
const DET004_FNS: [(&str, &[&str]); 4] = [
    ("crates/sweep/src/fault.rs", &["label"]),
    ("crates/sweep/src/fidelity.rs", &["label"]),
    (
        "crates/sweep/src/matrix.rs",
        &["key", "scenario", "derived_seed", "fnv1a64"],
    ),
    ("crates/sweep/src/spec.rs", &["label"]),
];

/// Lints one source file. `path` must be workspace-relative with forward
/// slashes — rule scoping keys off it.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let tokens = lex(src);
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect();
    let mut findings = Vec::new();
    let pragmas = collect_pragmas(path, &tokens, &code, &mut findings);
    let test_regions = cfg_test_regions(&code);
    let fn_spans = fn_body_spans(&code);

    det001(path, &code, &mut findings);
    det002(path, &code, &mut findings);
    det003(path, &code, &mut findings);
    det004(path, &code, &test_regions, &fn_spans, &mut findings);
    safe001(path, &tokens, &code, &mut findings);

    findings.retain(|f| {
        f.rule == Rule::Pragma001
            || !pragmas
                .iter()
                .any(|p| p.rule == f.rule && p.target_line == f.line)
    });
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// A parsed, well-formed suppression pragma.
struct Pragma {
    rule: Rule,
    target_line: u32,
}

/// Extracts pragmas from comment tokens; malformed ones become
/// [`Rule::Pragma001`] findings.
fn collect_pragmas(
    path: &str,
    tokens: &[Token<'_>],
    code: &[&Token<'_>],
    findings: &mut Vec<Finding>,
) -> Vec<Pragma> {
    let mut out = Vec::new();
    for t in tokens {
        // A pragma is a *plain* comment whose text begins with `detlint:`
        // — doc comments (`///`, `//!`, `/**`, `/*!`) are prose and may
        // mention the pragma grammar without being pragmas.
        let body = match t.kind {
            TokKind::LineComment => {
                let b = &t.text[2..];
                if b.starts_with('/') || b.starts_with('!') {
                    continue;
                }
                b
            }
            TokKind::BlockComment => {
                let b = &t.text[2..];
                if b.starts_with('*') || b.starts_with('!') {
                    continue;
                }
                b.strip_suffix("*/").unwrap_or(b)
            }
            _ => continue,
        };
        let Some(rest) = body.trim_start().strip_prefix("detlint:") else {
            continue;
        };
        let rest = rest.trim_start();
        // The pragma covers its own line when code shares it, otherwise
        // the next line that contains code.
        let target_line = code
            .iter()
            .find(|c| c.line == t.line && c.col < t.col)
            .map(|c| c.line)
            .or_else(|| code.iter().find(|c| c.line > t.end_line()).map(|c| c.line))
            .unwrap_or(t.line);
        match parse_pragma(rest) {
            Ok(rules) => {
                for rule in rules {
                    out.push(Pragma { rule, target_line });
                }
            }
            Err(why) => findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::Pragma001,
                msg: why,
            }),
        }
    }
    out
}

/// Parses `allow(RULE[,RULE...]) — reason` (the text after `detlint:`).
fn parse_pragma(rest: &str) -> Result<Vec<Rule>, String> {
    let Some(args) = rest.strip_prefix("allow(") else {
        return Err(format!(
            "expected `allow(RULE) — reason` after `detlint:`, got {:?}",
            rest.chars().take(40).collect::<String>()
        ));
    };
    let Some(close) = args.find(')') else {
        return Err("unclosed `allow(` in pragma".to_string());
    };
    let mut rules = Vec::new();
    for name in args[..close].split(',') {
        let name = name.trim();
        match Rule::from_code(name) {
            Some(r) => rules.push(r),
            None => return Err(format!("unknown rule {name:?} in pragma")),
        }
    }
    if rules.is_empty() {
        return Err("empty rule list in pragma".to_string());
    }
    // The reason: anything non-empty after a `—`/`--`/`-`/`:` separator.
    let after = args[close + 1..].trim_start();
    let reason = after
        .strip_prefix('\u{2014}')
        .or_else(|| after.strip_prefix("--"))
        .or_else(|| after.strip_prefix('-'))
        .or_else(|| after.strip_prefix(':'))
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        return Err(
            "pragma needs a reason: `detlint: allow(RULE) — why this exemption is sound`"
                .to_string(),
        );
    }
    Ok(rules)
}

/// Token-index ranges (into the code-token list) covered by
/// `#[cfg(test)] mod ... { ... }` blocks.
fn cfg_test_regions(code: &[&Token<'_>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let is_attr = code[i].text == "#"
            && code[i + 1].text == "["
            && code[i + 2].text == "cfg"
            && code[i + 3].text == "("
            && code[i + 4].text == "test"
            && code[i + 5].text == ")"
            && code[i + 6].text == "]";
        if !is_attr {
            i += 1;
            continue;
        }
        // Skip any further attributes between the cfg and the item.
        let mut j = i + 7;
        while j < code.len() && code[j].text == "#" {
            let mut depth = 0i32;
            j += 1;
            while j < code.len() {
                match code[j].text {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if code.get(j).map(|t| t.text) == Some("mod") {
            if let Some(open) = code[j..].iter().position(|t| t.text == "{") {
                let open = j + open;
                let close = matching_brace(code, open);
                out.push((open, close));
                i = open + 1;
                continue;
            }
        }
        i = j;
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(code: &[&Token<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    code.len().saturating_sub(1)
}

/// `(name, body_open, body_close)` spans for every `fn` item, by
/// code-token index. Closures stay attributed to their enclosing fn.
fn fn_body_spans(code: &[&Token<'_>]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].text != "fn" || code[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = code[i + 1].text.to_string();
        // The body `{` is the first brace at zero paren/bracket depth;
        // a `;` there instead means a bodyless trait/extern decl.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut open = None;
        while j < code.len() {
            match code[j].text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = open {
            out.push((name, open, matching_brace(code, open)));
            i = open + 1;
        } else {
            i = j + 1;
        }
    }
    out
}

/// DET001: `HashMap`/`HashSet` identifiers in simulation crates.
fn det001(path: &str, code: &[&Token<'_>], findings: &mut Vec<Finding>) {
    if !DET001_CRATES.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for t in code {
        if t.kind == TokKind::Ident && matches!(t.text, "HashMap" | "HashSet") {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::Det001,
                msg: format!(
                    "{} in a simulation crate: RandomState iteration order is \
                     per-process; use netsim::hash::FxHashMap or BTreeMap/BTreeSet",
                    t.text
                ),
            });
        }
    }
}

/// DET002: `Instant::now` / `SystemTime` outside the allowlist.
fn det002(path: &str, code: &[&Token<'_>], findings: &mut Vec<Finding>) {
    if DET002_ALLOW.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let wall = match t.text {
            "SystemTime" => true,
            "Instant" => {
                code.get(i + 1).map(|t| t.text) == Some(":")
                    && code.get(i + 2).map(|t| t.text) == Some(":")
                    && code.get(i + 3).map(|t| t.text) == Some("now")
            }
            _ => false,
        };
        if wall {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::Det002,
                msg: format!(
                    "wall-clock read ({}) outside the perf-measurement allowlist",
                    if t.text == "SystemTime" {
                        "SystemTime"
                    } else {
                        "Instant::now"
                    }
                ),
            });
        }
    }
}

/// How many tokens DET003 looks back from an `as usize` for pointer
/// provenance; `;`/`{`/`}` stop the scan earlier.
const DET003_LOOKBACK: usize = 16;

/// DET003: `as usize` applied to a pointer.
fn det003(path: &str, code: &[&Token<'_>], findings: &mut Vec<Finding>) {
    for i in 0..code.len().saturating_sub(1) {
        if code[i].text != "as" || code[i + 1].text != "usize" {
            continue;
        }
        let start = i.saturating_sub(DET003_LOOKBACK);
        let mut pointerish = false;
        for j in (start..i).rev() {
            match code[j].text {
                ";" | "{" | "}" => break,
                "as_ptr" | "as_mut_ptr" | "addr_of" | "addr_of_mut" => {
                    pointerish = true;
                    break;
                }
                "as" if code.get(j + 1).map(|t| t.text) == Some("*")
                    && matches!(code.get(j + 2).map(|t| t.text), Some("const") | Some("mut")) =>
                {
                    pointerish = true;
                    break;
                }
                _ => {}
            }
        }
        if pointerish {
            let t = code[i];
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::Det003,
                msg: "pointer cast to usize: addresses are per-process (ASLR) and must \
                      never become values"
                    .to_string(),
            });
        }
    }
}

/// DET004: floats inside cell-key/seed-derivation scopes.
fn det004(
    path: &str,
    code: &[&Token<'_>],
    test_regions: &[(usize, usize)],
    fn_spans: &[(String, usize, usize)],
    findings: &mut Vec<Finding>,
) {
    let whole_file = DET004_FILES.contains(&path);
    let scoped_fns: Option<&[&str]> = DET004_FNS
        .iter()
        .find(|(p, _)| *p == path)
        .map(|(_, fns)| *fns);
    if !whole_file && scoped_fns.is_none() {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        let floaty = t.kind == TokKind::Float
            || (t.kind == TokKind::Ident && matches!(t.text, "f32" | "f64"));
        if !floaty {
            continue;
        }
        let in_test = test_regions.iter().any(|&(a, b)| a <= i && i <= b);
        let in_scope = (whole_file && !in_test)
            || scoped_fns.is_some_and(|fns| {
                fn_spans
                    .iter()
                    .any(|(name, a, b)| *a <= i && i <= *b && fns.contains(&name.as_str()))
            });
        if in_scope {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::Det004,
                msg: format!(
                    "float ({}) in a cell-key/seed-derivation scope: keys, seeds, shard \
                     membership and cache addresses must be exact integer functions",
                    t.text
                ),
            });
        }
    }
}

/// SAFE001: `unsafe` blocks/impls need an adjacent `// SAFETY:` comment.
fn safe001(path: &str, tokens: &[Token<'_>], code: &[&Token<'_>], findings: &mut Vec<Finding>) {
    // Line classification: lines holding code, and lines covered by a
    // comment whose text contains `SAFETY:`.
    let mut code_lines = std::collections::BTreeSet::new();
    for t in code {
        for l in t.line..=t.end_line() {
            code_lines.insert(l);
        }
    }
    let mut comment_lines = std::collections::BTreeMap::new();
    for t in tokens {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            let has_safety = t.text.contains("SAFETY:");
            for l in t.line..=t.end_line() {
                let e = comment_lines.entry(l).or_insert(false);
                *e = *e || has_safety;
            }
        }
    }
    for (i, t) in code.iter().enumerate() {
        if t.text != "unsafe" {
            continue;
        }
        // Only blocks and impls; `unsafe fn`/`unsafe trait` declarations
        // are covered at their call/impl sites.
        let next = code.get(i + 1).map(|t| t.text);
        if next != Some("{") && next != Some("impl") {
            continue;
        }
        // Same-line comment (e.g. `let p = /* SAFETY: x */ unsafe {`)?
        let mut ok = comment_lines.get(&t.line).copied().unwrap_or(false);
        // Otherwise walk up through the contiguous comment block above.
        let mut l = t.line.saturating_sub(1);
        while !ok && l >= 1 {
            match comment_lines.get(&l) {
                Some(&has_safety) if !code_lines.contains(&l) => {
                    ok = has_safety;
                    if ok {
                        break;
                    }
                    l -= 1;
                }
                // A code line or a blank line breaks adjacency.
                _ => break,
            }
        }
        if !ok {
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::Safe001,
                msg: "unsafe block/impl without an immediately preceding `// SAFETY:` \
                      comment stating why it is sound"
                    .to_string(),
            });
        }
    }
}
