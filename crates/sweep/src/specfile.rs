//! The `repsbench` grid file format: user-defined scenario matrices as
//! plain text (`repsbench run --spec-file PATH`), no TOML dependency.
//!
//! A spec file is line-oriented: `[name]` opens a matrix, `axis = v1, v2`
//! lines widen its axes, `#` starts a comment, blank lines separate.
//! Axis values use exactly the same stable labels that appear in cell
//! keys, so a grid is readable next to its results and every built-in
//! preset can be re-expressed as text with identical cell keys (pinned by
//! `tests/specfile.rs`):
//!
//! ```text
//! # REPS vs. oblivious spraying across oversubscription ratios.
//! [oversub-demo]
//! fabric   = ls-8x8-o1, ls-8x8-o2, ls-8x8-o4
//! lb       = OPS, REPS
//! workload = perm-131072B
//! failure  = none, degraded10pct-200G
//! seed     = 0, 1
//!
//! # How fast must routing reconverge for spraying to ride out a cut?
//! [reconv-demo]
//! lb       = OPS, REPS
//! workload = perm-262144B
//! failure  = cable1-at8us-perm
//! reconv   = none, 25us, 100us
//! ```
//!
//! The axes are the rows of [`crate::axis::AXES`], in cell-key order:
//! `fabric`, `workload`, `failure`, `sim`, `cc`, `coalesce`, `reconv`,
//! `track`, `fault`, `fidelity`, `background`, `deadline`, `lb`, `seed`.
//! `sim`, `background` (`workload+LB` or `none`) and `deadline` take
//! exactly one value. Omitted axes keep the [`ScenarioMatrix::new`]
//! defaults. [`parse`] reports every problem with its 1-based line number;
//! [`render`] is the canonical inverse (parse → render → parse is
//! byte-stable), writing every axis in registry order.
//!
//! # Named configurations
//!
//! The `lb`, `fault` and `fidelity` axes (and the background's LB) take
//! `Family{key=value,...}` specs in the shared [`netsim::grammar`] syntax;
//! the families are tabled in [`baselines::kind`], [`crate::fault`] and
//! [`crate::fidelity`]. Commas inside `{...}` do not split the value list,
//! and cell keys carry each spec's canonical spelling, so any spelling of
//! one configuration shares one cell key, one derived seed and one cache
//! address:
//!
//! ```text
//! [evs-sweep]
//! lb    = OPS{evs=64}, OPS, REPS{evs=64}, REPS
//! fault = none, gray{p=0.01}, flap{period=10ms,duty=0.5}
//! ```
//!
//! Once a section is complete, [`ScenarioMatrix::check`] runs on it, and
//! its error is reported at the line of the axis it names: a repeated
//! value, a tracked ToR, fault or workload that some fabric of the grid
//! cannot hold.

use crate::axis::{self, AXES};
use crate::matrix::ScenarioMatrix;

/// A parse failure, pinned to its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number the problem was found on.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SpecError {}

/// Splits an axis value list on top-level commas: commas inside `{...}`
/// (LB-spec parameter lists) belong to the value, not the list. Unbalanced
/// braces are left for the value parser to reject with a typed message.
fn split_values(values: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in values.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(values[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(values[start..].trim());
    out
}

/// A matrix under construction: the matrix, its header line, and the axes
/// set in it so far with their lines.
type Section = (ScenarioMatrix, usize, Vec<(&'static str, usize)>);

/// Closes a section: runs [`ScenarioMatrix::check`] and reports its error
/// at the line of the axis it names — or, when that axis was left at its
/// default, at the fabric line (the only axis a default can clash with),
/// else at the section header.
fn close((m, header, seen): Section) -> Result<ScenarioMatrix, SpecError> {
    let line_of = |axis: &str| seen.iter().find(|(a, _)| *a == axis).map(|&(_, line)| line);
    match m.check() {
        Ok(()) => Ok(m),
        Err((axis, msg)) => Err(SpecError {
            line: line_of(axis)
                .or_else(|| line_of("fabric"))
                .unwrap_or(header),
            msg,
        }),
    }
}

/// Parses a spec file into its scenario matrices.
pub fn parse(text: &str) -> Result<Vec<ScenarioMatrix>, SpecError> {
    let mut matrices: Vec<ScenarioMatrix> = Vec::new();
    let mut current: Option<Section> = None;
    let fail = |line: usize, msg: String| Err(SpecError { line, msg });

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(inner) = line.strip_prefix('[') {
            let Some(name) = inner.strip_suffix(']') else {
                return fail(lineno, format!("unterminated section header {line:?}"));
            };
            let name = name.trim();
            if name.is_empty() {
                return fail(lineno, "empty matrix name".to_string());
            }
            if matrices.iter().any(|m| m.name == name)
                || current.as_ref().is_some_and(|(m, _, _)| m.name == name)
            {
                return fail(lineno, format!("duplicate matrix name {name:?}"));
            }
            if let Some(done) = current.take() {
                matrices.push(close(done)?);
            }
            current = Some((ScenarioMatrix::new(name), lineno, Vec::new()));
            continue;
        }
        let Some((name, values)) = line.split_once('=') else {
            return fail(
                lineno,
                format!("expected `[name]` or `axis = values`, got {line:?}"),
            );
        };
        let name = name.trim();
        let Some(axis) = axis::by_name(name) else {
            let names: Vec<&str> = AXES.iter().map(|a| a.name).collect();
            return fail(
                lineno,
                format!(
                    "unknown axis {name:?} (expected one of {})",
                    names.join(", ")
                ),
            );
        };
        let Some((matrix, _, seen)) = current.as_mut() else {
            return fail(lineno, format!("axis {name:?} outside a [matrix] section"));
        };
        if seen.iter().any(|(a, _)| *a == axis.name) {
            return fail(
                lineno,
                format!("duplicate axis {name:?} in matrix {:?}", matrix.name),
            );
        }
        seen.push((axis.name, lineno));
        let values: Vec<&str> = split_values(values);
        if values == [""] {
            return fail(lineno, format!("axis {name:?} has an empty value list"));
        }
        if values.iter().any(|v| v.is_empty()) {
            return fail(
                lineno,
                format!("empty value in axis {name:?} (trailing or doubled comma?)"),
            );
        }
        if let Err(msg) = (axis.set)(matrix, &values) {
            return fail(lineno, msg);
        }
    }
    if let Some(done) = current.take() {
        matrices.push(close(done)?);
    }
    Ok(matrices)
}

/// [`parse`], annotating errors with a file path (the CLI entry point).
pub fn parse_file(path: &str) -> Result<Vec<ScenarioMatrix>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading spec file {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}:{e}"))
}

/// Renders matrices as a canonical spec file: every axis explicit, values
/// as their cell-key labels, matrices separated by a blank line. The exact
/// inverse of [`parse`] on its own output.
pub fn render(matrices: &[ScenarioMatrix]) -> String {
    matrices
        .iter()
        .map(render_matrix)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders one matrix block (see [`render`]).
pub fn render_matrix(m: &ScenarioMatrix) -> String {
    let mut out = format!("[{}]\n", m.name);
    for axis in &AXES {
        let values: Vec<String> = axis.labels(m).collect();
        out += &format!("{} = {}\n", axis.name, values.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::FidelitySpec;
    use crate::spec::SimProfile;
    use netsim::time::Time;

    const DEMO: &str = "\
# demo grid
[oversub-demo]
fabric = ls-4x4-o1, ls-4x4-o2
lb = OPS, REPS
workload = perm-65536B
failure = none, degraded25pct-200G
seed = 0, 1

[reconv-demo]
lb = OPS, REPS
workload = perm-131072B
failure = cable1-at8us-perm
reconv = none, 25us
";

    #[test]
    fn demo_parses_into_two_matrices() {
        let ms = parse(DEMO).expect("demo parses");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].name, "oversub-demo");
        assert_eq!(ms[0].len(), 2 * 2 * 2 * 2);
        assert_eq!(ms[0].fabrics[1].label, "ls-4x4-o2");
        assert_eq!(ms[1].name, "reconv-demo");
        assert_eq!(ms[1].reconv, vec![None, Some(Time::from_us(25))]);
        // Omitted axes keep the builder defaults.
        assert_eq!(ms[1].fabrics[0].label, "2t-k8-o1");
        assert_eq!(ms[1].deadline, Time::from_secs(2));
        // Expansion works without panicking (labels validated at parse):
        // 2 lbs × 1 failure × 2 reconv values.
        assert_eq!(ms[1].expand().len(), 4);
    }

    #[test]
    fn render_is_parse_stable() {
        let ms = parse(DEMO).expect("demo parses");
        let canonical = render(&ms);
        let reparsed = parse(&canonical).expect("canonical text parses");
        assert_eq!(render(&reparsed), canonical, "render∘parse must be stable");
        let keys = |ms: &[ScenarioMatrix]| -> Vec<String> {
            ms.iter()
                .flat_map(|m| m.expand())
                .map(|c| c.key())
                .collect()
        };
        assert_eq!(keys(&ms), keys(&reparsed));
    }

    #[test]
    fn overflowing_durations_are_rejected_at_their_line() {
        for (text, line, label) in [
            (
                "[a]\nlb = OPS\ndeadline = 99999999999999ms",
                3,
                "99999999999999ms",
            ),
            (
                "[a]\nfault = gray{p=0.01,at=18446744073710us}",
                2,
                "18446744073710us",
            ),
            (
                "[a]\nlb = REPS+freeze@18446744073710us",
                2,
                "18446744073710us",
            ),
            (
                "[a]\nlb = OPS\nfailure = cable1-at18446744073710us-perm",
                3,
                "18446744073710us",
            ),
            (
                "[a]\nfailure = rolling2-every18446744073710us-down5us",
                2,
                "18446744073710us",
            ),
            (
                "[a]\nworkload = dctrace-10pct-18446744073710us",
                2,
                "18446744073710us",
            ),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            let needle = format!("duration {label:?} out of range");
            assert!(err.msg.contains(&needle), "{text:?}: {err}");
        }
        // Each duration fits, but an instant built from them does not: a
        // heal after its onset, a wave's last cut plus its downtime.
        for (axis, label) in [
            ("failure", "rolling2-every9223372036855us-down5us"),
            ("failure", "rolling2-every9223372036854us-down5us"),
            ("failure", "cable1-at18446744073709us-1us"),
            ("fault", "gray{at=18446744073709us,for=1us}"),
            ("fault", "unidir{at=18446744073709us,for=1us}"),
            ("fault", "flap{period=2us,at=18446744073708us}"),
        ] {
            let err = parse(&format!("[a]\n{axis} = {label}\nlb = OPS")).unwrap_err();
            assert_eq!(err.line, 2, "{label}: {err}");
            let needle = format!("{axis} {label:?} schedules an instant past the end of time");
            assert!(err.msg.contains(&needle), "{label}: {err}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("[a]\nbogus = 1", 2, "unknown axis"),
            ("[a]\nlb = OPS,,REPS", 2, "empty value"),
            ("[a]\n[a]", 2, "duplicate matrix name"),
            ("[a]\n[b]\n\n[a]", 4, "duplicate matrix name"),
            ("lb = OPS", 1, "outside a [matrix]"),
            ("[a]\nlb = OPS\nlb = REPS", 3, "duplicate axis"),
            ("[a]\nlb = NOPE", 2, "unknown lb"),
            ("[]", 1, "empty matrix name"),
            ("[a\nlb = OPS", 1, "unterminated"),
            ("[a]\njust words", 2, "expected `[name]`"),
            ("[a]\nseed = 1, 1", 2, "duplicate seed label"),
            (
                "[a]\ncoalesce = plain4, plain04",
                2,
                "duplicate coalesce label",
            ),
            ("[a]\nsim = paper, fpga", 2, "exactly one value"),
            ("[a]\nfabric = 2t-k8-o2", 2, "does not support"),
            ("[a]\ndeadline = 5", 2, "bad duration"),
            ("[a]\nworkload = waves-1B", 2, "unknown workload"),
            ("[a]\nfailure = meteor", 2, "unknown failure"),
            ("[a]\nfault = blackhole", 2, "unknown fault family"),
            ("[a]\nfault = gray{p=2}", 2, "out of range"),
            (
                "[a]\nfault = gray{n=999}",
                2,
                "fault \"gray{n=999}\" needs 999 cables, fabric 2t-k8-o1 has 32",
            ),
            (
                "[a]\nfault = none, flap{n=33}\nlb = OPS\nfabric = ls-4x8-o1, 2t-k8-o1",
                2,
                "needs 33 cables, fabric ls-4x8-o1 has",
            ),
            (
                "[a]\nfabric = 2t-k8-o1\nlb = OPS\nfault = unidir{n=33}\n[b]",
                4,
                "needs 33 cables, fabric 2t-k8-o1 has 32",
            ),
            ("[a]\nfidelity = fluid", 2, "unknown fidelity family"),
            (
                "[a]\nfidelity = hybrid{bg=packet}",
                2,
                "unknown background model",
            ),
            // Workloads no fabric of the grid can hold (reported at the
            // fabric line when the workload is the default), and labels that
            // would run a different scenario than they name.
            (
                "[a]\nworkload = incast64to1-1024B",
                2,
                "needs 65 hosts, the fabric has 32",
            ),
            (
                "[a]\nworkload = dctrace-0pct-100us",
                2,
                "load 0% out of range 1..=120",
            ),
            (
                "[a]\nfabric = 2t-custom-1x1-u1\nworkload = perm-1024B",
                3,
                "needs 2 hosts",
            ),
            (
                "[a]\nfabric = 2t-custom-1x1-u1",
                2,
                "workload tornado-262144B on fabric",
            ),
            (
                "[a]\nbackground = incast8to1-1B+ECMP\nfabric = ls-2x2-o1",
                2,
                "needs 9 hosts",
            ),
            (
                "[a]\nfailure = cables150pct-at1us-perm",
                2,
                "150 out of range 0..=100",
            ),
            (
                "[a]\nfailure = switches150pct-at1us-perm",
                2,
                "150 out of range 0..=100",
            ),
            (
                "[a]\nfailure = degraded0pct-200G",
                2,
                "percentage 0 out of range 1..=100",
            ),
            (
                "[a]\nworkload = a2a-w0-1024B",
                2,
                "alltoall window in \"a2a-w0-1024B\"",
            ),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err.line, line, "{text:?} -> {err}");
            assert!(err.to_string().contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn braced_lb_specs_survive_the_comma_split() {
        let ms = parse("[g]\nlb = REPS{evs=256,freeze=off}, OPS{evs=256}, OPS\n")
            .expect("braced values parse");
        let labels: Vec<&str> = ms[0].lbs.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["REPS{evs=256,freeze=off}", "OPS{evs=256}", "OPS"]
        );
        // Canonical text reparses to the identical cells.
        let canonical = render(&ms);
        assert_eq!(render(&parse(&canonical).unwrap()), canonical);
    }

    #[test]
    fn lb_values_canonicalize_to_one_cell_key_per_configuration() {
        // Three spellings of the same grid; the cell keys must be equal.
        let keys = |text: &str| -> Vec<String> {
            parse(text).expect(text)[0]
                .expand()
                .iter()
                .map(|c| c.key())
                .collect()
        };
        let canonical = keys("[g]\nlb = REPS-nofreeze, OPS\n");
        assert_eq!(
            keys("[g]\nlb = REPS{freeze=off}, OPS{evs=65536}\n"),
            canonical
        );
        assert_eq!(
            keys("[g]\nlb = REPS{ freeze=off , evs=65536 }, OPS{}\n"),
            canonical
        );
        assert!(canonical[0].contains("/lb=REPS-nofreeze/"), "{canonical:?}");
    }

    #[test]
    fn duplicate_lb_spellings_of_one_config_are_rejected() {
        let err =
            parse("[g]\nlb = REPS-nofreeze, REPS{freeze=off}\n").expect_err("aliases collide");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("duplicate lb"), "{err}");
    }

    #[test]
    fn track_axis_parses_renders_and_keys() {
        let ms = parse("[g]\nfabric = 2t-k8-o1\ntrack = 0, 3\n").expect("track axis parses");
        assert_eq!(ms[0].track, vec![0, 3]);
        let canonical = render(&ms);
        assert!(canonical.contains("track = 0, 3\n"), "{canonical}");
        assert_eq!(render(&parse(&canonical).unwrap()), canonical);
        let keys: Vec<String> = ms[0].expand().iter().map(|c| c.key()).collect();
        assert!(!keys[0].contains("tk="), "{}", keys[0]);
        assert!(keys[2].contains("/tk=3/"), "{}", keys[2]);

        for (text, line, needle) in [
            ("[g]\ntrack = 1, 1", 2, "duplicate track"),
            ("[g]\ntrack = up", 2, "bad tracked ToR"),
            // Out-of-range vantages are line-numbered spec errors (the
            // default 2t-k8-o1 fabric has 8 ToRs), whichever order the
            // fabric and track lines come in, and whether the section is
            // closed by another section or by end of file.
            ("[g]\ntrack = 8", 2, "tracked ToR 8 does not exist"),
            (
                "[g]\ntrack = 2\nfabric = 2t-custom-2x8-u4",
                2,
                "tracked ToR 2 does not exist",
            ),
            (
                "[g]\nfabric = 2t-custom-2x8-u4\ntrack = 2\n[h]",
                3,
                "tracked ToR 2 does not exist",
            ),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err.line, line, "{text:?} -> {err}");
            assert!(err.to_string().contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn fault_axis_parses_renders_and_keys() {
        let ms = parse("[g]\nfault = none, gray{p=0.05}, flap{period=10ms,duty=0.25}\n")
            .expect("fault axis parses");
        assert_eq!(ms[0].faults.len(), 3);
        let canonical = render(&ms);
        // `ms` canonicalizes: 10ms renders as 10000us.
        assert!(
            canonical.contains("fault = none, gray{p=0.05}, flap{period=10000us,duty=0.25}\n"),
            "{canonical}"
        );
        assert_eq!(render(&parse(&canonical).unwrap()), canonical);
        let keys: Vec<String> = ms[0].expand().iter().map(|c| c.key()).collect();
        assert!(!keys[0].contains("ft="), "{}", keys[0]);
        assert!(keys[2].contains("/ft=gray{p=0.05}/"), "{}", keys[2]);
        // Two spellings of one fault share a canonical label and collide.
        let err = parse("[g]\nfault = gray, gray{p=0.01,at=10us}\n").expect_err("aliases collide");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("duplicate fault"), "{err}");
        // A fault may take every cable of the smallest fabric, not one more.
        let ms = parse("[g]\nfault = corrupt{n=32}\n").expect("32 of 32 cables");
        assert_eq!(ms[0].faults[0].cables(), 32);
        let err = parse("[g]\nfault = corrupt{n=33}\n").expect_err("33 of 32 cables");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn fidelity_axis_parses_renders_and_keys() {
        let ms = parse("[g]\nfidelity = pkt, hybrid{bg=fluid}\n").expect("fidelity axis parses");
        assert_eq!(
            ms[0].fidelities,
            vec![FidelitySpec::Pkt, FidelitySpec::Hybrid]
        );
        let canonical = render(&ms);
        // `ms` canonicalizes: the default bg model collapses away.
        assert!(
            canonical.contains("fidelity = pkt, hybrid\n"),
            "{canonical}"
        );
        assert_eq!(render(&parse(&canonical).unwrap()), canonical);
        let keys: Vec<String> = ms[0].expand().iter().map(|c| c.key()).collect();
        assert!(!keys[0].contains("fi="), "{}", keys[0]);
        let hybrid = keys.iter().filter(|k| k.contains("/fi=hybrid/")).count();
        assert_eq!(hybrid, keys.len() / 2, "{keys:?}");
        // Two spellings of one fidelity share a canonical label and collide.
        let err = parse("[g]\nfidelity = hybrid, hybrid{bg=fluid}\n").expect_err("aliases collide");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("duplicate fidelity"), "{err}");
    }

    #[test]
    fn background_lb_may_contain_a_plus() {
        let ms = parse("[g]\nbackground = perm-1024B+REPS+freeze@50us\n").expect("parses");
        let (wl, lb) = ms[0].background.as_ref().expect("background set");
        assert_eq!(wl.label(), "perm-1024B");
        assert_eq!(lb.label(), "REPS");
        assert!(
            matches!(lb, baselines::kind::LbKind::Reps(cfg) if cfg.force_freezing_at.is_some()),
            "freeze suffix must reach the config"
        );
    }

    #[test]
    fn every_label_form_parses_back() {
        // One value of every supported shape, exercised through a single
        // matrix so label rendering and parsing stay inverses.
        let text = "\
[kitchen-sink]
fabric = 2t-k8-o1, 3t-k6-o2, 2t-custom-2x8-u4, ls-8x8-o4
lb = ECMP, OPS, REPS, PLB, MPRDMA, MPTCP, Flowlet, BitMap, Adaptive RoCE, REPS-nofreeze, REPS+freeze@50us, REPS{evs=256,buf=16,fto=50us}, OPS{evs=64}, PLB{thresh=0.1,rounds=3}, Flowlet{gap=80us}, BitMap{evs=1024,clear=50us}, MPTCP{subflows=4}
workload = tornado-1024B, perm-2048B, incast8to1-4096B, ringar-8192B, bflyar-16384B, a2a-w4-512B, dctrace-30pct-100us
failure = none, cable1-at8us-perm, switch1-at8us-30us, cables5pct-at10us-perm, switches5pct-at10us-20us, degraded3pct-200G, ber10pm-at5us, rolling4-every40us-down80us, incuplinks3-every50us
reconv = none, 10us, 500ns, 77ps
track = 0, 1
fault = none, gray{p=0.02,for=100us}, corrupt{p=0.001,n=2}, flap{period=40us,duty=0.5,at=20us}, unidir{for=200us}
fidelity = pkt, hybrid
seed = 0, 3, 7
cc = DCTCP, EQDS, INTERNAL
coalesce = pp, plain4, carry16, reuse16
sim = fpga
background = tornado-8192B+REPS{evs=128,freeze=off}
deadline = 5000000us
";
        let ms = parse(text).expect("kitchen sink parses");
        let canonical = render(&ms);
        let reparsed = parse(&canonical).expect("canonical reparses");
        assert_eq!(render(&reparsed), canonical);
        // Spot-check a few materializations.
        let m = &ms[0];
        assert!(matches!(m.sim, SimProfile::FpgaTestbed));
        assert_eq!(m.deadline, Time::from_secs(5));
        assert_eq!(m.fabrics[3].config.tor_uplinks, 2);
        assert_eq!(m.lbs[10].label, "REPS+freeze@50us");
        assert_eq!(m.lbs[11].label, "REPS{evs=256,buf=16,fto=50us}");
        assert_eq!(m.track, vec![0, 1]);
        let (_, bg_lb) = m.background.as_ref().expect("background set");
        assert!(
            matches!(bg_lb, baselines::kind::LbKind::Reps(cfg)
                if cfg.evs_size == 128 && !cfg.freezing_enabled),
            "parameterized background must reach the config: {bg_lb:?}"
        );
    }
}
