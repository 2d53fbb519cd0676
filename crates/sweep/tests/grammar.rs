//! The shared `Family{key=value,...}` grammar (`netsim::grammar`) behaves
//! the same for every family spelled in it — load balancers, faults and
//! fidelities: one error table for the brace level, one spacing rule.

use baselines::kind::LbKind;
use sweep::fidelity::FidelitySpec;
use sweep::FaultSpec;

/// One grammar's parse, rendered canonically.
type Canonical = fn(&str) -> Result<String, String>;

/// A family with parameters from each grammar, and its canonicalizer.
fn grammars() -> [(&'static str, Canonical); 3] {
    [
        ("OPS", |s| LbKind::parse(s).map(|k| k.spec())),
        ("gray", |s| FaultSpec::parse(s).map(|f| f.label())),
        ("hybrid", |s| {
            FidelitySpec::parse(s).map(|f| f.label().into())
        }),
    ]
}

#[test]
fn brace_level_errors_are_one_table_for_every_grammar() {
    for (family, canonical) in grammars() {
        for (body, needle) in [
            ("{", "missing closing brace"),
            ("{a=1", "missing closing brace"),
            ("{a=1,,b=2}", "empty parameter"),
            ("{a=1,}", "empty parameter"),
            ("{a=1, a=2}", "duplicate parameter \"a\""),
            ("{a}", "parameter \"a\" is not key=value"),
            ("{zz=1}", "unknown parameter \"zz\" (accepted: "),
        ] {
            let spec = format!("{family}{body}");
            let err = canonical(&spec).expect_err(&spec);
            assert!(err.contains(needle), "{spec}: {err}");
            assert!(
                err.contains(&format!("{spec:?}")),
                "{spec}: the error must name the spec: {err}"
            );
        }
    }
}

#[test]
fn empty_braces_and_whitespace_spell_the_same_configuration() {
    for (family, canonical) in grammars() {
        let bare = canonical(family).expect(family);
        assert_eq!(bare, family);
        for spelling in [
            format!("{family}{{}}"),
            format!("{family}{{ }}"),
            format!(" {family} "),
            format!("\t{family}{{}} "),
        ] {
            assert_eq!(canonical(&spelling).as_ref(), Ok(&bare), "{spelling:?}");
        }
    }
    // Around a whole parameterized spec, and around keys and values.
    let lb = |s: &str| LbKind::parse(s).map(|k| k.spec());
    assert_eq!(lb(" OPS{evs=64} "), Ok("OPS{evs=64}".to_string()));
    assert_eq!(
        lb("REPS{ evs=256 , freeze = off }"),
        Ok("REPS{evs=256,freeze=off}".to_string())
    );
    let fault = |s: &str| FaultSpec::parse(s).map(|f| f.label());
    assert_eq!(fault(" gray{ n = 2 } "), Ok("gray{n=2}".to_string()));
}
