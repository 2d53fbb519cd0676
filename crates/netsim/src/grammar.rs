//! The `Family{key=value,...}` grammar every named configuration is spelled
//! in — load balancers (`baselines::kind`), faults (`sweep::fault`) and
//! fidelities (`sweep::fidelity`), which hold only their family tables.
//!
//! A spec is `family` or `family{key=value,...}`. Whitespace around the
//! spec, keys and values is ignored; `Family{}` is `Family`, the
//! all-defaults configuration. A missing closing brace, an empty entry
//! (`{a=1,,b=2}`), an entry without `=`, a repeated key and a key the
//! family does not take are errors naming the whole spec: a dropped
//! parameter would let two configurations share one cell key.
//!
//! | type        | value syntax                                                          | getter / renderer |
//! |-------------|-----------------------------------------------------------------------|-------------------|
//! | count       | decimal integer in `1..=max`                                          | [`Spec::count`] / [`Render::param`] |
//! | probability | decimal in `[0, 1]` with at most 6 fractional digits, held as [`Ppm`] | [`Spec::ppm`] / [`Render::param`] |
//! | fraction    | `f64` in `[0, 1]`, rendered in its shortest round-trip form           | [`Spec::fraction`] / [`Render::param`] |
//! | duration    | [`Time::label`] (`25us`, `500ns`, `77ps`; `10ms` accepted as input)   | [`Spec::time`] / [`Render::time`] |
//! | optional duration | as duration; absent means unset                                 | [`Spec::opt_time`] / [`Render::opt_time`] |
//! | switch      | `on` or `off`                                                         | [`Spec::switch`] / [`Render::switch`] |
//!
//! [`Render`] prints the canonical form: the family name alone when every
//! parameter is at its default, else `Family{k=v,...}` with only the
//! non-default parameters, in the family's fixed order, without spaces.
//! Each getter reads its renderer's text back exactly, so `parse ∘ render`
//! is the identity and every spelling of a configuration canonicalizes to
//! one string — the cell-key contract.

use std::fmt::Display;

use crate::time::Time;

/// One whole, in parts per million.
pub const PPM: u32 = 1_000_000;

/// A probability in integer parts per million (`0.01` is 10 000), so no
/// float formatting ever reaches a cell key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ppm(pub u32);

/// The shortest exact decimal: `0`, `1`, or `0.` and up to six digits.
impl Display for Ppm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            0 => f.write_str("0"),
            PPM => f.write_str("1"),
            ppm => write!(f, "0.{}", format!("{ppm:06}").trim_end_matches('0')),
        }
    }
}

/// Parses a decimal probability in `[0, 1]` to parts per million.
fn parse_ppm(key: &str, s: &str) -> Result<u32, String> {
    let (int, frac) = s.split_once('.').unwrap_or((s, ""));
    if int.is_empty()
        || frac.len() > 6
        || !(int.bytes().chain(frac.bytes())).all(|b| b.is_ascii_digit())
    {
        return Err(format!(
            "bad {key} {s:?} (expected a decimal in [0,1] with at most 6 decimal digits)"
        ));
    }
    let frac_ppm: u32 = format!("{frac:0<6}").parse().expect("six ascii digits");
    (int.parse::<u32>().ok())
        .and_then(|int| int.checked_mul(PPM)?.checked_add(frac_ppm))
        .filter(|&v| v <= PPM)
        .ok_or_else(|| format!("{key} {s:?} out of range (must be <= 1)"))
}

/// One spec under parse. Getters consume entries (the default when
/// absent) and record the keys the family takes; [`Spec::finish`] rejects
/// whatever is left.
#[derive(Debug)]
pub struct Spec<'a> {
    /// The grammar's name in messages (`lb`, `fault`, ...).
    what: &'static str,
    /// The whole trimmed spec, for messages.
    text: &'a str,
    /// The family name (the text before `{`).
    pub family: &'a str,
    entries: Vec<(&'a str, &'a str)>,
    /// The keys getters asked for: the accepted set.
    asked: Vec<&'static str>,
}

impl<'a> Spec<'a> {
    /// Splits `text` into family and entries; `what` names the grammar in
    /// error messages.
    pub fn parse(what: &'static str, text: &'a str) -> Result<Spec<'a>, String> {
        let text = text.trim();
        // A bare family reads as `family{}`.
        let (family, body) = text.split_once('{').unwrap_or((text, "}"));
        let mut spec = Spec {
            what,
            text,
            family,
            entries: Vec::new(),
            asked: Vec::new(),
        };
        let body = body
            .strip_suffix('}')
            .ok_or_else(|| spec.err("missing closing brace"))?;
        if body.trim().is_empty() {
            return Ok(spec);
        }
        for entry in body.split(',').map(str::trim) {
            if entry.is_empty() {
                return Err(spec.err("empty parameter (trailing or doubled comma?)"));
            }
            let Some((key, value)) = entry.split_once('=') else {
                return Err(spec.err(format!("parameter {entry:?} is not key=value")));
            };
            let (key, value) = (key.trim(), value.trim());
            if spec.entries.iter().any(|(k, _)| *k == key) {
                return Err(spec.err(format!("duplicate parameter {key:?}")));
            }
            spec.entries.push((key, value));
        }
        Ok(spec)
    }

    /// An error about this spec: `<what> spec "<text>": <msg>`.
    pub fn err(&self, msg: impl Display) -> String {
        format!("{} spec {:?}: {msg}", self.what, self.text)
    }

    /// The error for a family the grammar does not know.
    pub fn unknown_family(&self, expected: &str) -> String {
        let (what, family) = (self.what, self.family);
        self.err(format!("unknown {what} family {family:?} ({expected})"))
    }

    /// Consumes `key`, returning its raw value (`None` if absent).
    pub fn take(&mut self, key: &'static str) -> Option<&'a str> {
        self.asked.push(key);
        let i = self.entries.iter().position(|(k, _)| *k == key)?;
        Some(self.entries.remove(i).1)
    }

    fn get<T>(
        &mut self,
        key: &'static str,
        default: T,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => parse(v).map_err(|e| self.err(e)),
        }
    }

    /// A count in `1..=max` (`max` must fit `T`), checked before the
    /// narrowing: an oversized value is an error, never a wrap.
    pub fn count<T: TryFrom<u64>>(
        &mut self,
        key: &'static str,
        default: T,
        max: u64,
    ) -> Result<T, String> {
        self.get(key, default, |v| match v.parse::<u64>() {
            Err(e) => Err(format!("bad {key} {v:?}: {e}")),
            Ok(n) => T::try_from(n)
                .ok()
                .filter(|_| (1..=max).contains(&n))
                .ok_or_else(|| format!("{key} {n} out of range 1..={max}")),
        })
    }

    /// A probability.
    pub fn ppm(&mut self, key: &'static str, default: Ppm) -> Result<Ppm, String> {
        self.get(key, default, |v| parse_ppm(key, v).map(Ppm))
    }

    /// A fraction in `[0, 1]`.
    pub fn fraction(&mut self, key: &'static str, default: f64) -> Result<f64, String> {
        self.get(key, default, |v| match v.parse::<f64>() {
            Err(e) => Err(format!("bad {key} {v:?}: {e}")),
            Ok(f) if !(0.0..=1.0).contains(&f) => Err(format!("{key} {f} out of range 0..=1")),
            Ok(f) => Ok(f),
        })
    }

    /// A duration.
    pub fn time(&mut self, key: &'static str, default: Time) -> Result<Time, String> {
        self.get(key, default, |v| duration(key, v))
    }

    /// An optional duration, unset when absent.
    pub fn opt_time(&mut self, key: &'static str) -> Result<Option<Time>, String> {
        self.get(key, None, |v| duration(key, v).map(Some))
    }

    /// An `on`/`off` switch.
    pub fn switch(&mut self, key: &'static str, default: bool) -> Result<bool, String> {
        self.get(key, default, |v| match v {
            "on" => Ok(true),
            "off" => Ok(false),
            _ => Err(format!("bad {key} {v:?} (expected on or off)")),
        })
    }

    /// Rejects any entry no getter consumed, naming the accepted keys.
    pub fn finish(self) -> Result<(), String> {
        let Some((key, _)) = self.entries.first() else {
            return Ok(());
        };
        Err(match self.asked.join(", ") {
            none if none.is_empty() => self.err(format!("{} takes no parameters", self.family)),
            accepted => self.err(format!("unknown parameter {key:?} (accepted: {accepted})")),
        })
    }
}

fn duration(key: &str, v: &str) -> Result<Time, String> {
    Time::parse_label(v).map_err(|e| format!("{key}: {e}"))
}

/// Builds a canonical spec, one call per parameter in the family's order:
/// `Render::new("OPS").param("evs", evs, DEFAULT_EVS).finish()`.
#[derive(Debug)]
pub struct Render(String);

impl Render {
    /// Starts a spec of `family`.
    pub fn new(family: &str) -> Render {
        Render(family.to_string())
    }

    /// A count, fraction or [`Ppm`] probability (whose `Display` is the
    /// canonical text), unless it is the default.
    pub fn param<T: PartialEq + Display>(self, key: &str, value: T, default: T) -> Render {
        if value == default {
            return self;
        }
        self.push(key, value)
    }

    /// A duration, unless it is the default.
    pub fn time(self, key: &str, value: Time, default: Time) -> Render {
        if value == default {
            return self;
        }
        self.push(key, value.label())
    }

    /// An optional duration, when set.
    pub fn opt_time(self, key: &str, value: Option<Time>) -> Render {
        match value {
            None => self,
            Some(t) => self.push(key, t.label()),
        }
    }

    /// An `on`/`off` switch, unless it is the default.
    pub fn switch(self, key: &str, value: bool, default: bool) -> Render {
        if value == default {
            return self;
        }
        self.push(key, if value { "on" } else { "off" })
    }

    fn push(mut self, key: &str, value: impl Display) -> Render {
        self.0.push(if self.0.contains('{') { ',' } else { '{' });
        self.0 += &format!("{key}={value}");
        self
    }

    /// The rendered spec.
    pub fn finish(mut self) -> String {
        if self.0.contains('{') {
            self.0.push('}');
        }
        self.0
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Renders one parameter, reads it back with `get` and checks that
    /// nothing is left over.
    fn reparse<T>(
        render: impl FnOnce(Render) -> Render,
        get: impl FnOnce(&mut Spec<'_>) -> Result<T, String>,
    ) -> T {
        let text = render(Render::new("F")).finish();
        let mut spec = Spec::parse("test", &text).expect(&text);
        let got = get(&mut spec).expect(&text);
        spec.finish().expect(&text);
        got
    }

    proptest! {
        #[test]
        fn counts_round_trip(n in 1u64..=u64::MAX, d in 1u64..4) {
            prop_assert_eq!(reparse(|r| r.param("k", n, d), |s| s.count("k", d, u64::MAX)), n);
        }

        #[test]
        fn probabilities_round_trip(p in 0u32..=PPM, d in 0u32..=PPM) {
            let (p, d) = (Ppm(p), Ppm(d));
            prop_assert_eq!(reparse(|r| r.param("k", p, d), |s| s.ppm("k", d)), p);
        }

        #[test]
        fn fractions_round_trip(f in 0.0f64..1.0, pick in 0u8..3) {
            // The endpoints and a many-digit value beside the sampled one.
            let f = [f, 1.0, 0.123456789][pick as usize];
            prop_assert_eq!(reparse(|r| r.param("k", f, 0.5), |s| s.fraction("k", 0.5)), f);
        }

        #[test]
        fn durations_round_trip(ps in any::<u64>(), d in 0u64..3) {
            let (t, d) = (Time::from_ps(ps), Time::from_ps(d));
            prop_assert_eq!(reparse(|r| r.time("k", t, d), |s| s.time("k", d)), t);
        }

        #[test]
        fn optional_durations_round_trip(ps in any::<u64>(), set in any::<bool>()) {
            let t = set.then_some(Time::from_ps(ps));
            prop_assert_eq!(reparse(|r| r.opt_time("k", t), |s| s.opt_time("k")), t);
        }

        #[test]
        fn switches_round_trip(on in any::<bool>(), d in any::<bool>()) {
            prop_assert_eq!(reparse(|r| r.switch("k", on, d), |s| s.switch("k", d)), on);
        }
    }

    #[test]
    fn ppm_rendering_is_shortest_exact_decimal() {
        for (ppm, text) in [
            (0, "0"),
            (PPM, "1"),
            (10_000, "0.01"),
            (500_000, "0.5"),
            (1, "0.000001"),
            (123_450, "0.12345"),
        ] {
            assert_eq!(Ppm(ppm).to_string(), text);
        }
    }

    #[test]
    fn ppm_parsing_rejects_junk() {
        for junk in ["", ".", "0.0000001", "1.1", "2", "-0.1", "0.1e3"] {
            assert!(parse_ppm("p", junk).is_err(), "{junk:?}");
        }
        // Non-canonical but exact spellings normalize.
        assert_eq!(parse_ppm("p", "0.010"), Ok(10_000));
        assert_eq!(parse_ppm("p", "1.0"), Ok(PPM));
        assert_eq!(parse_ppm("p", "0.000000"), Ok(0));
    }
}
