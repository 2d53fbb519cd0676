//! The fidelity axis: packet-accurate everything, or packet-accurate
//! foreground over a fluid background — a family table in the shared
//! [`netsim::grammar`] syntax, with one canonical label per configuration.
//!
//! | family   | parameters (defaults in parentheses)                  |
//! |----------|-------------------------------------------------------|
//! | `pkt`    | — (the default)                                       |
//! | `hybrid` | `bg` (`fluid`, the only background model)             |
//!
//! `pkt` is the only value that keeps the `/fi=` component out of a cell
//! key, so every pre-axis key, derived seed, shard assignment and cache
//! address is unchanged. `hybrid` swaps the cell's *background* workload
//! from per-packet transport to the [`netsim::fluid`] analytic max-min
//! model; the foreground — what the paper measures — stays
//! packet-accurate either way.

use netsim::grammar::Spec;

/// A fidelity description for one grid cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FidelitySpec {
    /// Full packet fidelity (the default; keys without `/fi=`).
    #[default]
    Pkt,
    /// Packet-level foreground over a fluid background
    /// ([`netsim::fluid::FluidNet`]).
    Hybrid,
}

impl FidelitySpec {
    /// Whether this is the default (`pkt`): the only value that keeps the
    /// `/fi=` component out of a cell key.
    pub fn is_pkt(&self) -> bool {
        matches!(self, FidelitySpec::Pkt)
    }

    /// The canonical label: one string per configuration, parameters at
    /// their defaults omitted, the exact inverse of
    /// [`FidelitySpec::parse`]. Feeds the cell key (as `/fi=<label>`,
    /// only when not `pkt`).
    pub fn label(&self) -> &'static str {
        match self {
            FidelitySpec::Pkt => "pkt",
            FidelitySpec::Hybrid => "hybrid",
        }
    }

    /// Parses any spelling of a fidelity spec — `pkt`, `hybrid`,
    /// `hybrid{bg=fluid}` — into its typed form. Unknown families, keys
    /// and values are reported, never panicked: the input is user text (a
    /// spec file line or a `--fidelity` flag).
    pub fn parse(s: &str) -> Result<FidelitySpec, String> {
        let mut spec = Spec::parse("fidelity", s)?;
        let fidelity = match spec.family {
            "pkt" => FidelitySpec::Pkt,
            "hybrid" => match spec.take("bg") {
                None | Some("fluid") => FidelitySpec::Hybrid,
                Some(v) => return Err(spec.err(format!("unknown background model {v:?} (fluid)"))),
            },
            _ => return Err(spec.unknown_family("pkt or hybrid")),
        };
        spec.finish()?;
        Ok(fidelity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_labels_omit_defaults() {
        let roundtrip = |s: &str| FidelitySpec::parse(s).expect(s).label();
        assert_eq!(roundtrip("pkt"), "pkt");
        assert_eq!(roundtrip("hybrid"), "hybrid");
        assert_eq!(
            roundtrip("hybrid{bg=fluid}"),
            "hybrid",
            "default bg collapses"
        );
    }

    #[test]
    fn default_is_pkt() {
        assert_eq!(FidelitySpec::default(), FidelitySpec::Pkt);
        assert!(FidelitySpec::Pkt.is_pkt());
        assert!(!FidelitySpec::Hybrid.is_pkt());
    }

    #[test]
    fn parse_errors_name_the_problem() {
        let err = |s: &str| FidelitySpec::parse(s).unwrap_err();
        assert!(err("fluid").contains("unknown fidelity family"));
        assert!(err("pkt{bg=fluid}").contains("no parameters"));
        assert!(err("hybrid{bg=packet}").contains("unknown background model"));
        assert!(err("hybrid{mode=x}").contains("unknown parameter \"mode\" (accepted: bg)"));
    }

    #[test]
    fn parse_render_round_trips() {
        for spec in [FidelitySpec::Pkt, FidelitySpec::Hybrid] {
            assert_eq!(FidelitySpec::parse(spec.label()), Ok(spec));
        }
    }
}
