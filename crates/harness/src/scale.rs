//! Experiment scale control.
//!
//! The paper's full-scale runs (1024-node fabrics, 16 MiB messages) take a
//! while in a discrete-event simulator; `repsbench` honours the
//! `REPS_SCALE` environment variable so the whole suite stays runnable:
//!
//! * `quick` (default) — 32–128-node fabrics, smaller messages; every
//!   qualitative shape of the paper is preserved.
//! * `full`  — the paper's parameters where feasible.

/// The requested experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes (default): minutes, not hours.
    Quick,
    /// Paper-scale parameters.
    Full,
}

impl Scale {
    /// Reads `REPS_SCALE`, case-insensitively (`full`, `Full`, `FULL` all
    /// select [`Scale::Full`]; anything else defaults to [`Scale::Quick`]).
    pub fn from_env() -> Scale {
        match std::env::var("REPS_SCALE") {
            Ok(v) if v.trim().eq_ignore_ascii_case("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks between a quick and a full value.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn from_env_is_case_insensitive() {
        // Serialized within this one test to avoid env races.
        for (value, expected) in [
            ("full", Scale::Full),
            ("FULL", Scale::Full),
            ("Full", Scale::Full),
            (" full ", Scale::Full),
            ("quick", Scale::Quick),
            ("QUICK", Scale::Quick),
            ("nonsense", Scale::Quick),
        ] {
            std::env::set_var("REPS_SCALE", value);
            assert_eq!(Scale::from_env(), expected, "REPS_SCALE={value:?}");
        }
        std::env::remove_var("REPS_SCALE");
        assert_eq!(Scale::from_env(), Scale::Quick);
    }
}
