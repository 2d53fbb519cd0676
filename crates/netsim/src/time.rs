//! Simulation time represented as integer picoseconds.
//!
//! The paper's default profile (400 Gbps links, 4 KiB MTU + 64 B header)
//! serializes one full frame in exactly 83,200 ps, so picosecond resolution
//! keeps every per-hop delay exact and the simulation fully deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant (or duration) in simulated time, in picoseconds.
///
/// `Time` is deliberately a single type for both instants and durations:
/// the simulator only ever adds offsets to the current clock, and keeping a
/// single type avoids a proliferation of conversions in hot paths.
///
/// # Examples
///
/// ```
/// use netsim::time::Time;
///
/// let t = Time::from_us(70); // The paper's retransmission timeout.
/// assert_eq!(t.as_ns(), 70_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The zero instant (simulation start).
    pub const ZERO: Time = Time(0);

    /// The largest representable instant, used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000_000)
    }

    /// Returns the value in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the value in whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the value in whole microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the value in microseconds as a float, for reporting.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the value in seconds as a float, for rate computations.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction, returning [`Time::ZERO`] on underflow.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The duration's stable label in the coarsest exact unit: `25us`,
    /// `500ns` or `77ps`. Distinct durations always get distinct labels,
    /// and [`Time::parse_label`] is the exact inverse — the pair is what
    /// cell keys and the LB/grid grammars spell durations with.
    pub fn label(self) -> String {
        if self.0.is_multiple_of(1_000_000) {
            format!("{}us", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            format!("{}ns", self.0 / 1_000)
        } else {
            format!("{}ps", self.0)
        }
    }

    /// Parses a duration label (`25us`, `500ns`, `77ps`); the inverse of
    /// [`Time::label`]. Also accepts the coarser `ms` spelling as input
    /// convenience (`10ms` == `10000us`); labels never render it, so the
    /// render/parse pair stays a bijection on canonical labels. A
    /// duration past [`Time::MAX`] is an error, not a wrapped value.
    pub fn parse_label(s: &str) -> Result<Time, String> {
        for (suffix, ps_per_unit) in [
            ("ms", 1_000_000_000),
            ("us", 1_000_000),
            ("ns", 1_000),
            ("ps", 1),
        ] {
            if let Some(v) = s.strip_suffix(suffix) {
                let v = v
                    .parse::<u64>()
                    .map_err(|e| format!("bad duration {s:?}: {e}"))?;
                return v.checked_mul(ps_per_unit).map(Time).ok_or_else(|| {
                    format!(
                        "duration {s:?} out of range (at most {})",
                        Time::MAX.label()
                    )
                });
            }
        }
        Err(format!(
            "bad duration {s:?} (expected e.g. 25us, 500ns, 77ps)"
        ))
    }

    /// Returns the serialization time of `bytes` at `rate_bps` bits per second.
    ///
    /// Exact integer arithmetic; the wide path uses 128 bits so that no
    /// realistic byte count or rate can overflow. Every frame-sized input
    /// (the per-packet hot path) takes the single-`u64`-division fast path,
    /// which computes the identical truncated quotient.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero.
    pub fn serialization(bytes: u64, rate_bps: u64) -> Time {
        assert!(rate_bps > 0, "link rate must be positive");
        // bits * 1e12 fits u64 for bits < 2^24 (1.7e19 < u64::MAX): all
        // frames up to 2 MiB, i.e. every packet the simulator makes.
        if bytes < (1 << 21) {
            return Time(bytes * 8 * 1_000_000_000_000 / rate_bps);
        }
        let bits = bytes as u128 * 8;
        let ps = bits * 1_000_000_000_000u128 / rate_bps as u128;
        Time(ps as u64)
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(Time::from_ns(1).as_ps(), 1_000);
        assert_eq!(Time::from_us(1).as_ns(), 1_000);
        assert_eq!(Time::from_ms(1).as_us(), 1_000);
        assert_eq!(Time::from_secs(1).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn serialization_time_matches_paper_profile() {
        // 4 KiB payload + 64 B header at 400 Gbps: (4160 * 8) / 400e9 s = 83.2 ns.
        let t = Time::serialization(4096 + 64, 400_000_000_000);
        assert_eq!(t.as_ps(), 83_200);
    }

    #[test]
    fn serialization_time_100g() {
        // The FPGA profile: 8 KiB + 64 B at 100 Gbps = 660.48 ns.
        let t = Time::serialization(8192 + 64, 100_000_000_000);
        assert_eq!(t.as_ps(), 660_480);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Time::from_ns(5);
        let b = Time::from_ns(3);
        assert_eq!((a + b).as_ns(), 8);
        assert_eq!((a - b).as_ns(), 2);
        assert_eq!((a * 3).as_ns(), 15);
        assert_eq!((a / 5).as_ns(), 1);
        assert_eq!(b.saturating_sub(a), Time::ZERO);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_ns(1) < Time::from_us(1));
        assert!(Time::MAX > Time::from_secs(1_000));
    }

    #[test]
    fn labels_pick_the_coarsest_exact_unit_and_round_trip() {
        for (t, label) in [
            (Time::ZERO, "0us"),
            (Time::from_us(25), "25us"),
            (Time::from_ns(500), "500ns"),
            (Time(1_500_077), "1500077ps"),
            (Time::from_secs(5), "5000000us"),
        ] {
            assert_eq!(t.label(), label);
            assert_eq!(Time::parse_label(label), Ok(t));
        }
        assert!(Time::parse_label("5").is_err());
        assert!(Time::parse_label("xus").is_err());
        assert!(Time::parse_label("-3ns").is_err());
    }

    #[test]
    fn labels_past_the_largest_time_are_rejected_not_wrapped() {
        let max = u64::MAX;
        // The last value of each unit that fits, and the first that does not.
        for (unit, ps) in [("ms", 1_000_000_000), ("us", 1_000_000), ("ns", 1_000)] {
            let last = max / ps;
            let label = format!("{last}{unit}");
            assert_eq!(Time::parse_label(&label), Ok(Time(last * ps)), "{label}");
            let label = format!("{}{unit}", last + 1);
            let err = Time::parse_label(&label).unwrap_err();
            assert!(
                err.contains(&format!("duration {label:?} out of range")),
                "{err}"
            );
        }
        assert_eq!(Time::parse_label(&format!("{max}ps")), Ok(Time::MAX));
        let err = Time::parse_label("18446744073709551616ps").unwrap_err();
        assert!(err.starts_with("bad duration"), "{err}");
        let err = Time::parse_label("99999999999999ms").unwrap_err();
        assert!(
            err.contains("out of range (at most 18446744073709551615ps)"),
            "{err}"
        );
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Time::from_ps(5)), "5ps");
        assert_eq!(format!("{}", Time::from_us(2)), "2.000us");
    }
}
