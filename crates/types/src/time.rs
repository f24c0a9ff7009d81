//! Simulated time.
//!
//! The simulator clock is a `u64` count of nanoseconds since the start of the
//! simulation. Ten hours — the paper's application length — is 3.6e13 ns,
//! comfortably inside `u64`. All arithmetic is checked in debug builds via
//! the standard operators; saturating helpers are provided where the
//! protocol logic legitimately clamps.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" timer delay.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Convert to fractional seconds (for reporting only).
    #[inline]
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Effectively infinite duration (used for "timer set to infinite").
    pub const INFINITE: SimDuration = SimDuration(u64::MAX);

    /// Build from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    /// Build from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    /// Build from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    /// Build from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    /// Build from whole minutes.
    #[inline]
    pub const fn from_minutes(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000_000)
    }
    /// Build from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000_000)
    }
    /// Build from fractional seconds; negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::INFINITE
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Convert to fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is the `INFINITE` sentinel.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }

    /// Saturating duration addition.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Multiply by an integer factor, saturating.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "inf")
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_micros(10), SimDuration(10_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration(1_000_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration(1_000_000_000));
        assert_eq!(SimDuration::from_minutes(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(10), SimDuration::from_minutes(600));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        assert_eq!(t.nanos(), 5_000_000_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(5));
        assert_eq!(
            SimTime::ZERO.saturating_since(t),
            SimDuration::ZERO,
            "saturating_since clamps negative spans"
        );
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration(1_500_000_000));
        assert!(SimDuration::from_secs_f64(1e30).is_infinite());
    }

    #[test]
    fn infinite_sentinel() {
        assert!(SimDuration::INFINITE.is_infinite());
        assert!(!SimDuration::from_hours(1_000_000).is_infinite());
        let t = SimTime(u64::MAX - 1).saturating_add(SimDuration::from_secs(5));
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn ten_hours_fits() {
        let end = SimTime::ZERO + SimDuration::from_hours(10);
        assert_eq!(end.as_secs_f64(), 36_000.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime(1_500_000_000)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::INFINITE), "inf");
    }
}
