//! Simulation time: core cycles, nanoseconds and clock frequencies.
//!
//! The simulator's core model counts time in [`Cycles`]; the OS-facing side
//! (MimicOS) reports latencies such as page-fault handling time in
//! [`Nanoseconds`], matching how the paper reports them (µs-scale page-fault
//! latency, cycle-scale page-walk latency). A [`Frequency`] converts between
//! the two.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A duration (or point in time) measured in core clock cycles.
///
/// # Examples
///
/// ```
/// use vm_types::Cycles;
/// let a = Cycles::new(100);
/// let b = Cycles::new(35);
/// assert_eq!((a + b).raw(), 135);
/// assert_eq!((a - b).raw(), 65);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two cycle counts.
    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Returns the smaller of two cycle counts.
    #[inline]
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }

    /// Converts to nanoseconds at the given core frequency.
    #[inline]
    pub fn to_nanos(self, freq: Frequency) -> Nanoseconds {
        Nanoseconds::from_f64(self.0 as f64 / freq.ghz())
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> u64 {
        c.0
    }
}

/// A duration measured in nanoseconds, stored with sub-nanosecond precision
/// as picoseconds internally.
///
/// # Examples
///
/// ```
/// use vm_types::Nanoseconds;
/// let ns = Nanoseconds::from_f64(2200.0);
/// assert!((ns.as_micros() - 2.2).abs() < 1e-9);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanoseconds(u64);

impl Nanoseconds {
    /// Zero duration.
    pub const ZERO: Nanoseconds = Nanoseconds(0);

    /// Creates a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanoseconds(ns * 1000)
    }

    /// Creates a duration from fractional nanoseconds.
    #[inline]
    pub fn from_f64(ns: f64) -> Self {
        Nanoseconds((ns.max(0.0) * 1000.0).round() as u64)
    }

    /// Creates a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanoseconds(us * 1_000_000)
    }

    /// The duration as fractional nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The duration as fractional microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.as_nanos() / 1000.0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, other: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0.saturating_sub(other.0))
    }
}

impl Add for Nanoseconds {
    type Output = Nanoseconds;
    fn add(self, rhs: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0 + rhs.0)
    }
}

impl AddAssign for Nanoseconds {
    fn add_assign(&mut self, rhs: Nanoseconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanoseconds {
    type Output = Nanoseconds;
    fn sub(self, rhs: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0 - rhs.0)
    }
}

impl Sum for Nanoseconds {
    fn sum<I: Iterator<Item = Nanoseconds>>(iter: I) -> Nanoseconds {
        Nanoseconds(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Nanoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} us", self.as_micros())
        } else {
            write!(f, "{:.3} ns", self.as_nanos())
        }
    }
}

/// A clock frequency, used to convert between cycles and wall-clock time.
///
/// # Examples
///
/// ```
/// use vm_types::{Cycles, Frequency};
/// let freq = Frequency::from_ghz(2.9);
/// let lat = Cycles::new(2900).to_nanos(freq);
/// assert!((lat.as_nanos() - 1000.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Frequency {
    mhz: f64,
}

impl Frequency {
    /// Creates a frequency from GHz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency { mhz: ghz * 1000.0 }
    }

    /// Frequency in GHz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.mhz / 1000.0
    }

    /// Frequency in MHz.
    #[inline]
    pub fn mhz(self) -> f64 {
        self.mhz
    }
}

impl Default for Frequency {
    /// The paper's baseline core frequency: 2.9 GHz (Intel Xeon Gold 6226R).
    fn default() -> Self {
        Frequency::from_ghz(2.9)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let mut c = Cycles::new(10);
        c += Cycles::new(5);
        assert_eq!(c, Cycles::new(15));
        c -= Cycles::new(3);
        assert_eq!(c, Cycles::new(12));
        assert_eq!(c * 2, Cycles::new(24));
        assert_eq!(Cycles::new(3).saturating_sub(Cycles::new(5)), Cycles::ZERO);
    }

    #[test]
    fn cycles_sum_and_minmax() {
        let total: Cycles = [1u64, 2, 3].into_iter().map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(6));
        assert_eq!(Cycles::new(4).max(Cycles::new(9)), Cycles::new(9));
        assert_eq!(Cycles::new(4).min(Cycles::new(9)), Cycles::new(4));
    }

    #[test]
    fn nanos_micros_roundtrip() {
        let ns = Nanoseconds::from_micros(3);
        assert_eq!(ns.as_nanos(), 3000.0);
        assert_eq!(ns.as_micros(), 3.0);
    }

    #[test]
    fn cycles_nanos_conversion_roundtrips() {
        let freq = Frequency::from_ghz(2.0);
        let c = Cycles::new(4000);
        let ns = c.to_nanos(freq);
        assert_eq!(ns.as_nanos(), 2000.0);
    }

    #[test]
    fn frequency_default_matches_paper_config() {
        let f = Frequency::default();
        assert!((f.ghz() - 2.9).abs() < 1e-12);
    }

    #[test]
    fn nanoseconds_display_switches_units() {
        assert!(Nanoseconds::from_nanos(120).to_string().contains("ns"));
        assert!(Nanoseconds::from_micros(12).to_string().contains("us"));
    }

    #[test]
    fn fractional_nanoseconds_preserved() {
        let ns = Nanoseconds::from_f64(0.25);
        assert!((ns.as_nanos() - 0.25).abs() < 1e-9);
    }
}
