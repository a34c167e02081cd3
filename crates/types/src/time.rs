//! Nanosecond-resolution time.
//!
//! A single type doubles as *instant* and *duration*: the discrete-event
//! simulator only ever needs a totally ordered monotone axis with addition
//! and saturating subtraction, and using one representation avoids a zoo of
//! conversions on hot paths.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point on (or a distance along) the virtual time axis, in nanoseconds.
///
/// `Time` is `Copy`, totally ordered and wraps a `u64`, giving a range of
/// roughly 584 years — far beyond any simulation horizon used here.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin of the time axis.
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Construct from a floating-point number of seconds (saturating at 0).
    ///
    /// Used when scaling durations by workload factors (e.g. CS time
    /// jitter); negative and NaN inputs map to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return Time::ZERO;
        }
        Time((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Construct from a floating-point number of milliseconds.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in seconds as `f64` (lossy beyond 2^53 ns, irrelevant here).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in milliseconds as `f64`.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `a.saturating_sub(b) == max(a - b, 0)`.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Scale a duration by a dimensionless factor (saturating, NaN ⇒ 0).
    #[inline]
    pub fn mul_f64(self, k: f64) -> Time {
        Time::from_secs_f64(self.as_secs_f64() * k)
    }

    /// Convert to `std::time::Duration` (for the wall-clock runtime).
    #[inline]
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    /// Panics on underflow in debug builds; use [`Time::saturating_sub`]
    /// when the ordering of the operands is not guaranteed.
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Time {
    /// Human scale: picks the widest unit that keeps 3+ significant digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns < 1_000 {
            write!(f, "{}ns", ns)
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(Time::from_secs(1), Time::from_millis(1_000));
        assert_eq!(Time::from_millis(1), Time::from_micros(1_000));
        assert_eq!(Time::from_micros(1), Time::from_nanos(1_000));
    }

    #[test]
    fn float_roundtrip() {
        let t = Time::from_millis(35);
        assert!((t.as_millis_f64() - 35.0).abs() < 1e-9);
        assert_eq!(Time::from_millis_f64(0.6), Time::from_micros(600));
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::NAN), Time::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_millis(5);
        let b = Time::from_millis(3);
        assert_eq!(a + b, Time::from_millis(8));
        assert_eq!(a - b, Time::from_millis(2));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a * 3, Time::from_millis(15));
        assert_eq!(a / 5, Time::from_millis(1));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn mul_f64_scales() {
        let a = Time::from_millis(10);
        assert_eq!(a.mul_f64(1.5), Time::from_millis(15));
        assert_eq!(a.mul_f64(0.0), Time::ZERO);
        assert_eq!(a.mul_f64(f64::NAN), Time::ZERO);
    }

    #[test]
    fn sum_iterates() {
        let total: Time = (1..=4u64).map(Time::from_millis).sum();
        assert_eq!(total, Time::from_millis(10));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Time::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Time::from_micros(1)), "1.00us");
        assert_eq!(format!("{}", Time::from_millis(2)), "2.00ms");
        assert_eq!(format!("{}", Time::from_secs(3)), "3.000s");
        assert_eq!(format!("{}", Time::ZERO), "0s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_millis(1) < Time::from_millis(2));
        assert!(Time::MAX > Time::from_secs(1_000_000));
    }
}
