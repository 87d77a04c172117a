//! Simulated time: absolute instants ([`Time`]) and spans ([`Span`]).
//!
//! Both are nanosecond-granularity `u64` newtypes (C-NEWTYPE). They are
//! deliberately distinct from [`std::time::Instant`]/[`std::time::Duration`]
//! so that simulator timestamps can never be confused with wall-clock
//! values, while remaining cheap `Copy` scalars.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A span of (simulated or measured) time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use rtseed_model::Span;
/// let period = Span::from_secs(1);
/// assert_eq!(period.as_millis(), 1_000);
/// assert_eq!(period / 4, Span::from_millis(250));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span(u64);

impl Span {
    /// The empty span.
    pub const ZERO: Span = Span(0);
    /// The largest representable span.
    pub const MAX: Span = Span(u64::MAX);

    /// Creates a span from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Span(ns)
    }

    /// Creates a span from microseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow (more than ~584 000 years).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Span(us * 1_000)
    }

    /// Creates a span from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Span(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Span(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, saturating at the
    /// representable range and treating NaN/negative input as zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return Span::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Span::MAX
        } else {
            Span(ns as u64)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional microseconds (useful for reporting overheads in µs as the
    /// paper's Figs. 10–12 do).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional milliseconds (the paper's Fig. 13 unit).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: Span) -> Span {
        Span(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Span) -> Option<Span> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Span(v)),
            None => None,
        }
    }

    /// Checked integer multiplication; `None` on overflow.
    #[inline]
    pub const fn checked_mul(self, k: u64) -> Option<Span> {
        match self.0.checked_mul(k) {
            Some(v) => Some(Span(v)),
            None => None,
        }
    }

    /// Scales the span by a non-negative factor, saturating on overflow and
    /// treating NaN/negative factors as zero.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Span {
        Span::from_secs_f64(self.as_secs_f64() * k)
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Span) -> Span {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Span) -> Span {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Ceiling division `⌈self / rhs⌉` as used by response-time analysis.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub const fn div_ceil(self, rhs: Span) -> u64 {
        assert!(rhs.0 != 0, "division by zero span");
        self.0.div_ceil(rhs.0)
    }
}

impl Add for Span {
    type Output = Span;
    #[inline]
    fn add(self, rhs: Span) -> Span {
        Span(self.0.checked_add(rhs.0).expect("span overflow"))
    }
}

impl AddAssign for Span {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        *self = *self + rhs;
    }
}

impl Sub for Span {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: Span) -> Span {
        Span(self.0.checked_sub(rhs.0).expect("span underflow"))
    }
}

impl SubAssign for Span {
    #[inline]
    fn sub_assign(&mut self, rhs: Span) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Span {
    type Output = Span;
    #[inline]
    fn mul(self, k: u64) -> Span {
        Span(self.0.checked_mul(k).expect("span overflow"))
    }
}

impl Div<u64> for Span {
    type Output = Span;
    #[inline]
    fn div(self, k: u64) -> Span {
        Span(self.0 / k)
    }
}

impl Div for Span {
    /// Ratio of two spans.
    type Output = f64;
    #[inline]
    fn div(self, rhs: Span) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Rem for Span {
    type Output = Span;
    #[inline]
    fn rem(self, rhs: Span) -> Span {
        Span(self.0 % rhs.0)
    }
}

impl Sum for Span {
    fn sum<I: Iterator<Item = Span>>(iter: I) -> Span {
        iter.fold(Span::ZERO, Add::add)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An absolute instant on the (simulated) timeline, in nanoseconds since
/// the synchronous release at time zero.
///
/// # Examples
///
/// ```
/// use rtseed_model::{Span, Time};
/// let release = Time::ZERO;
/// let deadline = release + Span::from_secs(1);
/// assert_eq!(deadline.elapsed_since(release), Span::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

impl Time {
    /// The origin of the timeline (synchronous task-set release).
    pub const ZERO: Time = Time(0);
    /// The farthest representable instant.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from raw nanoseconds since the origin.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the origin.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn elapsed_since(self, earlier: Time) -> Span {
        Span(
            self.0
                .checked_sub(earlier.0)
                .expect("elapsed_since: earlier instant is in the future"),
        )
    }

    /// Span elapsed since `earlier`, or [`Span::ZERO`] if `earlier` is later.
    #[inline]
    pub const fn saturating_elapsed_since(self, earlier: Time) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a span; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, s: Span) -> Option<Time> {
        match self.0.checked_add(s.0) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }
}

impl Add<Span> for Time {
    type Output = Time;
    #[inline]
    fn add(self, s: Span) -> Time {
        Time(self.0.checked_add(s.0).expect("time overflow"))
    }
}

impl AddAssign<Span> for Time {
    #[inline]
    fn add_assign(&mut self, s: Span) {
        *self = *self + s;
    }
}

impl Sub<Span> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, s: Span) -> Time {
        Time(self.0.checked_sub(s.0).expect("time underflow"))
    }
}

impl Sub for Time {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: Time) -> Span {
        self.elapsed_since(rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Span(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_constructors_agree() {
        assert_eq!(Span::from_secs(1), Span::from_millis(1000));
        assert_eq!(Span::from_millis(1), Span::from_micros(1000));
        assert_eq!(Span::from_micros(1), Span::from_nanos(1000));
    }

    #[test]
    fn span_accessors_truncate() {
        let s = Span::from_nanos(1_999_999_999);
        assert_eq!(s.as_secs(), 1);
        assert_eq!(s.as_millis(), 1_999);
        assert_eq!(s.as_micros(), 1_999_999);
    }

    #[test]
    fn span_float_roundtrip() {
        let s = Span::from_secs_f64(0.25);
        assert_eq!(s, Span::from_millis(250));
        assert!((s.as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn span_from_secs_f64_edge_cases() {
        assert_eq!(Span::from_secs_f64(-1.0), Span::ZERO);
        assert_eq!(Span::from_secs_f64(f64::NAN), Span::ZERO);
        assert_eq!(Span::from_secs_f64(f64::INFINITY), Span::MAX);
    }

    #[test]
    fn span_arithmetic() {
        let a = Span::from_millis(250);
        let b = Span::from_millis(750);
        assert_eq!(a + b, Span::from_secs(1));
        assert_eq!(b - a, Span::from_millis(500));
        assert_eq!(a * 4, Span::from_secs(1));
        assert_eq!(Span::from_secs(1) / 4, a);
        assert!((b / a - 3.0).abs() < 1e-12);
        assert_eq!(b % a, Span::ZERO);
    }

    #[test]
    fn span_saturating_and_checked() {
        assert_eq!(Span::ZERO.saturating_sub(Span::from_secs(1)), Span::ZERO);
        assert_eq!(Span::MAX.checked_add(Span::from_nanos(1)), None);
        assert_eq!(Span::MAX.checked_mul(2), None);
        assert_eq!(
            Span::from_secs(1).checked_mul(3),
            Some(Span::from_secs(3))
        );
    }

    #[test]
    #[should_panic(expected = "span overflow")]
    fn span_add_overflow_panics() {
        let _ = Span::MAX + Span::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "span underflow")]
    fn span_sub_underflow_panics() {
        let _ = Span::ZERO - Span::from_nanos(1);
    }

    #[test]
    fn span_div_ceil_matches_rta_use() {
        // ⌈R/T⌉ for R = 1.5 T must be 2.
        let t = Span::from_millis(100);
        assert_eq!(Span::from_millis(150).div_ceil(t), 2);
        assert_eq!(Span::from_millis(100).div_ceil(t), 1);
        assert_eq!(Span::ZERO.div_ceil(t), 0);
    }

    #[test]
    fn span_display_uses_natural_units() {
        assert_eq!(Span::from_secs(2).to_string(), "2s");
        assert_eq!(Span::from_millis(250).to_string(), "250ms");
        assert_eq!(Span::from_micros(42).to_string(), "42us");
        assert_eq!(Span::from_nanos(7).to_string(), "7ns");
        assert_eq!(Span::ZERO.to_string(), "0s");
    }

    #[test]
    fn span_min_max_sum() {
        let a = Span::from_millis(1);
        let b = Span::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: Span = [a, b, b].into_iter().sum();
        assert_eq!(total, Span::from_millis(5));
    }

    #[test]
    fn time_arithmetic() {
        let t0 = Time::ZERO;
        let t1 = t0 + Span::from_secs(1);
        assert_eq!(t1.elapsed_since(t0), Span::from_secs(1));
        assert_eq!(t1 - t0, Span::from_secs(1));
        assert_eq!(t1 - Span::from_secs(1), t0);
        assert_eq!(t0.saturating_elapsed_since(t1), Span::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn time_elapsed_since_panics_backwards() {
        let _ = Time::ZERO.elapsed_since(Time::from_nanos(1));
    }

    #[test]
    fn time_ordering_and_display() {
        assert!(Time::ZERO < Time::from_nanos(1));
        assert_eq!((Time::ZERO + Span::from_millis(3)).to_string(), "t+3ms");
    }

    #[test]
    fn mul_f64_scales() {
        let s = Span::from_secs(1).mul_f64(0.5);
        assert_eq!(s, Span::from_millis(500));
        assert_eq!(Span::from_secs(1).mul_f64(-2.0), Span::ZERO);
    }
}
