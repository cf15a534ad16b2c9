//! Simulated time.
//!
//! The simulator advances a virtual clock measured in integer nanoseconds
//! from the start of the experiment. Integer time keeps event ordering exact
//! and runs bit-reproducible (no floating-point drift), while one `u64`
//! comfortably covers ~584 years of simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock (nanoseconds since experiment start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Converts a fractional nanosecond count to integer nanoseconds — the
/// single checked route for every `f64` → simulated-time conversion
/// ([`SimDuration::from_secs_f64`], [`SimDuration::from_millis_f64`],
/// [`SimDuration::mul_f64`], and through them the distribution samplers
/// and scheduler offsets).
///
/// Saturates instead of wrapping or panicking in release builds: NaN and
/// negative inputs clamp to zero, values beyond `u64::MAX` nanoseconds
/// (~584 years) clamp to the maximum — a defined, *ordered* result, so a
/// pathological latency or a near-zero arrival rate stalls an event at
/// the far horizon rather than aborting or time-travelling. Debug builds
/// assert first: reaching such a value means a model produced a
/// nonsensical duration, and the workspace test suite should see it.
#[inline]
fn saturating_nanos_from_f64(nanos: f64) -> u64 {
    debug_assert!(!nanos.is_nan(), "time conversion from NaN nanoseconds");
    debug_assert!(
        nanos.is_nan() || nanos >= 0.0,
        "time conversion from negative nanoseconds ({nanos}); durations must be non-negative"
    );
    debug_assert!(
        nanos < u64::MAX as f64,
        "time conversion of {nanos} ns overflows SimDuration"
    );
    if nanos.is_nan() || nanos < 0.0 {
        0
    } else if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos as u64
    }
}

impl SimTime {
    /// The experiment start instant.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `secs` seconds after the start of the experiment.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since experiment start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since experiment start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Applies a signed clock offset (used to model NTP skew at observers),
    /// saturating at the representable range.
    #[inline]
    pub fn offset_by(self, offset_nanos: i64) -> SimTime {
        if offset_nanos >= 0 {
            SimTime(self.0.saturating_add(offset_nanos as u64))
        } else {
            SimTime(self.0.saturating_sub(offset_nanos.unsigned_abs()))
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from whole minutes.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * NANOS_PER_SEC)
    }

    /// Creates a duration from whole hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Routed through the workspace's one checked `f64` → nanoseconds
    /// conversion: NaN/negative inputs saturate to zero and oversized
    /// inputs to [`SimDuration::MAX`] in release builds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `secs` is negative, NaN, or too large
    /// to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(saturating_nanos_from_f64(secs * NANOS_PER_SEC as f64))
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// Saturates (and debug-asserts) under the same conditions as
    /// [`SimDuration::from_secs_f64`].
    #[inline]
    pub fn from_millis_f64(millis: f64) -> Self {
        // Delegation (not `millis * 1e6` directly) keeps the rounding
        // sequence bit-identical to what the golden fingerprints were
        // captured with.
        Self::from_secs_f64(millis / 1e3)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds (for reporting).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales the duration by a non-negative float (e.g. jitter factors),
    /// through the same checked conversion as
    /// [`SimDuration::from_secs_f64`]: the product saturates at
    /// [`SimDuration::MAX`] instead of silently `as`-casting.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is negative or NaN, or if the
    /// scaled duration overflows.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration(saturating_nanos_from_f64(self.0 as f64 * factor))
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// The instant `rhs` earlier than `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` exceeds the time since experiment
    /// start.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", self.0 as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
        assert_eq!(
            SimDuration::from_millis_f64(0.5),
            SimDuration::from_micros(500)
        );
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let u = t + SimDuration::from_millis(250);
        assert_eq!(u - t, SimDuration::from_millis(250));
        assert_eq!(u - SimDuration::from_millis(250), t);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(3) - SimDuration::from_secs(1);
        assert_eq!(d, SimDuration::from_secs(2));
        assert_eq!(d * 3, SimDuration::from_secs(6));
        assert_eq!(d / 2, SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(1.5), SimDuration::from_secs(3));
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn clock_offsets() {
        let t = SimTime::from_secs(100);
        assert_eq!(
            t.offset_by(1_000_000),
            SimTime::from_nanos(t.as_nanos() + 1_000_000)
        );
        assert_eq!(
            t.offset_by(-1_000_000),
            SimTime::from_nanos(t.as_nanos() - 1_000_000)
        );
        // Saturates at zero rather than wrapping.
        assert_eq!(SimTime::ZERO.offset_by(-5), SimTime::ZERO);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(15).to_string(), "15.000us");
        assert_eq!(SimDuration::from_millis(74).to_string(), "74.000ms");
        assert_eq!(SimDuration::from_secs(13).to_string(), "13.000s");
        assert_eq!(SimTime::from_secs(2).to_string(), "t+2.000s");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_float_duration_panics_in_debug() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_float_duration_panics_in_debug() {
        // ~1.8e19 ns is the ceiling; 1e12 s = 1e21 ns is far past it —
        // the kind of value an exponential sampler emits at a near-zero
        // rate.
        let _ = SimDuration::from_secs_f64(1e12);
    }

    // The saturating release-mode contract can only execute where the
    // debug asserts are compiled out.
    #[cfg(not(debug_assertions))]
    #[test]
    fn float_conversions_saturate_in_release() {
        assert_eq!(SimDuration::from_secs_f64(1e12), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(1e18), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(1e30),
            SimDuration::MAX,
            "mul_f64 overflow must clamp, not wrap"
        );
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(f64::NAN),
            SimDuration::ZERO
        );
    }

    #[test]
    fn extreme_in_range_conversions_are_exact() {
        // Sub-nanosecond values truncate to zero rather than wrapping.
        assert_eq!(SimDuration::from_secs_f64(1e-12), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(1e-9), SimDuration::ZERO);
        // Near the representable ceiling (but under it), the conversion
        // stays monotone and finite: ~1.84e10 s is ~584 years.
        let big = SimDuration::from_secs_f64(1.8e10);
        assert!(big < SimDuration::MAX);
        assert!(big > SimDuration::from_secs(17_000_000_000));
        // A century-scale mul_f64 stays in range and ordered.
        let scaled = SimDuration::from_hours(1).mul_f64(8.76e5);
        assert_eq!(scaled.as_nanos() / NANOS_PER_SEC, 3_153_600_000);
    }

    #[test]
    fn max_is_usable_sentinel() {
        assert!(SimTime::from_secs(1_000_000) < SimTime::MAX);
        assert_eq!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)), None);
    }
}
