//! NTP clock-offset model for measurement nodes.
//!
//! The paper timestamps every log record with the *local* clock and relies
//! on NTP discipline: "NTP provides offsets lesser than 100ms in 99% of
//! cases and lesser than 10ms in 90% of cases" (§II, citing Murta et al.).
//! We reproduce exactly that error envelope: each observer gets a slowly
//! drifting offset drawn from a two-component mixture, and analyses that
//! compare timestamps across observers inherit the resulting uncertainty —
//! the error bars of Figure 2.

use ethmeter_sim::dist::{Mixture2, Normal};
use ethmeter_sim::Xoshiro256;
use ethmeter_types::{SimDuration, SimTime};

/// Distribution of NTP offsets for observer clocks.
#[derive(Debug, Clone, Copy)]
pub struct ClockModel {
    offset_ms: Mixture2,
    /// How often the offset re-converges to a new value (NTP poll cadence).
    repoll: SimDuration,
}

impl ClockModel {
    /// Creates the paper-calibrated model: 90% of offsets under 10 ms, 99%
    /// under 100 ms, re-polled at NTP's default 64-second cadence (so a
    /// single tail draw biases at most one poll interval, as in reality).
    pub fn ntp_default() -> Self {
        ClockModel {
            // Core sigma 4ms => |offset| < 10ms with p ~ 0.987 within the
            // core; tail sigma 40ms => |offset| < 100ms with p ~ 0.988.
            // Mixed 90/10 this lands on the paper's envelope.
            offset_ms: Mixture2::new(Normal::new(0.0, 4.0), Normal::new(0.0, 40.0), 0.1),
            repoll: SimDuration::from_secs(64),
        }
    }

    /// A perfect clock (for ablations isolating measurement error).
    #[cfg(test)]
    pub fn perfect() -> Self {
        ClockModel {
            offset_ms: Mixture2::new(Normal::new(0.0, 0.0), Normal::new(0.0, 0.0), 0.0),
            repoll: SimDuration::from_hours(24 * 365),
        }
    }

    /// The NTP re-poll interval.
    #[cfg(test)]
    pub fn repoll_interval(&self) -> SimDuration {
        self.repoll
    }

    /// Draws a fresh offset in nanoseconds (positive = clock runs ahead).
    pub fn sample_offset_nanos(&self, rng: &mut Xoshiro256) -> i64 {
        let ms = self.offset_ms.sample(rng);
        (ms * 1e6) as i64
    }

    /// Creates a per-node skew process seeded from `rng`.
    pub fn skew(&self, rng: &mut Xoshiro256) -> ClockSkew {
        ClockSkew {
            model: *self,
            current_offset_nanos: self.sample_offset_nanos(rng),
            next_repoll: SimTime::ZERO + self.repoll,
        }
    }
}

/// The evolving clock offset of one node.
///
/// `read(true_time)` converts simulator ("true") time into the node's local
/// timestamp, re-drawing the offset at NTP poll boundaries.
#[derive(Debug, Clone)]
pub struct ClockSkew {
    model: ClockModel,
    current_offset_nanos: i64,
    next_repoll: SimTime,
}

impl ClockSkew {
    /// The node's current offset from true time, in nanoseconds.
    pub fn offset_nanos(&self) -> i64 {
        self.current_offset_nanos
    }

    /// Reads the local clock at true instant `now`, advancing the offset
    /// process across NTP re-polls.
    pub fn read(&mut self, now: SimTime, rng: &mut Xoshiro256) -> SimTime {
        while now >= self.next_repoll {
            self.current_offset_nanos = self.model.sample_offset_nanos(rng);
            self.next_repoll += self.model.repoll;
        }
        now.offset_by(self.current_offset_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_match_paper_envelope() {
        let model = ClockModel::ntp_default();
        let mut rng = Xoshiro256::seed_from_u64(7);
        let n = 200_000;
        let mut under10 = 0;
        let mut under100 = 0;
        for _ in 0..n {
            let off_ms = model.sample_offset_nanos(&mut rng).abs() as f64 / 1e6;
            if off_ms < 10.0 {
                under10 += 1;
            }
            if off_ms < 100.0 {
                under100 += 1;
            }
        }
        let f10 = under10 as f64 / n as f64;
        let f100 = under100 as f64 / n as f64;
        assert!(f10 >= 0.88, "P(|off|<10ms) = {f10}");
        assert!(f100 >= 0.985, "P(|off|<100ms) = {f100}");
    }

    #[test]
    fn perfect_clock_reads_true_time() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut skew = ClockModel::perfect().skew(&mut rng);
        let t = SimTime::from_secs(12345);
        assert_eq!(skew.read(t, &mut rng), t);
        assert_eq!(skew.offset_nanos(), 0);
    }

    #[test]
    fn skew_repolls_over_time() {
        let model = ClockModel::ntp_default();
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut skew = model.skew(&mut rng);
        let first = skew.offset_nanos();
        // After many re-poll intervals the offset must have changed at least
        // once (astronomically unlikely otherwise).
        let mut changed = false;
        for k in 1..=50u64 {
            let t = SimTime::ZERO + model.repoll_interval() * k;
            let _ = skew.read(t, &mut rng);
            if skew.offset_nanos() != first {
                changed = true;
                break;
            }
        }
        assert!(changed, "offset never re-polled");
    }

    #[test]
    fn local_time_is_monotone_between_polls() {
        let model = ClockModel::ntp_default();
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut skew = model.skew(&mut rng);
        let a = skew.read(SimTime::from_secs(1), &mut rng);
        let b = skew.read(SimTime::from_secs(2), &mut rng);
        assert!(b > a);
    }
}
