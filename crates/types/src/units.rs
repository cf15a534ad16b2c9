//! Data-size, bandwidth, and gas units.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::time::SimDuration;

/// A size in bytes (message payloads, block bodies, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// The zero size.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from bytes.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.2}MiB", self.0 as f64 / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.2}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A link bandwidth in bits per second.
///
/// Used to compute the serialization delay of a message:
/// `transfer_time = size / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a bandwidth from megabits per second.
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is zero: a zero-bandwidth link would stall the
    /// simulation forever.
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        assert!(mbps > 0, "bandwidth must be positive");
        Bandwidth(mbps * 1_000_000)
    }

    /// Creates a bandwidth from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Time to serialize `size` onto this link.
    #[inline]
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        // nanos = bytes * 8 * 1e9 / bits_per_sec. Real message sizes keep
        // the numerator well inside u64 (the hot path: one u64 divide, not
        // the ~3× slower u128 `__udivti3`); the u128 widening survives only
        // as the overflow fallback for multi-gigabyte payloads. Both paths
        // compute the identical quotient.
        let bytes = size.as_bytes();
        let nanos = match bytes.checked_mul(8_000_000_000) {
            Some(num) => num / self.0,
            None => ((bytes as u128 * 8 * 1_000_000_000) / self.0 as u128) as u64,
        };
        SimDuration::from_nanos(nanos)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}Gbps", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.1}Mbps", self.0 as f64 / 1e6)
        }
    }
}

/// EVM gas, the unit of block capacity.
///
/// The simulator does not execute contracts; gas only bounds how many
/// transactions fit in a block (the paper's "blocks are ~80% full").
pub type Gas = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(
            ByteSize::from_bytes(7) + ByteSize::from_bytes(3),
            ByteSize(10)
        );
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let bw = Bandwidth::from_mbps(100);
        let t1 = bw.transfer_time(ByteSize::from_bytes(125_000)); // 1 Mbit
        assert_eq!(t1, SimDuration::from_millis(10));
        let t2 = bw.transfer_time(ByteSize::from_bytes(250_000));
        assert_eq!(t2, SimDuration::from_millis(20));
    }

    #[test]
    fn gigabit_link_is_fast() {
        let bw = Bandwidth::from_gbps(10);
        // 25 KiB block on a 10 Gbps backbone: ~20 microseconds.
        let t = bw.transfer_time(ByteSize::from_bytes(25 * 1024));
        assert!(t < SimDuration::from_micros(25), "got {t}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(ByteSize::from_bytes(512).to_string(), "512B");
        assert_eq!(ByteSize::from_bytes(25 * 1024).to_string(), "25.00KiB");
        assert_eq!(Bandwidth::from_mbps(100).to_string(), "100.0Mbps");
        assert_eq!(Bandwidth::from_gbps(8).to_string(), "8.0Gbps");
    }
}
