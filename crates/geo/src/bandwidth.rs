//! Per-node bandwidth classes.
//!
//! Table I of the paper lists the measurement machines' 8–10 Gbps backbone
//! links; ordinary peers span residential to datacenter capacity. Bandwidth
//! converts message size into serialization delay, which is what makes
//! *empty blocks propagate faster* (§III-C3) — a small block clears a slow
//! access link sooner.

use ethmeter_sim::Xoshiro256;
use ethmeter_types::{Bandwidth, ByteSize, SimDuration};

/// Access-link capacity class of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandwidthClass {
    /// Home connection (~50 Mbps). Typical hobbyist full node.
    Residential,
    /// Commodity cloud VM (~1 Gbps).
    Datacenter,
    /// Backbone-attached measurement/gateway machine (~10 Gbps, Table I).
    Backbone,
}

impl BandwidthClass {
    /// The nominal capacity of this class.
    pub fn capacity(self) -> Bandwidth {
        match self {
            BandwidthClass::Residential => Bandwidth::from_mbps(50),
            BandwidthClass::Datacenter => Bandwidth::from_gbps(1),
            BandwidthClass::Backbone => Bandwidth::from_gbps(10),
        }
    }

    /// Serialization time of `size` bytes on this class's link.
    ///
    /// The three class capacities divide 8×10⁹ exactly (or nearly), so
    /// each case reduces `bytes * 8e9 / bits_per_sec` to a constant
    /// multiply — bit-identical to [`Bandwidth::transfer_time`] (asserted
    /// by test) but division-free on the per-message hot path.
    #[inline]
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        let bytes = size.as_bytes();
        let nanos = match self {
            // 8e9 / 50e6 = 160 ns per byte, exactly.
            BandwidthClass::Residential => bytes * 160,
            // 8e9 / 1e9 = 8 ns per byte, exactly.
            BandwidthClass::Datacenter => bytes * 8,
            // floor(bytes * 8e9 / 10e9) = floor(bytes * 4 / 5): the
            // constant divisor compiles to a multiply.
            BandwidthClass::Backbone => bytes * 4 / 5,
        };
        SimDuration::from_nanos(nanos)
    }

    /// Block validation speed factor relative to a commodity datacenter
    /// VM. Residential full nodes execute state transitions markedly
    /// slower; backbone/measurement machines (Table I) are faster. This
    /// asymmetry is why a well-provisioned observer's post-import
    /// announcement usually beats its slower neighbors' — the reason
    /// announcements are the *minority* of receptions in Table II.
    pub fn import_factor(self) -> f64 {
        match self {
            // 2019-era home full nodes (HDD, shared CPU) took roughly a
            // second to fully import a block; cloud VMs a few hundred ms;
            // the paper's 40-core backbone machines well under 100 ms.
            // The asymmetry drives Table II: the fast observer's
            // post-import announcement suppresses most of its slower
            // neighbors' announcements.
            BandwidthClass::Residential => 6.0,
            BandwidthClass::Datacenter => 2.5,
            BandwidthClass::Backbone => 0.5,
        }
    }

    /// Samples a class for an ordinary (non-measurement) peer.
    ///
    /// Mix: 60% residential, 38% datacenter, 2% backbone — matching the
    /// observation that most Ethereum peers are unexceptional hosts while
    /// pool gateways are well provisioned.
    pub fn sample_ordinary(rng: &mut Xoshiro256) -> Self {
        let x = rng.next_f64();
        if x < 0.60 {
            BandwidthClass::Residential
        } else if x < 0.98 {
            BandwidthClass::Datacenter
        } else {
            BandwidthClass::Backbone
        }
    }
}

impl std::fmt::Display for BandwidthClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BandwidthClass::Residential => "residential",
            BandwidthClass::Datacenter => "datacenter",
            BandwidthClass::Backbone => "backbone",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_ordered_by_speed() {
        let size = ByteSize::from_bytes(25 * 1024);
        let res = BandwidthClass::Residential.transfer_time(size);
        let dc = BandwidthClass::Datacenter.transfer_time(size);
        let bb = BandwidthClass::Backbone.transfer_time(size);
        assert!(res > dc && dc > bb);
        // A 25 KiB block on 50 Mbps is ~4ms — noticeable vs. an empty block.
        assert!(res.as_millis_f64() >= 3.0, "got {res}");
    }

    #[test]
    fn empty_block_advantage() {
        // The serialization advantage of an empty block (~500 B) over a full
        // one (~25 KiB) on a residential link should be milliseconds.
        let empty = BandwidthClass::Residential.transfer_time(ByteSize::from_bytes(500));
        let full = BandwidthClass::Residential.transfer_time(ByteSize::from_bytes(25 * 1024));
        assert!(full.as_millis_f64() - empty.as_millis_f64() > 3.0);
    }

    #[test]
    fn ordinary_mix_is_mostly_residential() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut res = 0;
        let n = 10_000;
        for _ in 0..n {
            if BandwidthClass::sample_ordinary(&mut rng) == BandwidthClass::Residential {
                res += 1;
            }
        }
        let frac = res as f64 / n as f64;
        assert!((0.55..=0.65).contains(&frac), "residential fraction {frac}");
    }

    #[test]
    fn display_names() {
        assert_eq!(BandwidthClass::Backbone.to_string(), "backbone");
    }

    #[test]
    fn class_fast_path_matches_generic_division() {
        // The per-class constant-multiply shortcut must be bit-identical
        // to the generic `Bandwidth::transfer_time` quotient for every
        // size the simulation can produce (and then some).
        let classes = [
            BandwidthClass::Residential,
            BandwidthClass::Datacenter,
            BandwidthClass::Backbone,
        ];
        let sizes = (0..2_000u64)
            .map(ByteSize::from_bytes)
            .chain((0..200u64).map(|k| ByteSize::from_bytes(25 * 1024 * k)))
            .chain([ByteSize::from_bytes(u64::from(u32::MAX))]);
        for size in sizes {
            for class in classes {
                assert_eq!(
                    class.transfer_time(size),
                    class.capacity().transfer_time(size),
                    "{class:?} at {size}"
                );
            }
        }
    }
}
