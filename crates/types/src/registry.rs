//! Interning: contiguous `u32` slots for hash-like identifiers.
//!
//! The simulation hot path touches per-peer "known" state for every
//! delivered message. Keying that state by 64-bit hashes forces a SipHash
//! computation plus a hash-map probe per peer per message; keying it by a
//! *dense interned index* turns the same operations into array indexing.
//! [`Interner`] is the slot allocator: the first time a key is seen it is
//! assigned the next `u32` slot, and both directions (key → slot,
//! slot → key) stay O(1) thereafter.
//!
//! Determinism: slots are assigned in interning order, which the
//! simulation driver makes deterministic (blocks and transactions are
//! interned at creation time). The internal hash map is used only for
//! point lookups — its iteration order never influences results.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A minimal Fx-style hasher for small integer keys (ids and mixed
/// 64-bit hashes). Multiplicative mixing is plenty here: every key type
/// in this workspace is either sequential or already well mixed (see
/// [`crate::BlockHash::mix`]), and the map is never iterated for output,
/// so the only requirements are speed and determinism.
#[derive(Debug, Default, Clone)]
pub struct FxHasher64 {
    state: u64,
}

/// Golden-ratio multiplier (same constant as SplitMix64's increment).
const PHI64: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(26) ^ v).wrapping_mul(PHI64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`]; plug into `HashMap`/`HashSet` for
/// deterministic, cheap hashing of integer-like keys.
pub type BuildFxHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` keyed through [`FxHasher64`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildFxHasher>;

/// A `HashSet` keyed through [`FxHasher64`].
pub type FxHashSet<T> = HashSet<T, BuildFxHasher>;

/// Assigns contiguous `u32` slots to keys in first-seen order.
#[derive(Debug, Clone, Default)]
pub struct Interner<K> {
    slots: FxHashMap<K, u32>,
    keys: Vec<K>,
}

impl<K: Copy + Eq + Hash> Interner<K> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            slots: FxHashMap::default(),
            keys: Vec::new(),
        }
    }

    /// Creates an empty interner with room for `cap` keys.
    pub fn with_capacity(cap: usize) -> Self {
        Interner {
            slots: FxHashMap::with_capacity_and_hasher(cap, BuildFxHasher::default()),
            keys: Vec::with_capacity(cap),
        }
    }

    /// Returns `key`'s slot, assigning the next free one on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct keys are interned.
    #[inline]
    pub fn intern(&mut self, key: K) -> u32 {
        if let Some(&slot) = self.slots.get(&key) {
            return slot;
        }
        let slot = u32::try_from(self.keys.len()).expect("interner slot space exhausted");
        self.slots.insert(key, slot);
        self.keys.push(key);
        slot
    }

    /// The slot of an already-interned key.
    #[inline]
    pub fn lookup(&self, key: K) -> Option<u32> {
        self.slots.get(&key).copied()
    }

    /// The key occupying `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never assigned.
    #[cfg(test)]
    pub fn resolve(&self, slot: u32) -> K {
        self.keys[slot as usize]
    }

    /// Number of interned keys (== the next free slot).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The interned keys, in slot order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Forgets every key, retaining the allocated capacity so a reused
    /// interner starts its next campaign allocation-free.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockHash;

    #[test]
    fn interning_is_first_seen_dense() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.intern(BlockHash(50)), 0);
        assert_eq!(i.intern(BlockHash(7)), 1);
        assert_eq!(i.intern(BlockHash(50)), 0, "idempotent");
        assert_eq!(i.len(), 2);
        assert_eq!(i.lookup(BlockHash(7)), Some(1));
        assert_eq!(i.lookup(BlockHash(8)), None);
        assert_eq!(i.resolve(0), BlockHash(50));
        assert_eq!(i.keys(), &[BlockHash(50), BlockHash(7)]);
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = Interner::with_capacity(16);
        let mut b = Interner::new();
        for k in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            assert_eq!(a.intern(k), b.intern(k));
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    #[should_panic]
    fn resolve_of_unassigned_slot_panics() {
        let i: Interner<u64> = Interner::new();
        let _ = i.resolve(0);
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let h = |v: u64| {
            let mut h = FxHasher64::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        // Sequential keys land in distinct buckets of a small table.
        let buckets: std::collections::HashSet<u64> = (0..64).map(|v| h(v) >> 58).collect();
        assert!(
            buckets.len() > 32,
            "only {} distinct buckets",
            buckets.len()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The interner must agree with the obvious `HashMap` model on
        /// every operation: slots are dense, first-seen ordered, stable
        /// under re-interning, and resolve round-trips.
        #[test]
        fn interner_equivalent_to_hashmap_model(
            keys in proptest::collection::vec(0u64..64, 0..256),
        ) {
            let mut interner: Interner<u64> = Interner::new();
            let mut model: HashMap<u64, u32> = HashMap::new();
            for &k in &keys {
                let next = model.len() as u32;
                let slot = interner.intern(k);
                let expected = *model.entry(k).or_insert(next);
                prop_assert_eq!(slot, expected, "slot of {}", k);
                prop_assert_eq!(interner.resolve(slot), k, "resolve roundtrip");
            }
            prop_assert_eq!(interner.len(), model.len());
            for probe in 0..64u64 {
                prop_assert_eq!(interner.lookup(probe), model.get(&probe).copied());
            }
            // Slot order is exactly first-seen order.
            let mut seen = Vec::new();
            for &k in &keys {
                if !seen.contains(&k) {
                    seen.push(k);
                }
            }
            prop_assert_eq!(interner.keys(), &seen[..]);
        }
    }
}
