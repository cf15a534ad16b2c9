//! Time-ordered event queue.
//!
//! Delivers events in non-decreasing time order, breaking ties by
//! insertion order (FIFO). Deterministic tie-breaking is essential: two
//! messages scheduled for the same nanosecond must always be processed in
//! the same order, or replays diverge.
//!
//! Layout: a calendar queue of 4-byte slab slots. Each pending event
//! lives in one slab entry that holds its `time`, its unique insertion
//! `seq` and its payload; entries never move, and a free list recycles
//! vacated ones. The queue's order is the packed 16-byte key
//! `time << 64 | seq << SLOT_BITS | slot`: comparing keys *is* comparing
//! `(time, seq)`, so the pop sequence is the total `(time, seq)` order
//! regardless of internal layout (the property tests pin exactly that).
//! Near-future slots hash by time into a ring of ~131 µs buckets (a
//! shift, not a division). A bucket is sorted once, when the cursor
//! reaches it: its slots' keys are gathered from the slab into one reused
//! scratch buffer, sorted, and written back as slots, which also pulls
//! the bucket's entries into cache just before they pop. The steady
//! state thus costs O(1) amortized per push/pop instead of a `log n` heap
//! sift — measurably faster at the multi-thousand pending depths of a
//! gossip campaign. A bucket keeps its high-water capacity as the ring
//! turns, so holding 4-byte slots there rather than whole keys keeps the
//! queue's retained memory close to its pending events. Keys beyond the
//! ring's horizon (mining solves, retarget lags) wait whole in a small
//! overflow heap and enter the ring as slots when the cursor advances.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ethmeter_types::SimTime;

/// Bits of the packed key word reserved for the slab slot.
const SLOT_BITS: u32 = 24;
/// Maximum number of simultaneously pending events (slab slots).
const MAX_PENDING: u64 = 1 << SLOT_BITS;
/// Maximum insertion sequence (fits the remaining high bits).
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);

/// log2 of the bucket width in nanoseconds (2^17 ≈ 131 µs). Narrower
/// than the smallest realistic link delay (~1.3 ms floor + overheads), so
/// handlers essentially never push into the bucket being drained — the
/// pattern that would force repeated tail re-sorts. At gossip-burst
/// densities a bucket still holds only a handful of keys, sorted once
/// when the cursor arrives.
const WIDTH_SHIFT: u32 = 17;
/// Ring size (buckets). Span = 4096 × 131 µs ≈ 537 ms, which covers the
/// bulk of gossip/import delays; longer delays (mining solves, retarget
/// lags, fetch timeouts) take the overflow path.
const N_BUCKETS: usize = 4096;

/// One slab entry: a pending event and its `(time, seq)` order.
#[derive(Debug)]
struct Pending<E> {
    /// Scheduled instant, in nanoseconds.
    time: u64,
    /// Insertion sequence, the FIFO tie-break.
    seq: u64,
    /// The payload; `None` while the entry sits on the free list.
    event: Option<E>,
}

/// An event queue ordered by `(time, insertion sequence)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring of slab-slot buckets; ring index `b % N_BUCKETS` holds
    /// absolute bucket `b` for `b` in `[cursor, cursor + N_BUCKETS)`.
    buckets: Vec<Vec<u32>>,
    /// Absolute index (`time >> WIDTH_SHIFT`) of the bucket being
    /// drained. The cursor is *lazy*: it stands on the bucket of the most
    /// recently popped key and only advances inside [`EventQueue::pop`]'s
    /// opening settle when that bucket runs dry, so handler pushes (which
    /// are never in the past) land at or ahead of it.
    cursor: u64,
    /// Consumed prefix of the current bucket.
    drained: usize,
    /// True if the current bucket needs a (re)sort before its next read:
    /// set on arrival at a bucket and again when keys are pushed into it.
    dirty: bool,
    /// Keys currently in the ring (excludes the drained prefix).
    ring_count: usize,
    /// Packed keys beyond the ring horizon, by min-heap.
    overflow: BinaryHeap<Reverse<u128>>,
    /// Slab of pending events, addressed by slot.
    events: Vec<Pending<E>>,
    /// Vacated slab slots available for reuse.
    free: Vec<u32>,
    /// Reused buffer for a bucket sort's packed keys.
    scratch: Vec<u128>,
    next_seq: u64,
    /// Cached timestamp of the earliest pending event, kept accurate by
    /// every mutating operation: [`EventQueue::push`] lowers it,
    /// [`EventQueue::pop`] relocates the new head on its way out (without
    /// advancing the cursor — see [`EventQueue::min_after_pop`]), and
    /// [`EventQueue::clear`] resets it. This is what lets
    /// [`EventQueue::peek_time`] take `&self` — the parallel window loop
    /// peeks between every window, so a mutating peek was a latent
    /// hazard.
    min_time: Option<SimTime>,
    /// Debug backstop: a `(time, seq)` watermark every pop must meet or
    /// exceed. Raised to each popped key, lowered by any push below it —
    /// so delivering a key out of order relative to a co-pending earlier
    /// key trips the assert, whatever the calendar layout did.
    #[cfg(debug_assertions)]
    last_order: u128,
}

/// The packed key `time << 64 | seq << SLOT_BITS | slot`.
#[inline]
fn pack(time: u64, seq: u64, slot: u32) -> u128 {
    (u128::from(time) << 64) | u128::from((seq << SLOT_BITS) | u64::from(slot))
}

#[inline]
fn key_slot(key: u128) -> u32 {
    (key as u64 & (MAX_PENDING - 1)) as u32
}

#[inline]
fn abs_bucket(time: u64) -> u64 {
    time >> WIDTH_SHIFT
}

#[inline]
fn key_time(key: u128) -> u64 {
    (key >> 64) as u64
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![Vec::new(); N_BUCKETS],
            cursor: 0,
            drained: 0,
            dirty: true,
            ring_count: 0,
            overflow: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            scratch: Vec::new(),
            next_seq: 0,
            min_time: None,
            #[cfg(debug_assertions)]
            last_order: 0,
        }
    }

    /// Creates an empty queue with capacity for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.events.reserve(cap);
        q
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if more than 2²⁴ events are pending at once or the queue
    /// processes more than 2⁴⁰ events over its lifetime (both far beyond
    /// any realistic campaign; [`EventQueue::clear`] resets the latter).
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        assert!(seq < MAX_SEQ, "event sequence space exhausted");
        self.next_seq += 1;
        let nanos = time.as_nanos();
        let entry = Pending {
            time: nanos,
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.events[s as usize] = entry;
                s
            }
            None => {
                let s = self.events.len() as u64;
                assert!(s < MAX_PENDING, "pending-event slots exhausted");
                self.events.push(entry);
                s as u32
            }
        };
        #[cfg(debug_assertions)]
        {
            // A push below the watermark legitimately lowers the floor of
            // the next pop (the queue orders whatever is pending; only
            // the *scheduler* guarantees pushes are never in the past).
            self.last_order = self.last_order.min(pack(nanos, seq, 0) >> SLOT_BITS);
        }
        // Handlers never schedule into the past, but an idle queue may be
        // re-primed below the cursor (a fresh run after a drain): clamp
        // into the current bucket, where the next sort orders it.
        let ab = abs_bucket(nanos).max(self.cursor);
        if ab >= self.cursor + N_BUCKETS as u64 {
            self.overflow.push(Reverse(pack(nanos, seq, slot)));
        } else {
            if ab == self.cursor {
                self.dirty = true;
            }
            self.buckets[(ab as usize) & (N_BUCKETS - 1)].push(slot);
            self.ring_count += 1;
        }
        self.min_time = Some(match self.min_time {
            Some(m) => m.min(time),
            None => time,
        });
    }

    /// Orders the current bucket's unconsumed tail by packed key (every
    /// tail key is ≥ every already-popped key by monotonicity) and clears
    /// `dirty`.
    fn sort_tail(&mut self) {
        let tail = &mut self.buckets[(self.cursor as usize) & (N_BUCKETS - 1)][self.drained..];
        if tail.len() > 1 {
            let events = &self.events;
            self.scratch.clear();
            self.scratch.extend(tail.iter().map(|&slot| {
                let p = &events[slot as usize];
                pack(p.time, p.seq, slot)
            }));
            self.scratch.sort_unstable();
            for (dst, &key) in tail.iter_mut().zip(&self.scratch) {
                *dst = key_slot(key);
            }
        }
        self.dirty = false;
    }

    /// Advances the cursor to the bucket holding the minimum pending key
    /// and leaves that bucket sorted with `drained` at its head. Returns
    /// false iff the queue is empty. Amortized O(1): the cursor only
    /// moves forward, so each bucket is crossed once per sweep of
    /// simulated time, and each key is sorted O(1) times.
    fn settle(&mut self) -> bool {
        loop {
            let ring = (self.cursor as usize) & (N_BUCKETS - 1);
            if self.drained < self.buckets[ring].len() {
                if self.dirty {
                    // Arrival sort, or late keys pushed behind the read
                    // head.
                    self.sort_tail();
                }
                return true;
            }
            // Bucket exhausted: recycle it and advance to the next
            // non-empty bucket (or jump to the overflow minimum), which
            // will need its arrival sort.
            self.buckets[ring].clear();
            self.drained = 0;
            self.dirty = true;
            if self.ring_count > 0 {
                self.cursor += 1;
            } else if let Some(&Reverse(next)) = self.overflow.peek() {
                self.cursor = abs_bucket(key_time(next));
            } else {
                return false;
            }
            self.migrate_overflow();
        }
    }

    /// Pulls overflow keys that now fall inside the ring horizon.
    #[inline]
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + N_BUCKETS as u64;
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let ab = abs_bucket(key_time(key));
            if ab >= horizon {
                break;
            }
            self.overflow.pop();
            if ab == self.cursor {
                self.dirty = true;
            }
            self.buckets[(ab as usize) & (N_BUCKETS - 1)].push(key_slot(key));
            self.ring_count += 1;
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.settle() {
            return None;
        }
        let slot = self.buckets[(self.cursor as usize) & (N_BUCKETS - 1)][self.drained];
        self.drained += 1;
        self.ring_count -= 1;
        let p = &mut self.events[slot as usize];
        #[cfg(debug_assertions)]
        {
            let order = pack(p.time, p.seq, 0) >> SLOT_BITS;
            debug_assert!(
                order >= self.last_order,
                "event queue popped out of (time, seq) order"
            );
            self.last_order = order;
        }
        let time = SimTime::from_nanos(p.time);
        let event = p.event.take().expect("ring slots reference live entries");
        self.free.push(slot);
        self.min_time = self.min_after_pop();
        Some((time, event))
    }

    /// The minimum pending key's timestamp, located **without advancing
    /// the cursor** — refreshing the [`EventQueue::peek_time`] cache on
    /// the way out of a pop must not move the cursor ahead of the popped
    /// bucket, because the handler's pushes (at the popped time plus a
    /// delay) haven't landed yet. A cursor that has already jumped to the
    /// next pending bucket would clamp those pushes into it, piling
    /// sparse-regime traffic into one perpetually re-sorted bucket.
    fn min_after_pop(&mut self) -> Option<SimTime> {
        // Fast path: the settled (sorted) current bucket still has keys.
        let ring = (self.cursor as usize) & (N_BUCKETS - 1);
        if self.drained < self.buckets[ring].len() {
            if self.dirty {
                self.sort_tail();
            }
            let head = self.buckets[ring][self.drained];
            return Some(SimTime::from_nanos(self.events[head as usize].time));
        }
        // Current bucket exhausted: the ring minimum (if any) is in the
        // first non-empty later bucket — later buckets hold strictly
        // later times. The walk re-crosses buckets the next settle will
        // clear anyway; emptiness checks are cheap.
        let mut ring_min = None;
        if self.ring_count > 0 {
            for off in 1..N_BUCKETS as u64 {
                let b = &self.buckets[((self.cursor + off) as usize) & (N_BUCKETS - 1)];
                if !b.is_empty() {
                    ring_min = b.iter().map(|&s| self.events[s as usize].time).min();
                    break;
                }
            }
        }
        let over_min = self.overflow.peek().map(|&Reverse(k)| key_time(k));
        let best = match (ring_min, over_min) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        };
        best.map(SimTime::from_nanos)
    }

    /// The timestamp of the earliest pending event.
    ///
    /// Non-mutating: the value is a cache maintained by `push`/`pop`/
    /// `clear`, so peeking can never advance the lazy calendar cursor or
    /// otherwise perturb `(time, seq)` pop order (a regression test pins
    /// this).
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_time
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_count + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.ring_count == 0 && self.overflow.is_empty()
    }

    /// Drops every pending event and resets the insertion sequence, while
    /// keeping the bucket, heap, slab and scratch allocations — a cleared
    /// queue behaves exactly like a new one but starts its next run
    /// allocation-free.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.cursor = 0;
        self.drained = 0;
        self.dirty = true;
        self.ring_count = 0;
        self.overflow.clear();
        self.events.clear();
        self.free.clear();
        self.next_seq = 0;
        self.min_time = None;
        #[cfg(debug_assertions)]
        {
            self.last_order = 0;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethmeter_types::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "c");
        q.push(t(1), "a");
        q.push(t(3), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(3), "b")));
        assert_eq!(q.pop(), Some((t(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(7), i)));
        }
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.push(t(2), 1);
        q.push(t(1), 2);
        q.push(t(2), 3);
        q.push(t(1), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(9), ());
        q.push(t(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(4)));
        q.pop();
        assert_eq!(q.peek_time(), Some(t(9)));
    }

    #[test]
    fn interleaved_peeks_never_perturb_pop_order() {
        // Regression test for the old `&mut self` peek, whose lazy-cursor
        // settle was a mutation: a queue peeked between every operation
        // must pop the exact same (time, seq) sequence as an un-peeked
        // twin. Times deliberately collide and span bucket widths.
        let mut peeked = EventQueue::new();
        let mut plain = EventQueue::new();
        let times: Vec<u64> = (0..256u64).map(|i| (i * 2_654_435_761) % 400_000).collect();
        for (i, &nanos) in times.iter().enumerate() {
            let at = SimTime::from_nanos(nanos);
            assert_eq!(peeked.peek_time(), plain.peek_time());
            peeked.push(at, i);
            plain.push(at, i);
            assert_eq!(peeked.peek_time(), plain.peek_time());
            if i % 3 == 0 {
                for _ in 0..8 {
                    let _ = peeked.peek_time(); // repeated peeks are free
                }
                assert_eq!(peeked.pop(), plain.pop());
                assert_eq!(peeked.peek_time(), plain.peek_time());
            }
        }
        loop {
            assert_eq!(peeked.peek_time(), plain.peek_time());
            let (a, b) = (peeked.pop(), plain.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_tracks_minimum_through_churn() {
        // The cached minimum must stay accurate when a push undercuts the
        // current head and when pops drain across bucket boundaries.
        let mut q = EventQueue::new();
        q.push(t(5), 0u32);
        assert_eq!(q.peek_time(), Some(t(5)));
        q.push(t(2), 1);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), 1)));
        assert_eq!(q.peek_time(), Some(t(5)));
        // Push behind the settled head, into the same bucket region.
        q.push(SimTime::from_nanos(t(5).as_nanos() - 1), 2);
        assert_eq!(
            q.peek_time(),
            Some(SimTime::from_nanos(t(5).as_nanos() - 1))
        );
        q.pop();
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        // Steady-state churn at depth 2 must not grow the slab.
        q.push(t(0), 0u64);
        q.push(t(1), 1u64);
        for i in 2..1_000u64 {
            q.pop().expect("primed");
            q.push(t(i), i);
        }
        assert_eq!(q.len(), 2);
        assert!(q.events.len() <= 3, "slab grew to {}", q.events.len());
    }

    /// Heap bytes the queue holds, in use or retained as capacity.
    fn retained_bytes<E>(q: &EventQueue<E>) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&q.buckets)
            + q.buckets.iter().map(bytes).sum::<usize>()
            + q.overflow.capacity() * std::mem::size_of::<Reverse<u128>>()
            + bytes(&q.events)
            + bytes(&q.free)
            + bytes(&q.scratch)
    }

    #[test]
    fn retained_memory_follows_peak_pending_events() {
        // A Planet-like flood: while fewer than 28k events are pending,
        // each pop schedules a burst of 16 at one instant 1–300 ms ahead,
        // so the ~537 ms ring wraps several times and every bucket keeps
        // the capacity of the largest burst pile that ever landed in it
        // (about 7 retained bucket entries per peak pending event). The
        // payload is 24 bytes with a niche, like the engine's `Event`.
        let mut q: EventQueue<(u64, u64, bool)> = EventQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..64 {
            q.push(SimTime::from_nanos(rand() % 300_000_000), (i, i, true));
        }
        let mut peak = 0;
        for _ in 0..300_000 {
            let (now, _) = q.pop().expect("the flood never drains");
            if q.len() < 28_000 {
                let at = now + SimDuration::from_nanos(1_000_000 + rand() % 299_000_000);
                for i in 0..16 {
                    q.push(at, (i, i, false));
                }
            }
            peak = peak.max(q.len());
        }
        assert!(q.peek_time().expect("pending") > t(1), "the ring must wrap");
        // Measured ~79 B per peak pending event: a 4-byte slot per
        // retained bucket entry plus a 40-byte slab entry per pending
        // event. Buckets of 16-byte keys beside a slab of bare payloads
        // retained ~146 B.
        let per_event = retained_bytes(&q) as f64 / peak as f64;
        assert!(
            per_event < 110.0,
            "the queue retains {per_event:.1} heap bytes per peak pending event"
        );
    }

    #[test]
    fn deep_heaps_drain_sorted() {
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.push(t(i.wrapping_mul(2_654_435_761) % 97), i);
        }
        let mut prev = None;
        let mut n = 0;
        while let Some((time, _)) = q.pop() {
            if let Some(p) = prev {
                assert!(time >= p, "heap order violated");
            }
            prev = Some(time);
            n += 1;
        }
        assert_eq!(n, 1_000);
    }

    #[test]
    fn clear_resets_like_new() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(t(i % 7), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // FIFO sequencing restarts from scratch after a clear.
        q.push(t(3), 100u64);
        q.push(t(3), 101u64);
        assert_eq!(q.pop(), Some((t(3), 100)));
        assert_eq!(q.pop(), Some((t(3), 101)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn mixed_push_pop_with_durations() {
        // Exercises the sift paths with a realistic churn pattern.
        let mut q = EventQueue::with_capacity(128);
        let mut clock = SimTime::ZERO;
        for i in 0..128u64 {
            q.push(clock + SimDuration::from_nanos((i * 37) % 101), i);
        }
        let mut popped = 0;
        while let Some((when, _)) = q.pop() {
            assert!(when >= clock, "time went backwards");
            clock = when;
            popped += 1;
            if popped % 3 == 0 {
                q.push(clock + SimDuration::from_nanos(popped % 13), 1_000 + popped);
            }
            if popped > 4_000 {
                break;
            }
        }
        assert!(q.is_empty() || popped > 4_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Against arbitrary interleavings of (time, payload) pushes —
        /// including heavy timestamp collisions — the pop sequence must be
        /// exactly the stable sort of the input by time: non-decreasing
        /// times, FIFO among equal instants. This is the engine's replay
        /// guarantee in one property.
        #[test]
        fn pop_order_is_stable_sort_by_time(
            times in proptest::collection::vec(0u64..16, 0..128),
        ) {
            let mut q = EventQueue::new();
            for (payload, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), payload);
            }
            let mut model: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            // Stable sort keeps insertion order among equal times — the
            // FIFO contract the queue must honor.
            model.sort_by_key(|&(t, _)| t);
            let popped: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
            prop_assert_eq!(popped, model);
            prop_assert!(q.is_empty());
        }

        /// Interleaved push/pop phases never break the ordering contract:
        /// after any prefix of operations, `peek_time` equals the earliest
        /// pending time and pops stay non-decreasing from the last pop.
        #[test]
        fn interleaved_push_pop_keeps_order(
            ops in proptest::collection::vec((0u64..8, 0u64..4), 1..96),
        ) {
            let mut q = EventQueue::with_capacity(8);
            let mut pending: Vec<(u64, u64)> = Vec::new(); // (time, seq)
            for (seq, &(t, pops)) in ops.iter().enumerate() {
                let seq = seq as u64;
                q.push(SimTime::from_nanos(t), seq);
                pending.push((t, seq));
                for _ in 0..pops {
                    prop_assert_eq!(
                        q.peek_time().map(SimTime::as_nanos),
                        pending.iter().map(|&(t, _)| t).min()
                    );
                    let Some((got_t, got_e)) = q.pop() else {
                        prop_assert!(pending.is_empty());
                        break;
                    };
                    // The popped entry is the FIFO-earliest at the minimum
                    // pending time.
                    let min_t = pending.iter().map(|&(t, _)| t).min().expect("non-empty");
                    let expect_seq = pending
                        .iter()
                        .filter(|&&(t, _)| t == min_t)
                        .map(|&(_, s)| s)
                        .min()
                        .expect("non-empty");
                    prop_assert_eq!(got_t.as_nanos(), min_t);
                    prop_assert_eq!(got_e, expect_seq);
                    pending.retain(|&(_, s)| s != expect_seq);
                }
            }
            prop_assert_eq!(q.len(), pending.len());
        }
    }
}

#[cfg(test)]
mod calendar_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The single-bucket proptests above cannot see bucket-ring bugs,
        /// so this one spreads times across many ~131 µs buckets AND the
        /// overflow horizon (multi-second deltas) and checks the same
        /// stable-sort contract.
        #[test]
        fn wide_time_ranges_pop_in_stable_order(
            dense in proptest::collection::vec(0u64..64, 0..64),
            wide in proptest::collection::vec(0u64..8_000, 0..32),
        ) {
            // The dense cluster steps 50 µs — well under the 131 µs
            // bucket width, so several *distinct* times collide per
            // bucket and the arrival sort must reorder them (a fresh
            // bucket only ever saw appends). The wide tail steps 400 µs
            // over ~3.2 s, spreading across many buckets and past the
            // ring horizon into the overflow heap.
            let times: Vec<u64> = dense
                .iter()
                .map(|&c| c * 50_000)
                .chain(wide.iter().map(|&c| c * 400_000))
                .collect();
            let mut q = EventQueue::new();
            for (payload, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), payload);
            }
            let mut model: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            model.sort_by_key(|&(t, _)| t);
            let popped: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
            prop_assert_eq!(popped, model);
            prop_assert!(q.is_empty());
        }

        /// Interleaved push/pop across wide time ranges, mimicking the
        /// engine: pops advance a clock floor, pushes schedule at or after
        /// it (the monotonic contract), with bursts landing in the same
        /// bucket, nearby buckets, and the overflow.
        #[test]
        fn interleaved_wide_schedule_keeps_order(
            ops in proptest::collection::vec((0u64..4_000_000_000, 0u64..3), 1..128),
        ) {
            let mut q = EventQueue::new();
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let mut clock = 0u64;
            for (seq, &(delay, pops)) in ops.iter().enumerate() {
                let seq = seq as u64;
                let at = clock + delay;
                q.push(SimTime::from_nanos(at), seq);
                pending.push((at, seq));
                for _ in 0..pops {
                    let Some((got_t, got_e)) = q.pop() else {
                        prop_assert!(pending.is_empty());
                        break;
                    };
                    let min_t = pending.iter().map(|&(t, _)| t).min().expect("non-empty");
                    let expect_seq = pending
                        .iter()
                        .filter(|&&(t, _)| t == min_t)
                        .map(|&(_, s)| s)
                        .min()
                        .expect("non-empty");
                    prop_assert_eq!(got_t.as_nanos(), min_t);
                    prop_assert_eq!(got_e, expect_seq);
                    prop_assert!(got_t.as_nanos() >= clock, "time went backwards");
                    clock = got_t.as_nanos();
                    pending.retain(|&(_, s)| s != expect_seq);
                }
            }
            prop_assert_eq!(q.len(), pending.len());
        }
    }
}
