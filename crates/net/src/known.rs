//! Bounded "known items" sets.
//!
//! Geth tracks, per peer, which block/transaction hashes that peer is known
//! to have (`knownBlocks`, `knownTxs`), bounded to avoid unbounded memory.
//! The bound matters behaviorally: once evicted, an item may be re-sent,
//! which is one source of the redundant receptions measured in Table II.
//!
//! One type keeps them: [`PeerKnownSet`], a whole *family* of bounded
//! sets (a node's own set plus one per peer) over interned `u32` keys,
//! sharing a key-major bitmap and one pool of FIFO chunks. Gossip checks
//! one recent key against the node itself and then floods it across every
//! peer link in a tight time window; with per-member probe tables each of
//! those operations lands in a different table (a cache miss per insert —
//! measured as the single largest cost of the simulation hot path),
//! whereas a key-major row puts all of a key's bits in one or two words on
//! one cache line. Its contract (same insert/contains results, same FIFO
//! eviction as an independent set per member) is pinned by property tests
//! against a plain `FxHashSet` + FIFO-queue reference model that lives
//! with those tests.
//!
//! Memory follows what gossip is touching, not the campaign or the
//! network: the family's bitmap is cut into `PAGE_ROWS`-row pages
//! allocated on first touch and freed once eviction clears their last
//! bit. The page is deliberately small (1 KiB at one word per row): a
//! node far from the transaction sources holds a few dozen live rows, and
//! with ten thousand nodes every page is a zero-fill plus first-touch
//! faults on memory that is mostly never read, so page size times node
//! count is paid in full inside the event loop.
//!
//! The same reasoning shapes the family's eviction order. Each position
//! needs a FIFO queue of its keys, and a ring buffer per position is a
//! heap object per (node, peer) pair — 170 k of them on the 10k-node
//! preset, each reallocated five times on its way to 64 keys, all inside
//! the event loop. Instead every queue of a family is a chain of
//! `CHUNK_KEYS`-key chunks drawn from one `Vec`: a position is a
//! 20-byte cursor (head and tail chunk, the offsets into them, length and
//! bound), a push writes the cursor and the tail chunk, a drained head
//! chunk goes onto a free list threaded through the chunks' link words
//! and is the next tail some queue takes, and a queue holds its keys plus
//! at most two partly used chunks. The first key flooded to a node's
//! peers takes one allocation sized for a chunk each; after that the pool
//! doubles, and `clear` keeps it for the next campaign.

/// Rows per bitmap page (power of two); see the module doc for why it is
/// this small.
const PAGE_ROWS: usize = 128;

/// One page of the key-major bitmap: `PAGE_ROWS × words` bits plus a
/// live-bit count so fully evicted pages can be freed.
#[derive(Debug, Clone)]
struct Page {
    bits: Vec<u64>,
    live: u32,
}

/// The family's membership half: bit `pos` of row `key`, in
/// `PAGE_ROWS`-row pages allocated on first touch and freed when their
/// last bit clears.
#[derive(Debug, Clone, Default)]
struct Bitmap {
    /// `pages[key / PAGE_ROWS]`, each `PAGE_ROWS × words` bits.
    pages: Vec<Option<Page>>,
    /// `u64` words per row — sized to the highest position.
    words: usize,
}

impl Bitmap {
    /// `(page, word within the page, bit mask)` of `(pos, key)`.
    #[inline]
    fn locate(&self, pos: usize, key: u32) -> (usize, usize, u64) {
        let row = key as usize;
        (
            row / PAGE_ROWS,
            (row % PAGE_ROWS) * self.words + pos / 64,
            1u64 << (pos % 64),
        )
    }

    #[inline]
    fn test(&self, pos: usize, key: u32) -> bool {
        let (page_idx, at, mask) = self.locate(pos, key);
        match self.pages.get(page_idx) {
            Some(Some(page)) => page.bits[at] & mask != 0,
            _ => false,
        }
    }

    /// Sets the bit; returns `true` if it was clear.
    #[inline]
    fn set(&mut self, pos: usize, key: u32) -> bool {
        let (page_idx, at, mask) = self.locate(pos, key);
        // Hot path: the key's page exists (it covers the sliding window
        // of recent keys, which is where gossip lives).
        match self.pages.get_mut(page_idx) {
            Some(Some(page)) => {
                let bits = &mut page.bits[at];
                if *bits & mask != 0 {
                    return false;
                }
                *bits |= mask;
                page.live += 1;
            }
            _ => self.set_cold(page_idx, at, mask),
        }
        true
    }

    /// Page-fault path of [`Bitmap::set`]: allocates the page and sets
    /// the (necessarily fresh) bit.
    #[cold]
    fn set_cold(&mut self, page_idx: usize, at: usize, mask: u64) {
        if page_idx >= self.pages.len() {
            self.pages.resize(page_idx + 1, None);
        }
        let words = self.words;
        let page = self.pages[page_idx].get_or_insert_with(|| Page {
            bits: vec![0; PAGE_ROWS * words],
            live: 0,
        });
        page.bits[at] |= mask;
        page.live += 1;
    }

    /// Clears a set bit, freeing the page if it was the last live one.
    fn clear(&mut self, pos: usize, key: u32) {
        let (page_idx, at, mask) = self.locate(pos, key);
        let page = self.pages[page_idx]
            .as_mut()
            .expect("live keys have a page");
        debug_assert!(page.bits[at] & mask != 0, "queues hold only live keys");
        page.bits[at] &= !mask;
        page.live -= 1;
        if page.live == 0 {
            // Backstop for the page/bitmap invariant: `live` counts set
            // bits, so a page released at live == 0 must be all-zero —
            // a drifted counter here would silently forget live keys.
            debug_assert!(
                page.bits.iter().all(|&w| w == 0),
                "page freed with live bits: live counter diverged from bitmap"
            );
            // The sliding eviction window has moved past this page:
            // release it so memory tracks the window, not the campaign.
            self.pages[page_idx] = None;
        }
    }
}

/// Keys per FIFO chunk: with its link word a chunk is 8 words, half a
/// cache line. (A whole line measured the same on saturated queues and
/// worse, in both time and resident memory, on a cold 10k-node network,
/// where most queues hold a few dozen keys.)
const CHUNK_KEYS: usize = 7;

/// "No chunk" in a link word, a cursor or the free-list head.
const NIL: u32 = u32::MAX;

/// One fixed-size piece of a position's insertion-order queue (or, when
/// free, of the free list): `next` is the following chunk of whichever
/// chain holds it.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Chunk {
    keys: [u32; CHUNK_KEYS],
    next: u32,
}

/// One position's queue: a chain of chunks `head → … → tail` holding `len`
/// keys from slot `head_off` of the head chunk to slot `tail_off` (one
/// past the newest key) of the tail chunk. An empty queue owns no chunk.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    head: u32,
    tail: u32,
    len: u32,
    cap: u32,
    head_off: u8,
    tail_off: u8,
}

/// The family's eviction-order half: every position's FIFO queue, cut
/// into [`Chunk`]s that all live in one `Vec`.
#[derive(Debug, Clone)]
struct FifoPool {
    chunks: Vec<Chunk>,
    /// Head of the free list (threaded through `Chunk::next`).
    free: u32,
    cursors: Vec<Cursor>,
}

impl Default for FifoPool {
    fn default() -> Self {
        FifoPool {
            chunks: Vec::new(),
            free: NIL,
            cursors: Vec::new(),
        }
    }
}

impl FifoPool {
    /// Appends `key` to `pos`'s queue; returns the oldest key if that
    /// pushed the queue past its bound.
    #[inline]
    fn push(&mut self, pos: usize, key: u32) -> Option<u32> {
        let cur = self.cursors[pos];
        if cur.tail == NIL || cur.tail_off as usize == CHUNK_KEYS {
            self.grow(pos);
        }
        let cur = &mut self.cursors[pos];
        self.chunks[cur.tail as usize].keys[cur.tail_off as usize] = key;
        cur.tail_off += 1;
        cur.len += 1;
        if cur.len <= cur.cap {
            return None;
        }
        // The queue holds cap + 1 ≥ 2 keys, so it stays non-empty and a
        // drained head chunk always has a successor.
        let head = &self.chunks[cur.head as usize];
        let old = head.keys[cur.head_off as usize];
        cur.head_off += 1;
        cur.len -= 1;
        if cur.head_off as usize == CHUNK_KEYS {
            let drained = cur.head;
            cur.head = head.next;
            cur.head_off = 0;
            self.chunks[drained as usize].next = self.free;
            self.free = drained;
        }
        Some(old)
    }

    /// Links a tail chunk — the free list's head, else a new one — onto
    /// `pos`'s chain.
    fn grow(&mut self, pos: usize) {
        let at = if self.free != NIL {
            let at = self.free;
            self.free = std::mem::replace(&mut self.chunks[at as usize].next, NIL);
            at
        } else {
            if self.chunks.is_empty() {
                // A fresh key is flooded to every position at once: size
                // the first allocation for one chunk each.
                self.chunks.reserve(self.cursors.len());
            }
            assert!(self.chunks.len() < NIL as usize, "chunk links are u32");
            self.chunks.push(Chunk {
                keys: [0; CHUNK_KEYS],
                next: NIL,
            });
            (self.chunks.len() - 1) as u32
        };
        let cur = &mut self.cursors[pos];
        if cur.tail == NIL {
            cur.head = at;
            cur.head_off = 0;
        } else {
            self.chunks[cur.tail as usize].next = at;
        }
        cur.tail = at;
        cur.tail_off = 0;
    }

    /// `pos`'s keys, oldest first.
    fn keys(&self, pos: usize) -> impl Iterator<Item = u32> + '_ {
        let cur = self.cursors[pos];
        let (mut chunk, mut off) = (cur.head, cur.head_off as usize);
        (0..cur.len).map(move |_| {
            if off == CHUNK_KEYS {
                chunk = self.chunks[chunk as usize].next;
                off = 0;
            }
            let key = self.chunks[chunk as usize].keys[off];
            off += 1;
            key
        })
    }

    /// Swap-removes position `pos`: its whole chain goes onto the free
    /// list in one splice and the last position's cursor moves into the
    /// hole (its chunks stay where they are).
    fn swap_remove(&mut self, pos: usize) {
        let cur = self.cursors.swap_remove(pos);
        if cur.tail != NIL {
            self.chunks[cur.tail as usize].next = self.free;
            self.free = cur.head;
        }
    }
}

/// A family of FIFO-bounded known-sets — one per member position — over
/// dense `u32` keys, sharing one key-major bitmap and one chunk pool. A
/// [`crate::Node`] keeps two with one layout: the node itself at position
/// 0 (the block bodies it holds, the transactions it has seen) and its
/// peers, in connection order, from position 1.
///
/// Behaviorally, `(insert, contains)` on position `p` is identical to an
/// independent FIFO-bounded set per position (same results, same
/// per-position FIFO eviction; pinned by the `peer_family_*` property
/// tests below against one reference model per position). The difference
/// is layout: bit `p` of row `key` lives next to every other position's
/// bit for the same key, so a delivery's seen-check and the flood of the
/// fresh key across all of the node's links touch one or two cache lines
/// instead of one probe table per peer, and the queues that remember
/// insertion order are chains of small chunks in one allocation instead
/// of one ring buffer per peer (see the module doc).
///
/// Memory is bounded: rows live in `PAGE_ROWS`-row pages that are
/// allocated on first touch and freed when eviction clears their last
/// bit, so steady state holds only the sliding window of recent keys
/// (`≈ cap` rows), not the whole campaign's key space; a queue of `n`
/// keys holds at most `n / CHUNK_KEYS + 2` chunks, and drained chunks go
/// back to the pool's free list.
#[derive(Debug, Clone, Default)]
pub struct PeerKnownSet {
    bits: Bitmap,
    fifo: FifoPool,
}

impl PeerKnownSet {
    /// Creates an empty family with no peers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the next peer position with its capacity bound and
    /// returns that position. Positions are dense (0, 1, 2, …), matching
    /// the node's connection-order peer slab.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` or exceeds `u32::MAX`, or if a peer is added
    /// after keys were inserted and the row width would have to grow
    /// (peers are wired before gossip starts, so this cannot happen in a
    /// simulation).
    pub fn add_peer(&mut self, cap: usize) -> usize {
        assert!(cap > 0, "known-set capacity must be positive");
        let pos = self.fifo.cursors.len();
        self.fifo.cursors.push(Cursor {
            head: NIL,
            tail: NIL,
            len: 0,
            cap: u32::try_from(cap).expect("known-set capacity fits u32"),
            head_off: 0,
            tail_off: 0,
        });
        let needed = pos / 64 + 1;
        if needed > self.bits.words {
            assert!(
                self.bits.pages.iter().all(Option::is_none),
                "cannot widen rows after keys were inserted"
            );
            self.bits.words = needed;
        }
        pos
    }

    /// Number of registered peers.
    pub fn peers(&self) -> usize {
        self.fifo.cursors.len()
    }

    /// Number of keys currently tracked for peer `pos`.
    pub fn len_of(&self, pos: usize) -> usize {
        self.fifo.cursors[pos].len as usize
    }

    /// True if peer `pos` is known to have `key`.
    #[inline]
    pub fn contains(&self, pos: usize, key: u32) -> bool {
        self.bits.test(pos, key)
    }

    /// Inserts `key` for peer `pos`; returns `true` if it was new for
    /// that peer. Evicts the peer's oldest key when its bound is full.
    #[inline]
    pub fn insert(&mut self, pos: usize, key: u32) -> bool {
        if !self.bits.set(pos, key) {
            return false;
        }
        if let Some(old) = self.fifo.push(pos, key) {
            self.bits.clear(pos, old);
        }
        true
    }

    /// Unregisters peer position `pos`, forgetting its keys and
    /// compacting the slab by moving the *last* position into `pos`
    /// (swap-remove, mirroring `Vec::swap_remove` so callers can keep
    /// their own peer slabs in lockstep).
    ///
    /// The row width (`words`) never shrinks: a position re-registered
    /// later lands at an index at or below the historical maximum, so
    /// runtime rejoin/heal paths can never trip the widen-after-insert
    /// assertion in [`PeerKnownSet::add_peer`].
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a registered position.
    pub fn remove_peer(&mut self, pos: usize) {
        let last = self.fifo.cursors.len() - 1;
        for key in self.fifo.keys(pos) {
            self.bits.clear(pos, key);
        }
        if pos != last {
            // Relocate the last position's bits down to `pos`, key by
            // key. Set before clear: both bits share the key's page, so
            // this keeps its live count above zero throughout and the
            // page is never freed mid-move.
            for key in self.fifo.keys(last) {
                let fresh = self.bits.set(pos, key);
                debug_assert!(fresh, "relocation target bit is clear");
                self.bits.clear(last, key);
            }
        }
        self.fifo.swap_remove(pos);
    }

    /// Forgets every key and every peer, keeping the chunk pool's
    /// allocation for the next campaign. A cleared family behaves exactly
    /// like a new one; peers must be re-registered. (Bitmap pages are
    /// dropped: they track the sliding eviction window and are
    /// reallocated lazily, a handful of page-sized allocations per
    /// campaign.)
    pub fn clear(&mut self) {
        self.bits.pages.clear();
        self.bits.words = 0;
        self.fifo.chunks.clear();
        self.fifo.free = NIL;
        self.fifo.cursors.clear();
    }

    /// Bytes currently held by live bitmap pages (diagnostics).
    pub fn page_bytes(&self) -> usize {
        self.bits
            .pages
            .iter()
            .flatten()
            .map(|p| p.bits.len() * std::mem::size_of::<u64>())
            .sum()
    }

    /// All heap bytes held by the family: live pages, the page directory,
    /// the chunk pool and the per-position cursors (diagnostics).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.page_bytes()
            + self.bits.pages.capacity() * size_of::<Option<Page>>()
            + self.fifo.chunks.capacity() * size_of::<Chunk>()
            + self.fifo.cursors.capacity() * size_of::<Cursor>()
    }
}

#[cfg(test)]
mod tests {
    use ethmeter_types::FxHashSet;
    use std::collections::VecDeque;
    use std::hash::Hash;

    /// The reference model [`super::PeerKnownSet`] is tested against, one
    /// per position: a FIFO-bounded set over a hash set and an order queue,
    /// too plain to be wrong.
    #[derive(Debug, Clone)]
    pub(crate) struct KnownSet<T> {
        set: FxHashSet<T>,
        order: VecDeque<T>,
        cap: usize,
    }

    impl<T: Copy + Eq + Hash> KnownSet<T> {
        /// Creates a set bounded to `cap` entries.
        ///
        /// # Panics
        ///
        /// Panics if `cap == 0`.
        pub fn with_capacity(cap: usize) -> Self {
            assert!(cap > 0, "known-set capacity must be positive");
            KnownSet {
                set: FxHashSet::default(),
                order: VecDeque::new(),
                cap,
            }
        }

        /// True if `item` is currently tracked.
        pub fn contains(&self, item: T) -> bool {
            self.set.contains(&item)
        }

        /// Inserts `item`; returns `true` if it was new. Evicts the oldest
        /// entry when full.
        pub fn insert(&mut self, item: T) -> bool {
            if !self.set.insert(item) {
                return false;
            }
            self.order.push_back(item);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
            true
        }

        /// Current number of tracked items.
        pub fn len(&self) -> usize {
            self.set.len()
        }
    }

    #[test]
    fn insert_and_contains() {
        let mut s = KnownSet::with_capacity(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(1));
        assert!(!s.contains(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut s = KnownSet::with_capacity(3);
        for i in 0..3 {
            s.insert(i);
        }
        assert_eq!(s.len(), 3);
        s.insert(3); // evicts 0
        assert_eq!(s.len(), 3);
        assert!(!s.contains(0));
        assert!(s.contains(1) && s.contains(2) && s.contains(3));
        // Re-inserting the evicted item works (and evicts 1).
        assert!(s.insert(0));
        assert!(!s.contains(1));
    }

    #[test]
    fn duplicate_insert_does_not_evict() {
        let mut s = KnownSet::with_capacity(2);
        s.insert(1);
        s.insert(2);
        s.insert(2); // no-op
        assert!(s.contains(1), "duplicate insert must not evict");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _: KnownSet<u32> = KnownSet::with_capacity(0);
    }
}

#[cfg(test)]
impl PeerKnownSet {
    /// Checks the pool's structural invariants: every chunk is reachable
    /// exactly once — from one cursor's chain or from the free list —
    /// each chain is as long as its cursor says, and each cursor's `len`
    /// is the number of bits its position has set in the bitmap.
    pub(crate) fn audit(&self) {
        let fifo = &self.fifo;
        let mut owner = vec![None; fifo.chunks.len()];
        let mut claim = |chunk: u32, by: usize| {
            let slot = &mut owner[chunk as usize];
            assert_eq!(*slot, None, "chunk {chunk} reached twice (again by {by})");
            *slot = Some(by);
        };
        let mut set_bits = vec![0usize; fifo.cursors.len()];
        for page in self.bits.pages.iter().flatten() {
            let mut live = 0;
            for (at, &word) in page.bits.iter().enumerate() {
                live += word.count_ones();
                for bit in (0..64).filter(|b| word >> b & 1 == 1) {
                    let pos = (at % self.bits.words) * 64 + bit;
                    assert!(pos < set_bits.len(), "bit of unregistered position {pos}");
                    set_bits[pos] += 1;
                }
            }
            assert_eq!(page.live, live, "page live count");
            assert!(live > 0, "empty pages are freed");
        }
        for (pos, cur) in fifo.cursors.iter().enumerate() {
            assert!(cur.len <= cur.cap, "position {pos} over its bound");
            assert_eq!(
                cur.len as usize, set_bits[pos],
                "position {pos} len vs bitmap"
            );
            if cur.len == 0 {
                assert_eq!(
                    (cur.head, cur.tail),
                    (NIL, NIL),
                    "empty queue owns no chunk"
                );
                continue;
            }
            assert!((cur.head_off as usize) < CHUNK_KEYS, "drained head kept");
            let slots = cur.head_off as usize + cur.len as usize;
            let mut chunk = cur.head;
            for _ in 1..slots.div_ceil(CHUNK_KEYS) {
                claim(chunk, pos);
                chunk = fifo.chunks[chunk as usize].next;
            }
            claim(chunk, pos);
            assert_eq!(chunk, cur.tail, "position {pos} chain ends at its tail");
            assert_eq!(
                cur.tail_off as usize,
                (slots - 1) % CHUNK_KEYS + 1,
                "position {pos} tail offset"
            );
            for key in fifo.keys(pos) {
                assert!(self.bits.test(pos, key), "queued key {key} has its bit");
            }
        }
        let mut chunk = fifo.free;
        while chunk != NIL {
            claim(chunk, usize::MAX);
            chunk = fifo.chunks[chunk as usize].next;
        }
        assert!(owner.iter().all(Option::is_some), "leaked chunk: {owner:?}");
    }
}

#[cfg(test)]
mod peer_family_tests {
    use super::*;

    #[test]
    fn per_peer_independence_and_eviction() {
        let mut fam = PeerKnownSet::new();
        assert_eq!(fam.add_peer(2), 0);
        assert_eq!(fam.add_peer(3), 1);
        assert_eq!(fam.peers(), 2);
        // Peer 0 fills and evicts; peer 1 is untouched by it.
        assert!(fam.insert(0, 10));
        assert!(!fam.insert(0, 10), "duplicate per peer");
        assert!(fam.insert(0, 11));
        assert!(fam.insert(0, 12)); // evicts 10 for peer 0
        assert!(!fam.contains(0, 10));
        assert!(fam.contains(0, 11) && fam.contains(0, 12));
        assert!(!fam.contains(1, 11), "peers are independent");
        assert!(fam.insert(1, 11));
        assert!(fam.contains(1, 11));
        assert_eq!(fam.len_of(0), 2);
        assert_eq!(fam.len_of(1), 1);
    }

    #[test]
    fn pages_free_as_the_window_slides() {
        let mut fam = PeerKnownSet::new();
        fam.add_peer(4);
        // Walk keys across several pages with a tiny cap: old pages must
        // be released once eviction clears their last bit.
        for key in 0..(PAGE_ROWS as u32 * 3) {
            fam.insert(0, key);
        }
        assert_eq!(fam.len_of(0), 4);
        assert!(
            fam.page_bytes() <= 2 * PAGE_ROWS * std::mem::size_of::<u64>(),
            "stale pages must be freed, held {} bytes",
            fam.page_bytes()
        );
        // Keys far behind the window read as absent.
        assert!(!fam.contains(0, 0));
    }

    #[test]
    fn queues_recycle_their_chunks() {
        // Two positions whose bounds straddle the chunk size slide over
        // many keys: the pool must stop growing once both windows are
        // full, because every drained head chunk is reused as a tail.
        let mut fam = PeerKnownSet::new();
        fam.add_peer(CHUNK_KEYS - 1);
        fam.add_peer(2 * CHUNK_KEYS + 1);
        for key in 0..(20 * CHUNK_KEYS as u32) {
            fam.insert(0, key);
            fam.insert(1, key);
            fam.audit();
        }
        assert_eq!(fam.len_of(0), CHUNK_KEYS - 1);
        assert_eq!(fam.len_of(1), 2 * CHUNK_KEYS + 1);
        // ≤ n / CHUNK_KEYS + 2 chunks per queue: 2 + 4.
        assert!(
            fam.fifo.chunks.len() <= 6,
            "{} chunks",
            fam.fifo.chunks.len()
        );
        // FIFO order is the insertion order of the surviving window.
        let newest = 20 * CHUNK_KEYS as u32;
        let window: Vec<u32> = fam.fifo.keys(1).collect();
        let expected: Vec<u32> = (newest - 2 * CHUNK_KEYS as u32 - 1..newest).collect();
        assert_eq!(window, expected);
    }

    #[test]
    fn clear_keeps_the_pool_allocation() {
        let mut fam = PeerKnownSet::new();
        for _ in 0..4 {
            fam.add_peer(64);
        }
        for key in 0..64 {
            for pos in 0..4 {
                fam.insert(pos, key);
            }
        }
        let held = fam.fifo.chunks.capacity();
        assert!(held > 0);
        fam.clear();
        fam.audit();
        assert_eq!(fam.fifo.chunks.capacity(), held);
        assert_eq!(fam.page_bytes(), 0);
    }

    #[test]
    fn clear_requires_reregistration_and_forgets_everything() {
        let mut fam = PeerKnownSet::new();
        fam.add_peer(8);
        fam.insert(0, 5);
        fam.clear();
        assert_eq!(fam.peers(), 0);
        assert_eq!(fam.add_peer(8), 0);
        assert!(!fam.contains(0, 5), "cleared families forget");
        assert!(fam.insert(0, 5));
    }

    #[test]
    fn remove_peer_swap_removes_and_keeps_survivors_intact() {
        let mut fam = PeerKnownSet::new();
        for _ in 0..3 {
            fam.add_peer(4);
        }
        fam.insert(0, 1);
        fam.insert(1, 2);
        fam.insert(1, 3);
        fam.insert(2, 4);
        // Removing the middle position moves position 2 down into it.
        fam.remove_peer(1);
        assert_eq!(fam.peers(), 2);
        assert!(fam.contains(0, 1), "untouched peer keeps its keys");
        assert!(fam.contains(1, 4), "last peer's keys moved to the hole");
        assert!(
            !fam.contains(1, 2) && !fam.contains(1, 3),
            "removed peer forgotten"
        );
        assert_eq!(fam.len_of(1), 1);
        // Re-registering lands at the vacated dense position.
        assert_eq!(fam.add_peer(4), 2);
        assert!(!fam.contains(2, 4), "re-registered position starts empty");
        assert!(fam.insert(2, 4));
    }

    #[test]
    fn remove_peer_never_narrows_rows() {
        let mut fam = PeerKnownSet::new();
        for _ in 0..70 {
            fam.add_peer(4);
        }
        fam.insert(69, 9); // second u64 word of row 9
        for _ in 0..70 {
            fam.remove_peer(0);
        }
        assert_eq!(fam.peers(), 0);
        // Re-adding with live pages must not panic: `words` was kept at
        // its historical width by `remove_peer`.
        let mut fam2 = PeerKnownSet::new();
        for _ in 0..70 {
            fam2.add_peer(4);
        }
        fam2.insert(69, 9);
        fam2.remove_peer(69);
        assert_eq!(fam2.add_peer(4), 69);
        assert!(!fam2.contains(69, 9));
        assert!(fam2.insert(69, 9));
    }

    #[test]
    fn wide_positions_use_multiple_words() {
        let mut fam = PeerKnownSet::new();
        for _ in 0..130 {
            fam.add_peer(16);
        }
        // Positions on different u64 words of the same key row.
        assert!(fam.insert(0, 7));
        assert!(fam.insert(64, 7));
        assert!(fam.insert(129, 7));
        assert!(fam.contains(0, 7) && fam.contains(64, 7) && fam.contains(129, 7));
        assert!(!fam.contains(1, 7));
    }
}

#[cfg(test)]
mod peer_family_proptests {
    use super::tests::KnownSet;
    use super::*;
    use proptest::prelude::*;

    /// Bounds on either side of every chunk-boundary case of the pool,
    /// next to the tiny ones that maximize evictions and page frees.
    const CAPS: [usize; 8] = [
        1,
        2,
        5,
        CHUNK_KEYS - 1,
        CHUNK_KEYS,
        CHUNK_KEYS + 1,
        2 * CHUNK_KEYS,
        2 * CHUNK_KEYS + 1,
    ];

    fn assert_membership_agrees(
        fam: &PeerKnownSet,
        models: &[KnownSet<u32>],
        universe: u32,
        step: usize,
    ) {
        prop_assert_eq!(fam.peers(), models.len());
        for (pos, model) in models.iter().enumerate() {
            prop_assert_eq!(fam.len_of(pos), model.len());
            for probe in (0..universe).step_by(step) {
                prop_assert_eq!(
                    fam.contains(pos, probe),
                    model.contains(probe),
                    "probe ({}, {})",
                    pos,
                    probe
                );
            }
        }
    }

    proptest! {
        /// The family must be observationally identical to one
        /// independent [`KnownSet`] per peer — same insert results, same
        /// membership, same FIFO eviction — under arbitrary interleaved
        /// `(peer, key)` streams. Caps come from [`CAPS`]; keys span
        /// multiple bitmap pages.
        #[test]
        fn peer_family_equivalent_to_independent_knownsets(
            caps in proptest::collection::vec(0usize..CAPS.len(), 1..6),
            ops in proptest::collection::vec((0usize..6, 0u32..2_600), 0..384),
        ) {
            let mut fam = PeerKnownSet::new();
            let mut models: Vec<KnownSet<u32>> = Vec::new();
            for &cap in &caps {
                fam.add_peer(CAPS[cap]);
                models.push(KnownSet::with_capacity(CAPS[cap]));
            }
            for &(pos, key) in &ops {
                let pos = pos % caps.len();
                prop_assert_eq!(
                    fam.insert(pos, key),
                    models[pos].insert(key),
                    "insert ({}, {})",
                    pos,
                    key
                );
                prop_assert_eq!(fam.len_of(pos), models[pos].len());
            }
            fam.audit();
            // Full membership sweep at the end, across page boundaries.
            assert_membership_agrees(&fam, &models, 2_600, 13);
        }

        /// Under interleaved inserts, `remove_peer`, re-registration and
        /// `clear`-and-reuse, the family stays observationally identical
        /// to a `Vec` of independent [`KnownSet`]s maintained with
        /// `Vec::swap_remove` — the exact lockstep contract the node's
        /// peer slabs rely on for runtime churn — and the chunk pool
        /// neither leaks nor double-links a chunk at any step.
        #[test]
        fn peer_family_equivalent_under_removal(
            ops in proptest::collection::vec((0usize..8, 0u32..2_200, 0u8..24), 1..256),
        ) {
            let mut fam = PeerKnownSet::new();
            let mut models: Vec<KnownSet<u32>> = Vec::new();
            for &(pos, key, kind) in &ops {
                if (kind == 0 && models.len() < 8) || models.is_empty() {
                    // Register a peer (cap from the key operand). Bounded
                    // to 8 concurrent peers: widening the row word-width
                    // with live pages is outside the API contract.
                    let cap = CAPS[key as usize % CAPS.len()];
                    prop_assert_eq!(fam.add_peer(cap), models.len());
                    models.push(KnownSet::with_capacity(cap));
                } else if kind == 1 {
                    let pos = pos % models.len();
                    fam.remove_peer(pos);
                    models.swap_remove(pos);
                } else if kind == 2 && key % 8 == 0 {
                    fam.clear();
                    models.clear();
                } else {
                    // Runs of consecutive keys fill and cross chunks far
                    // more often than independent draws would.
                    let pos = pos % models.len();
                    for key in key..key + u32::from(kind) {
                        prop_assert_eq!(fam.insert(pos, key), models[pos].insert(key));
                    }
                }
                fam.audit();
                prop_assert_eq!(fam.peers(), models.len());
            }
            assert_membership_agrees(&fam, &models, 2_300, 11);
        }

        /// `clear` + re-registration behaves exactly like a fresh family
        /// (the sweep-worker reuse path).
        #[test]
        fn peer_family_reuse_matches_fresh(
            cap in 0usize..CAPS.len(),
            first in proptest::collection::vec((0usize..4, 0u32..2_000), 0..128),
            second in proptest::collection::vec((0usize..4, 0u32..2_000), 0..128),
        ) {
            let cap = CAPS[cap];
            let mut reused = PeerKnownSet::new();
            for _ in 0..4 {
                reused.add_peer(cap);
            }
            for &(pos, key) in &first {
                reused.insert(pos, key);
            }
            reused.clear();
            let mut fresh = PeerKnownSet::new();
            for _ in 0..4 {
                reused.add_peer(cap);
                fresh.add_peer(cap);
            }
            for &(pos, key) in &second {
                prop_assert_eq!(reused.insert(pos, key), fresh.insert(pos, key));
            }
            reused.audit();
            for pos in 0..4 {
                prop_assert_eq!(reused.len_of(pos), fresh.len_of(pos));
                for probe in (0..2_000).step_by(7) {
                    prop_assert_eq!(reused.contains(pos, probe), fresh.contains(pos, probe));
                }
            }
        }
    }
}
