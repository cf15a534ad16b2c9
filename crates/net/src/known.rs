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
//! the event loop. Instead every queue of a family is a chain of 32-byte
//! chunks drawn from one `Vec`: a position is a 20-byte cursor (head and
//! tail chunk, the key offsets into them, the pushes left before one
//! evicts, and the tail's base key and kind), a push writes the cursor and
//! the tail chunk, a drained head chunk goes onto a free list threaded
//! through the chunks' link words and is the next tail some queue takes.
//! The first key flooded to a node's peers takes one allocation sized for
//! a chunk each; after that the pool doubles, and `clear` keeps it for
//! the next campaign.
//!
//! A chunk stores its first key whole, as its base, and every later key
//! as a signed offset from that base: 24 `i8` offsets, 12 `i16` offsets
//! or 6 whole `u32` ones, the kind named by two bits of its link word.
//! Keys queued at one position are interned `TxIdx`/`BlockIdx` values in
//! nearly the order they were created, so most chunks stay `i8` and hold
//! 25 keys where whole keys fit 7: the pool that was two thirds of a
//! `Preset::Small` campaign's resident memory shrinks to a third of its
//! size. Offsets are from the base, not from the previous key, so a pop
//! decodes its key in O(1). A push that fits decides from the cursor's
//! copy of the tail's base and kind and then only stores into the chunk:
//! on a cold 10k-node network, where that chunk's cache line is seldom
//! resident, nothing waits for it, as nothing did when keys were stored
//! whole. When the tail chunk meets a key it cannot encode, it re-encodes
//! in place at the next wider kind that holds its keys and the new one,
//! else it closes (its unused slots hold an end mark). Any stream fills a
//! 7-key chunk, so every closed chunk holds at least 7 keys: no stream
//! costs more chunks per key than whole keys would.

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

/// Body bytes of a chunk: after its link word and base key, 24 bytes cut
/// into equal offset slots by the chunk's [`Kind`]. With the link word a
/// chunk is 8 words, half a cache line. (A whole line measured the same
/// on saturated queues and worse, in both time and resident memory, on a
/// cold 10k-node network, where most queues hold a few dozen keys.)
const BODY_BYTES: usize = 24;

/// Low bits of a link word: the next chunk's index. The top two bits hold
/// the chunk's own [`Kind`].
const LINK_MASK: u32 = (1 << 30) - 1;

/// "No chunk" in a link word, a cursor or the free-list head.
const NIL: u32 = LINK_MASK;

/// How a chunk stores its keys after the first: as offsets from that
/// first key (the chunk's base) in slots of one width. A chunk starts as
/// [`Kind::I8`] and only ever widens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
enum Kind {
    /// 24 `i8` offsets: 25 keys.
    I8,
    /// 12 `i16` offsets: 13 keys.
    I16,
    /// 6 whole `u32` offsets: 7 keys, which every key stream can fill.
    Raw,
}

impl Kind {
    /// The kind a link word's top two bits name.
    #[inline]
    fn of(link: u32) -> Kind {
        match link >> 30 {
            0 => Kind::I8,
            1 => Kind::I16,
            _ => Kind::Raw,
        }
    }

    /// The two link-word bits that name this kind.
    fn tag(self) -> u32 {
        (self as u32) << 30
    }

    /// Bytes per offset slot.
    #[inline]
    fn width(self) -> usize {
        1 << self as usize
    }

    /// Keys a chunk of this kind holds: its base plus one per slot
    /// (`1 + BODY_BYTES / width`, spelled out so that push and pop
    /// divide by nothing).
    #[inline]
    fn keys(self) -> usize {
        match self {
            Kind::I8 => 25,
            Kind::I16 => 13,
            Kind::Raw => 7,
        }
    }

    /// Whether a slot of this kind encodes offset `d`. The narrow kinds
    /// keep their most negative value as the end mark of a closed chunk
    /// (a raw chunk closes only when full).
    #[inline]
    fn fits(self, d: u32) -> bool {
        match self {
            Kind::I8 => (d as i32).unsigned_abs() <= i8::MAX as u32,
            Kind::I16 => (d as i32).unsigned_abs() <= i16::MAX as u32,
            Kind::Raw => true,
        }
    }
}

/// One fixed-size piece of a position's insertion-order queue (or, when
/// free, of the free list). Key 0 is `base`; key `i > 0` is `base` plus
/// the signed little-endian offset in body slot `i - 1`, so any key
/// decodes in O(1). Slots past the last key hold the kind's end mark,
/// which is how a chunk closed before it filled shows where its keys
/// stop.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Chunk {
    /// The next chunk of whichever chain holds this one (low 30 bits) and
    /// this chunk's [`Kind`] (top two bits).
    link: u32,
    base: u32,
    body: [u8; BODY_BYTES],
}

impl Chunk {
    /// An [`Kind::I8`] chunk holding `key` alone.
    fn new(key: u32) -> Chunk {
        Chunk {
            link: Kind::I8.tag() | NIL,
            base: key,
            body: [i8::MIN as u8; BODY_BYTES],
        }
    }

    #[inline]
    fn kind(&self) -> Kind {
        Kind::of(self.link)
    }

    #[inline]
    fn next(&self) -> u32 {
        self.link & LINK_MASK
    }

    #[inline]
    fn set_next(&mut self, next: u32) {
        self.link = self.link & !LINK_MASK | next;
    }

    /// Slot `i - 1` at `kind`'s width, sign-extended to 32 bits.
    #[inline]
    fn offset(&self, kind: Kind, i: usize) -> u32 {
        let at = (i - 1) * kind.width();
        let b = &self.body;
        match kind {
            Kind::I8 => b[at] as i8 as u32,
            Kind::I16 => i16::from_le_bytes([b[at], b[at + 1]]) as u32,
            Kind::Raw => u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]),
        }
    }

    /// Writes offset `d`, which `kind` fits, into slot `i - 1`. Only
    /// stores: a push decides everything from its cursor, so the tail
    /// chunk's cache line is never waited for.
    #[inline]
    fn set(&mut self, kind: Kind, i: usize, d: u32) {
        let at = (i - 1) * kind.width();
        match kind {
            Kind::I8 => self.body[at] = d as u8,
            Kind::I16 => self.body[at..at + 2].copy_from_slice(&(d as u16).to_le_bytes()),
            Kind::Raw => self.body[at..at + 4].copy_from_slice(&d.to_le_bytes()),
        }
    }

    /// Key `i` (which the chunk holds).
    #[inline]
    fn get(&self, i: usize) -> u32 {
        if i == 0 {
            return self.base;
        }
        self.base.wrapping_add(self.offset(self.kind(), i))
    }

    /// Whether the chunk holds a key `i`: exact for a closed chunk, and
    /// `true` below the fill of a chain's open tail.
    #[inline]
    fn holds(&self, i: usize) -> bool {
        let kind = self.kind();
        i < kind.keys() && (i == 0 || kind.fits(self.offset(kind, i)))
    }

    /// Re-encodes keys `1..n` at the wider kind `to`, end-marking the
    /// slots after them with the most negative offset.
    fn widen(&mut self, n: usize, to: Kind) {
        let from = self.kind();
        let mut wide = Chunk {
            link: to.tag() | self.next(),
            base: self.base,
            body: [0; BODY_BYTES],
        };
        for i in 1..to.keys() {
            let end = 1 << (8 * to.width() - 1);
            wide.set(to, i, if i < n { self.offset(from, i) } else { end });
        }
        *self = wide;
    }
}

/// One position's queue: a chain of chunks `head → … → tail` holding keys
/// from key `head_off` of the head chunk to key `tail_off` (one past the
/// newest key) of the tail chunk. `room` counts the pushes left before
/// one evicts. The tail's base key and kind are kept here too, so a push
/// that fits decides from the cursor alone. An empty queue owns no chunk.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    head: u32,
    tail: u32,
    base: u32,
    room: u32,
    head_off: u8,
    tail_off: u8,
    kind: Kind,
}

/// The family's eviction-order half: every position's FIFO queue, cut
/// into [`Chunk`]s that all live in one `Vec`.
#[derive(Debug, Clone)]
struct FifoPool {
    chunks: Vec<Chunk>,
    /// Head of the free list (threaded through the chunks' link words).
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
        let (n, d) = (cur.tail_off as usize, key.wrapping_sub(cur.base));
        if cur.tail != NIL && n < cur.kind.keys() && cur.kind.fits(d) {
            self.chunks[cur.tail as usize].set(cur.kind, n, d);
        } else if !self.widen(pos, d) {
            self.grow(pos, key);
        }
        let cur = &mut self.cursors[pos];
        cur.tail_off += 1;
        if cur.room > 0 {
            cur.room -= 1;
            return None;
        }
        // The queue holds cap + 1 ≥ 2 keys, so it stays non-empty: the
        // head chunk keeps a key unless it is closed, and a closed chunk
        // always has a successor.
        let head = &self.chunks[cur.head as usize];
        let old = head.get(cur.head_off as usize);
        cur.head_off += 1;
        if !head.holds(cur.head_off as usize) {
            let drained = cur.head;
            cur.head = head.next();
            cur.head_off = 0;
            self.chunks[drained as usize].set_next(self.free);
            self.free = drained;
        }
        Some(old)
    }

    /// Re-encodes `pos`'s tail chunk in place at the first wider kind
    /// that holds its keys and one more at offset `d`, and appends that
    /// key; `false` if there is no such kind (or no tail), so the tail
    /// closes. Every stream can fill a [`Kind::Raw`] chunk, so a chunk
    /// closes holding at least that kind's 7 keys.
    #[cold]
    fn widen(&mut self, pos: usize, d: u32) -> bool {
        let cur = &mut self.cursors[pos];
        if cur.tail == NIL {
            return false;
        }
        let n = cur.tail_off as usize;
        let Some(to) = [Kind::I16, Kind::Raw]
            .into_iter()
            .find(|&to| to > cur.kind && n < to.keys() && to.fits(d))
        else {
            return false;
        };
        cur.kind = to;
        let tail = &mut self.chunks[cur.tail as usize];
        tail.widen(n, to);
        tail.set(to, n, d);
        true
    }

    /// Links a tail chunk holding `key` — the free list's head, else a
    /// new one — onto `pos`'s chain.
    fn grow(&mut self, pos: usize, key: u32) {
        let at = if self.free != NIL {
            let at = self.free;
            self.free = self.chunks[at as usize].next();
            self.chunks[at as usize] = Chunk::new(key);
            at
        } else {
            if self.chunks.is_empty() {
                // A fresh key is flooded to every position at once: size
                // the first allocation for one chunk each.
                self.chunks.reserve(self.cursors.len());
            }
            assert!(self.chunks.len() < NIL as usize, "chunk links are 30 bits");
            self.chunks.push(Chunk::new(key));
            (self.chunks.len() - 1) as u32
        };
        let cur = &mut self.cursors[pos];
        if cur.tail == NIL {
            cur.head = at;
            cur.head_off = 0;
        } else {
            self.chunks[cur.tail as usize].set_next(at);
        }
        cur.tail = at;
        cur.tail_off = 0;
        cur.base = key;
        cur.kind = Kind::I8;
    }

    /// `pos`'s keys, oldest first: each closed chunk's up to its end mark,
    /// then the tail's up to `tail_off`.
    fn keys(&self, pos: usize) -> impl Iterator<Item = u32> + '_ {
        let cur = self.cursors[pos];
        let (mut chunk, mut off) = (cur.head, cur.head_off as usize);
        std::iter::from_fn(move || {
            if chunk != cur.tail && !self.chunks[chunk as usize].holds(off) {
                chunk = self.chunks[chunk as usize].next();
                off = 0;
            }
            if chunk == NIL || (chunk == cur.tail && off == cur.tail_off as usize) {
                return None;
            }
            off += 1;
            Some(self.chunks[chunk as usize].get(off - 1))
        })
    }

    /// Swap-removes position `pos`: its whole chain goes onto the free
    /// list in one splice and the last position's cursor moves into the
    /// hole (its chunks stay where they are).
    fn swap_remove(&mut self, pos: usize) {
        let cur = self.cursors.swap_remove(pos);
        if cur.tail != NIL {
            self.chunks[cur.tail as usize].set_next(self.free);
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
/// keys holds at most `n / 7 + 2` chunks (`n / 25 + 2` while keys arrive
/// within 127 of their chunk's first), and drained chunks go back to the
/// pool's free list.
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
        let cap = u32::try_from(cap).expect("known-set capacity fits u32");
        self.fifo.cursors.push(Cursor {
            head: NIL,
            tail: NIL,
            base: 0,
            room: cap,
            head_off: 0,
            tail_off: 0,
            kind: Kind::I8,
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
    ///
    /// Walks the position's queue (diagnostics and tests): the push path
    /// counts only the room left under the bound.
    // detlint::allow(unread-pub, reason = "diagnostic: core world::tests::known_tx_queues_stay_near_a_byte_per_key divides chunk_bytes by it")
    pub fn len_of(&self, pos: usize) -> usize {
        self.fifo.keys(pos).count()
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

    /// Bytes of every chunk the pool has handed out, free-listed ones
    /// included (diagnostics): what the eviction queues cost, next to the
    /// keys they hold ([`PeerKnownSet::len_of`] summed over the positions).
    // detlint::allow(unread-pub, reason = "diagnostic: core world::tests::known_tx_queues_stay_near_a_byte_per_key bounds bytes per queued key with it")
    pub fn chunk_bytes(&self) -> usize {
        self.fifo.chunks.len() * std::mem::size_of::<Chunk>()
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
    /// each chain holds as many keys as its cursor says, and each cursor's
    /// `len` is the number of bits its position has set in the bitmap.
    /// Every chained chunk has a known kind tag, its keys are followed
    /// only by end marks, and every chunk but a chain's tail holds at
    /// least 7 keys, so a queue of `n` keys spans at most `n / 7 + 2`.
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
            let len = set_bits[pos];
            if len == 0 {
                assert_eq!(
                    (cur.head, cur.tail),
                    (NIL, NIL),
                    "empty queue owns no chunk"
                );
                continue;
            }
            // Walk the chain, counting the keys each chunk holds: the
            // tail's run to `tail_off`, a closed chunk's to its end mark.
            let (mut chunk, mut held, mut chunks) = (cur.head, 0, 0);
            loop {
                claim(chunk, pos);
                chunks += 1;
                let c = &fifo.chunks[chunk as usize];
                assert_ne!(c.link >> 30, 3, "position {pos}: unknown kind tag");
                let kind = c.kind();
                let fill = if chunk == cur.tail {
                    cur.tail_off as usize
                } else {
                    (0..kind.keys()).take_while(|&i| c.holds(i)).count()
                };
                assert!(
                    (1..=kind.keys()).contains(&fill),
                    "position {pos}: {fill} keys in a {kind:?} chunk"
                );
                assert!(
                    (0..fill).all(|i| c.holds(i)),
                    "position {pos}: end mark among its {fill} keys"
                );
                if kind != Kind::Raw {
                    assert!(
                        (fill..kind.keys()).all(|i| !c.holds(i)),
                        "position {pos}: slots past its {fill} keys not end-marked"
                    );
                }
                if chunk == cur.head {
                    assert!((cur.head_off as usize) < fill, "drained head kept");
                }
                held += fill;
                if chunk == cur.tail {
                    assert_eq!(
                        (cur.kind, cur.base),
                        (kind, c.base),
                        "position {pos}: cursor's copy of its tail's kind and base"
                    );
                    break;
                }
                assert!(
                    fill >= Kind::Raw.keys(),
                    "position {pos}: a closed {kind:?} chunk holds only {fill} keys"
                );
                chunk = c.next();
            }
            assert_eq!(
                held - cur.head_off as usize,
                len,
                "position {pos}: chain keys vs bitmap bits"
            );
            assert!(
                chunks <= len / Kind::Raw.keys() + 2,
                "position {pos}: {chunks} chunks for {len} keys"
            );
            for key in fifo.keys(pos) {
                assert!(self.bits.test(pos, key), "queued key {key} has its bit");
            }
        }
        let mut chunk = fifo.free;
        while chunk != NIL {
            claim(chunk, usize::MAX);
            chunk = fifo.chunks[chunk as usize].next();
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
    fn chunk_and_cursor_keep_their_sizes() {
        // Half a cache line per chunk, whatever its kind, and the cursor
        // the raw 7-key layout had.
        assert_eq!(std::mem::size_of::<Chunk>(), 32);
        assert_eq!(std::mem::size_of::<Cursor>(), 20);
        for kind in [Kind::I8, Kind::I16, Kind::Raw] {
            assert_eq!(kind.keys(), 1 + BODY_BYTES / kind.width());
            assert_eq!(Kind::of(kind.tag()), kind);
        }
    }

    #[test]
    fn queues_recycle_their_chunks() {
        // Two positions whose bounds straddle the chunk size slide over
        // many consecutive keys: the pool must stop growing once both
        // windows are full, because every drained head chunk is reused as
        // a tail. Consecutive keys fill whole `i8` chunks.
        let keys = Kind::I8.keys();
        let mut fam = PeerKnownSet::new();
        fam.add_peer(keys - 1);
        fam.add_peer(2 * keys + 1);
        for key in 0..(20 * keys as u32) {
            fam.insert(0, key);
            fam.insert(1, key);
            fam.audit();
        }
        assert_eq!(fam.len_of(0), keys - 1);
        assert_eq!(fam.len_of(1), 2 * keys + 1);
        // ≤ n / 25 + 2 whole `i8` chunks per queue: 2 + 4.
        assert!(
            fam.fifo.chunks.len() <= 6,
            "{} chunks",
            fam.fifo.chunks.len()
        );
        // FIFO order is the insertion order of the surviving window.
        let newest = 20 * keys as u32;
        let window: Vec<u32> = fam.fifo.keys(1).collect();
        let expected: Vec<u32> = (newest - 2 * keys as u32 - 1..newest).collect();
        assert_eq!(window, expected);
    }

    /// The kind of `pos`'s tail chunk and the keys it holds.
    fn tail(fam: &PeerKnownSet, pos: usize) -> (Kind, u8) {
        let cur = fam.fifo.cursors[pos];
        (cur.kind, cur.tail_off)
    }

    #[test]
    fn chunks_widen_at_their_offset_boundaries() {
        let mut fam = PeerKnownSet::new();
        fam.add_peer(1_000);
        let base = 100_000u32;
        let steps: [(i64, Kind); 7] = [
            (0, Kind::I8),
            (127, Kind::I8),
            (-127, Kind::I8),
            (128, Kind::I16),
            (-128, Kind::I16),
            (32_767, Kind::I16),
            (-32_768, Kind::Raw),
        ];
        for (n, &(offset, kind)) in steps.iter().enumerate() {
            assert!(fam.insert(0, (i64::from(base) + offset) as u32));
            assert_eq!(tail(&fam, 0), (kind, n as u8 + 1), "offset {offset}");
            fam.audit();
        }
        // A full raw chunk closes; the next key starts a new `i8` chunk.
        assert!(fam.insert(0, base + 32_768));
        assert_eq!(tail(&fam, 0), (Kind::I8, 1));
        let expected: Vec<u32> = steps
            .iter()
            .map(|&(offset, _)| (i64::from(base) + offset) as u32)
            .chain([base + 32_768])
            .collect();
        assert_eq!(fam.fifo.keys(0).collect::<Vec<_>>(), expected);
        fam.audit();
    }

    #[test]
    fn chunks_close_when_no_wider_kind_holds_them() {
        let mut fam = PeerKnownSet::new();
        fam.add_peer(1_000);
        // 13 close keys fill more than an `i16` chunk holds: a far key
        // closes the `i8` chunk instead of widening it.
        for key in 1_000..1_013 {
            fam.insert(0, key);
        }
        assert_eq!(tail(&fam, 0), (Kind::I8, 13));
        fam.insert(0, 1_200);
        assert_eq!(tail(&fam, 0), (Kind::I8, 1));
        // Seven keys in an `i16` chunk: a key out of its range closes it.
        for key in [990, 1_400, 1_401, 1_402, 1_403, 1_404] {
            fam.insert(0, key);
        }
        assert_eq!(tail(&fam, 0), (Kind::I16, 7));
        fam.insert(0, 40_000);
        assert_eq!(tail(&fam, 0), (Kind::I8, 1));
        fam.audit();
        // Evicting walks across the early-closed chunks' end marks.
        let held: Vec<u32> = fam.fifo.keys(0).collect();
        assert_eq!(held.len(), 21);
        let mut fam2 = PeerKnownSet::new();
        fam2.add_peer(3);
        for &key in &held {
            fam2.insert(0, key);
            fam2.audit();
        }
        assert_eq!(fam2.fifo.keys(0).collect::<Vec<_>>(), held[18..]);
    }

    #[test]
    fn offsets_wrap_around_the_key_space() {
        let base = u32::MAX - 1;
        let mut chunk = Chunk::new(base);
        for (i, key) in [1, u32::MAX - 128].into_iter().enumerate() {
            let d = key.wrapping_sub(base);
            assert!(Kind::I8.fits(d), "{key} is within 127 of {base}, mod 2^32");
            chunk.set(Kind::I8, i + 1, d);
        }
        let far = (1u32 << 31).wrapping_sub(base);
        assert!(!Kind::I16.fits(far));
        chunk.widen(3, Kind::Raw);
        chunk.set(Kind::Raw, 3, far);
        assert_eq!(
            (0..4).map(|i| chunk.get(i)).collect::<Vec<_>>(),
            [base, 1, u32::MAX - 128, 1 << 31]
        );
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
    const CAPS: [usize; 14] = [1, 2, 5, 6, 7, 8, 12, 13, 14, 24, 25, 26, 50, 51];

    /// Chunks the raw 7-key layout this pool replaced would hold for the
    /// same pushes: a queue's keys fill its chunks in order, 7 to a chunk,
    /// and the pool grows to the most chunks in use at once (each push
    /// links its tail before evicting).
    #[derive(Default)]
    struct SevenKeyLayout {
        /// Per position: keys pushed and keys evicted.
        queues: Vec<(usize, usize)>,
        peak: usize,
    }

    impl SevenKeyLayout {
        fn push(&mut self, pos: usize, cap: usize) {
            self.queues[pos].0 += 1;
            let in_use: usize = self
                .queues
                .iter()
                .filter(|&&(pushed, _)| pushed > 0)
                .map(|&(pushed, evicted)| (pushed - 1) / 7 - evicted / 7 + 1)
                .sum();
            self.peak = self.peak.max(in_use);
            let (pushed, evicted) = &mut self.queues[pos];
            if *pushed - *evicted > cap {
                *evicted += 1;
            }
        }
    }

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
            let mut seven = SevenKeyLayout::default();
            for &cap in &caps {
                fam.add_peer(CAPS[cap]);
                models.push(KnownSet::with_capacity(CAPS[cap]));
                seven.queues.push((0, 0));
            }
            for &(pos, key) in &ops {
                let pos = pos % caps.len();
                let fresh = models[pos].insert(key);
                prop_assert_eq!(
                    fam.insert(pos, key),
                    fresh,
                    "insert ({}, {})",
                    pos,
                    key
                );
                prop_assert_eq!(fam.len_of(pos), models[pos].len());
                if fresh {
                    seven.push(pos, CAPS[caps[pos]]);
                }
            }
            fam.audit();
            // Random keys mostly escape the `i8` slots into 13-key `i16`
            // chunks. Every closed chunk holds ≥ 7 keys, so a queue's
            // window straddles at most one chunk boundary more than the
            // raw 7-key layout's would at the same moment, and the pool
            // peaks at most one chunk per position above that layout's.
            // (Measured over 2,000 cases: 3 pools one chunk larger, the
            // total 30 % smaller.)
            prop_assert!(
                fam.fifo.chunks.len() <= seven.peak + caps.len(),
                "{} chunks, the 7-key layout {}",
                fam.fifo.chunks.len(),
                seven.peak
            );
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

        /// The same contract on the streams gossip makes: keys queued at a
        /// position arrive in nearly consecutive order, so chunks fill with
        /// `i8` offsets, widen at the ±127/±128 and ±32767/±32768 offset
        /// boundaries and close early on backward jumps (a key re-inserted
        /// after its eviction) — with `remove_peer` and `clear` landing in
        /// the middle of chunks.
        #[test]
        fn peer_family_equivalent_on_locally_monotone_streams(
            ops in proptest::collection::vec((0usize..6, 0u8..32, 0u32..5_000), 1..400),
        ) {
            /// Keys stay in `0..DOMAIN`, a few hundred bitmap pages.
            const DOMAIN: i64 = 1 << 18;
            const EDGES: [i64; 8] = [127, -127, 128, -128, 32_767, -32_767, 32_768, -32_768];
            let mut fam = PeerKnownSet::new();
            let mut models: Vec<KnownSet<u32>> = Vec::new();
            // Per position: the last key drawn for it.
            let mut last: Vec<i64> = Vec::new();
            let mut touched: Vec<u32> = Vec::new();
            for &(pos, op, arg) in &ops {
                if models.is_empty() || (op == 30 && models.len() < 6) {
                    let cap = CAPS[arg as usize % CAPS.len()];
                    prop_assert_eq!(fam.add_peer(cap), models.len());
                    models.push(KnownSet::with_capacity(cap));
                    last.push(i64::from(arg) * 37 % DOMAIN);
                    continue;
                }
                let pos = pos % models.len();
                let arg = i64::from(arg);
                let key = match op {
                    // Small jittered steps, mostly forward.
                    0..=19 => last[pos] + arg % 6 - 1,
                    // An offset boundary from the tail chunk's base.
                    20..=24 => {
                        let cur = fam.fifo.cursors[pos];
                        let base = if cur.tail == NIL {
                            last[pos]
                        } else {
                            i64::from(cur.base)
                        };
                        base + EDGES[arg as usize % EDGES.len()]
                    }
                    // Back to an older key: re-inserted after eviction.
                    25 | 26 => last[pos] - arg % 300,
                    // Forward past every narrow slot.
                    27 => last[pos] + arg * 20,
                    28 => {
                        fam.remove_peer(pos);
                        models.swap_remove(pos);
                        last.swap_remove(pos);
                        fam.audit();
                        continue;
                    }
                    29 if arg % 4 == 0 => {
                        fam.clear();
                        models.clear();
                        last.clear();
                        fam.audit();
                        continue;
                    }
                    _ => last[pos] + 1,
                };
                let key = key.rem_euclid(DOMAIN);
                last[pos] = key;
                let key = key as u32;
                touched.push(key);
                prop_assert_eq!(
                    fam.insert(pos, key),
                    models[pos].insert(key),
                    "insert ({}, {})",
                    pos,
                    key
                );
                prop_assert_eq!(fam.len_of(pos), models[pos].len());
                fam.audit();
            }
            prop_assert_eq!(fam.peers(), models.len());
            for (pos, model) in models.iter().enumerate() {
                for &key in &touched {
                    prop_assert_eq!(fam.contains(pos, key), model.contains(key), "probe ({}, {})", pos, key);
                }
            }
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
