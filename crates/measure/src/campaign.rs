//! The complete dataset of one measurement campaign.
//!
//! [`CampaignData::fingerprint`] digests the whole dataset on two lanes:
//! the caller scans, sorts and renders each log's rows, and a scoped
//! hashing lane runs FNV-1a over what it writes, fed 64 KiB chunks in
//! order through a bounded channel. The queue is deep on purpose: up to
//! 128 chunks, 8 MiB of text, may wait for the lane. The caller does its
//! gathering in bursts (it reads and orders a whole log's rows before it
//! renders any), and the lane can hash only what is queued: with three
//! chunks in circulation it waited out each burst, and the month's
//! digest took about a third longer. The caller makes each chunk and the
//! lane drops it once absorbed, so a small digest makes few. Depth
//! cannot reach the digest: the lane absorbs the same bytes and
//! terminators in the same order at any depth.

use std::fmt;
use std::sync::mpsc::{self, SyncSender};

use ethmeter_chain::tree::BlockTree;
use ethmeter_chain::tx::Transaction;
use ethmeter_types::{BlockHash, FxHashMap, PoolId, SimDuration, TxId};

use crate::csv;
use crate::log::{BlockRecord, ObserverLog, TxRecord};
use crate::spill::Row;
use crate::vantage::VantagePoint;

/// Simulator-side ground truth. The real experiment approximates these
/// through Etherscan cross-checks; the simulator knows them exactly, which
/// is what lets the test suite verify the analysis pipeline end to end.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Every block produced during the campaign (main chain and forks).
    pub tree: BlockTree,
    /// Every transaction submitted (keyed through `FxHasher64`; the
    /// fingerprint and every exporter sort before iterating).
    pub txs: FxHashMap<TxId, Transaction>,
    /// Pool names by id (for report labels).
    pub pool_names: Vec<String>,
    /// Pool hash-power shares by id.
    pub pool_shares: Vec<f64>,
    /// The configured mean inter-block time.
    pub interblock: SimDuration,
    /// Campaign duration.
    pub duration: SimDuration,
}

impl GroundTruth {
    /// The display name of a pool (falls back to the raw id).
    pub fn pool_name(&self, pool: PoolId) -> String {
        self.pool_names
            .get(pool.index())
            .cloned()
            .unwrap_or_else(|| pool.to_string())
    }

    /// The hash-power share of a pool (0 if unknown).
    pub fn pool_share(&self, pool: PoolId) -> f64 {
        self.pool_shares.get(pool.index()).copied().unwrap_or(0.0)
    }
}

/// One campaign's observers plus ground truth — the input to every
/// analyzer in `ethmeter-analysis`.
#[derive(Debug, Clone)]
pub struct CampaignData {
    /// Observer logs, in vantage order.
    pub observers: Vec<(VantagePoint, ObserverLog)>,
    /// What actually happened.
    pub truth: GroundTruth,
}

impl CampaignData {
    /// The main (high-degree) observers — the paper's four — excluding the
    /// default-peers redundancy observer.
    pub fn main_observers(&self) -> impl Iterator<Item = &(VantagePoint, ObserverLog)> + '_ {
        self.observers.iter().filter(|(v, _)| !v.default_peers)
    }

    /// The default-peers observer, if the campaign deployed one.
    pub fn redundancy_observer(&self) -> Option<&(VantagePoint, ObserverLog)> {
        self.observers.iter().find(|(v, _)| v.default_peers)
    }

    /// Looks an observer up by name.
    #[cfg(test)]
    pub fn observer(&self, name: &str) -> Option<&(VantagePoint, ObserverLog)> {
        self.observers.iter().find(|(v, _)| v.name == name)
    }

    /// Visits every distinct block observed by at least one main
    /// observer, in ascending hash order, together with the observing
    /// records as `(main-observer index, record)` pairs (ascending
    /// observer index).
    ///
    /// This is the one iteration API the report families consume: it is
    /// a k-way merge-join over the observers'
    /// [`ObserverLog::scan_blocks`] streams, so spilled and in-memory
    /// logs read identically and no caller ever materializes the raw
    /// rows — memory is bounded by the scans' fixed chunked read-ahead,
    /// not by campaign size.
    pub fn for_each_main_block<F>(&self, f: F)
    where
        F: FnMut(BlockHash, &[(usize, BlockRecord)]),
    {
        merge_join(self.main_observers().map(|(_, log)| log.scan_blocks()), f);
    }

    /// Visits every distinct transaction observed by at least one main
    /// observer, in ascending id order, with `(main-observer index,
    /// record)` pairs — the transaction-side twin of
    /// [`CampaignData::for_each_main_block`], streaming through
    /// [`ObserverLog::scan_txs`].
    pub fn for_each_main_tx<F>(&self, f: F)
    where
        F: FnMut(TxId, &[(usize, TxRecord)]),
    {
        merge_join(self.main_observers().map(|(_, log)| log.scan_txs()), f);
    }

    /// A stable 64-bit digest of the entire dataset: every observer log
    /// (through its canonical CSV serialization) plus the full ground
    /// truth (all blocks, all transactions, the canonical chain, and the
    /// campaign parameters).
    ///
    /// Two campaigns fingerprint equal iff they are observationally
    /// identical, so a pinned fingerprint turns "same seed ⇒ same run"
    /// into a one-integer regression test. The digest is independent of
    /// platform, build profile, and in-memory layout (hash-map iteration
    /// order never reaches it: every collection is sorted into a canonical
    /// order first).
    ///
    /// The calling thread scans, sorts and formats; a hashing lane
    /// absorbs what it produces.
    pub fn fingerprint(&self) -> u64 {
        hash_beside(|h| self.write_digest_input(h))
    }

    /// Writes everything [`CampaignData::fingerprint`] digests, in order.
    fn write_digest_input(&self, h: &mut Feed) {
        h.write_u64(self.observers.len() as u64);
        for (vantage, log) in &self.observers {
            h.write_bytes(vantage.name.as_bytes());
            h.write_u64(u64::from(vantage.default_peers));
            // As `write_bytes(blocks_to_csv(log))`, without the `String`.
            h.write_text(|out| csv::write_blocks_csv(out, log));
            h.write_text(|out| csv::write_txs_csv(out, log));
        }

        let tree = &self.truth.tree;
        h.write_u64(tree.len() as u64);
        for number in 0..=tree.head_number() {
            h.write_u64(
                tree.canonical_hash(number)
                    .expect("canonical chain is contiguous")
                    .raw(),
            );
        }
        let mut blocks: Vec<_> = tree.all_blocks().collect();
        blocks.sort_by_key(|b| (b.number(), b.hash()));
        for b in blocks {
            h.write_u64(b.hash().raw());
            h.write_u64(b.parent().raw());
            h.write_u64(b.number());
            h.write_u64(u64::from(b.miner().raw()));
            h.write_u64(b.mined_at().as_nanos());
            for t in b.txs() {
                h.write_u64(t.raw());
            }
            for u in b.uncles() {
                h.write_u64(u.raw());
            }
        }

        let mut txs: Vec<&Transaction> = self.truth.txs.values().collect();
        txs.sort_by_key(|t| t.id);
        h.write_u64(txs.len() as u64);
        for t in txs {
            h.write_u64(t.id.raw());
            h.write_u64(u64::from(t.sender.raw()));
            h.write_u64(t.nonce);
            h.write_u64(t.gas_price);
            h.write_u64(t.gas);
            h.write_u64(t.size.as_bytes());
            h.write_u64(t.submitted_at.as_nanos());
            h.write_u64(u64::from(t.origin.raw()));
        }

        for name in &self.truth.pool_names {
            h.write_bytes(name.as_bytes());
        }
        for &share in &self.truth.pool_shares {
            h.write_u64(share.to_bits());
        }
        h.write_u64(self.truth.interblock.as_nanos());
        h.write_u64(self.truth.duration.as_nanos());
    }
}

/// Joins ascending `scans` by key: `f` gets each key any scan yields,
/// once, with the `(scan index, row)` pairs that carry it (ascending scan
/// index).
fn merge_join<R: Row>(
    scans: impl Iterator<Item = impl Iterator<Item = R>>,
    mut f: impl FnMut(R::Key, &[(usize, R)]),
) {
    let mut scans: Vec<_> = scans.map(Iterator::peekable).collect();
    let mut group = Vec::new();
    while let Some(min) = scans.iter_mut().filter_map(|s| s.peek().map(R::key)).min() {
        group.clear();
        for (i, s) in scans.iter_mut().enumerate() {
            if let Some(r) = s.next_if(|r| r.key() == min) {
                group.push((i, r));
            }
        }
        f(min, &group);
    }
}

/// Streaming FNV-1a (64-bit): tiny, dependency-free, and byte-order
/// independent — exactly stable enough for golden fingerprints.
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Length terminator: distinguishes ["ab","c"] from ["a","bc"].
    fn terminate(&mut self, len: u64) {
        self.0 ^= len;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Absorbs one chunk: its bytes, with each terminator where it falls.
    fn absorb_chunk(&mut self, chunk: &Chunk) {
        let mut at = 0;
        for &(end, len) in &chunk.ends {
            self.absorb(&chunk.bytes[at..end]);
            self.terminate(len);
            at = end;
        }
        self.absorb(&chunk.bytes[at..]);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Bytes one [`Chunk`] carries to the hashing lane.
const CHUNK_BYTES: usize = 64 << 10;
/// Terminators one [`Chunk`] carries at most: one per `u64` field that
/// fills it.
const CHUNK_ENDS: usize = CHUNK_BYTES / 8;
/// Full chunks the queue to the hashing lane holds, so the lane may fall
/// up to 8 MiB of text behind (see the module doc). On a 2-core Xeon 96 to 128 chunks hashed
/// the month fastest; 64 left the lane waiting and 256 was slower again.
const CHUNKS: usize = 128;

/// One stretch of the digest's input, in stream order: `bytes` to absorb,
/// and each length terminator as `(offset into bytes, length)`, applied
/// once the bytes before the offset are absorbed.
struct Chunk {
    bytes: Vec<u8>,
    /// Grows to what the chunk holds: a stretch of CSV text carries one
    /// or two terminators, a stretch of ground-truth fields thousands.
    ends: Vec<(usize, u64)>,
}

/// Digests what `feed` writes into a [`Feed`], with the FNV absorption on
/// a scoped hashing lane (see [`absorb_beside`]). The digest equals the
/// sequential FNV stream's: the lane absorbs bytes and terminators in
/// exactly the order written.
///
/// # Panics
///
/// A panic on the lane is resumed on the caller with its own payload.
fn hash_beside(feed: impl FnOnce(&mut Feed)) -> u64 {
    let mut h = Fnv64::new();
    absorb_beside(|chunk| h.absorb_chunk(chunk), feed);
    h.finish()
}

/// Runs `feed` on the caller and `absorb` on a scoped lane over the
/// chunks it fills, in order: a channel bounded at [`CHUNKS`] carries
/// each full chunk to the lane, which drops it once absorbed.
///
/// # Panics
///
/// A panic on the lane is resumed on the caller with its own payload.
fn absorb_beside(mut absorb: impl FnMut(&Chunk) + Send, feed: impl FnOnce(&mut Feed)) {
    let (full, to_hash) = mpsc::sync_channel::<Chunk>(CHUNKS);
    std::thread::scope(|scope| {
        let lane = scope.spawn(move || to_hash.into_iter().for_each(|chunk| absorb(&chunk)));
        let mut sink = Feed {
            chunk: Feed::fresh_chunk(),
            full: Some(full),
        };
        feed(&mut sink);
        // Sending the last chunk and dropping the sender ends the lane's
        // loop; a lane that hung up raises its panic at the join.
        if let Some(full) = sink.full {
            let _ = full.send(sink.chunk);
        }
        lane.join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

/// The caller's end of [`hash_beside`]: FNV's field writes, buffered into
/// chunks for the hashing lane.
struct Feed {
    chunk: Chunk,
    /// `None` once the lane has hung up (it panicked): writes are then
    /// dropped, and the join raises the lane's panic.
    full: Option<SyncSender<Chunk>>,
}

impl Feed {
    fn fresh_chunk() -> Chunk {
        Chunk {
            bytes: Vec::with_capacity(CHUNK_BYTES),
            ends: Vec::new(),
        }
    }

    fn absorb(&mut self, mut bytes: &[u8]) {
        loop {
            let room = CHUNK_BYTES - self.chunk.bytes.len();
            let (now, rest) = bytes.split_at(room.min(bytes.len()));
            self.chunk.bytes.extend_from_slice(now);
            if rest.is_empty() {
                return;
            }
            bytes = rest;
            self.flush();
        }
    }

    fn terminate(&mut self, len: u64) {
        if self.chunk.ends.len() == CHUNK_ENDS {
            self.flush();
        }
        self.chunk.ends.push((self.chunk.bytes.len(), len));
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.absorb(bytes);
        self.terminate(bytes.len() as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hashes the text `write` emits as one field — the same digest as
    /// [`Feed::write_bytes`] over the whole text, without building it.
    fn write_text(&mut self, write: impl FnOnce(&mut TextField<'_>) -> fmt::Result) {
        let mut field = TextField { feed: self, len: 0 };
        write(&mut field).expect("hashing cannot fail");
        let len = field.len;
        self.terminate(len);
    }

    /// Sends the current chunk to the lane and starts the next.
    fn flush(&mut self) {
        let chunk = std::mem::replace(&mut self.chunk, Feed::fresh_chunk());
        if let Some(full) = &self.full {
            // The lane hung up (it panicked): the writes go nowhere, and
            // the join raises the lane's panic.
            if full.send(chunk).is_err() {
                self.full = None;
            }
        }
    }
}

/// The field [`Feed::write_text`] is writing: bytes are fed as they come
/// and counted for the length terminator.
struct TextField<'a> {
    feed: &'a mut Feed,
    len: u64,
}

impl fmt::Write for TextField<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.feed.absorb(s.as_bytes());
        self.len += s.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::Receiver;

    fn empty_campaign() -> CampaignData {
        CampaignData {
            observers: VantagePoint::paper_all()
                .into_iter()
                .map(|v| (v, ObserverLog::new()))
                .collect(),
            truth: GroundTruth {
                tree: BlockTree::new(),
                txs: FxHashMap::default(),
                pool_names: vec!["Ethermine".into()],
                pool_shares: vec![0.2532],
                interblock: SimDuration::from_secs_f64(13.3),
                duration: SimDuration::from_hours(1),
            },
        }
    }

    #[test]
    fn observer_selection() {
        let c = empty_campaign();
        assert_eq!(c.main_observers().count(), 4);
        assert!(c.redundancy_observer().is_some());
        assert!(c.observer("EA").is_some());
        assert!(c.observer("nope").is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = empty_campaign();
        let b = empty_campaign();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same data, same digest");

        // Any observed message changes the digest.
        let mut c = empty_campaign();
        c.observers[0].1.record_block_msg(
            ethmeter_types::BlockHash(7),
            crate::BlockMsgKind::FullBlock,
            ethmeter_types::NodeId(1),
            ethmeter_types::SimTime::from_secs(1),
            ethmeter_types::SimTime::from_secs(1),
        );
        assert_ne!(a.fingerprint(), c.fingerprint());

        // So does any ground-truth change.
        let mut d = empty_campaign();
        d.truth.pool_shares[0] += 1e-9;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    impl Fnv64 {
        fn write_bytes(&mut self, bytes: &[u8]) {
            self.absorb(bytes);
            self.terminate(bytes.len() as u64);
        }

        fn write_u64(&mut self, v: u64) {
            self.write_bytes(&v.to_le_bytes());
        }
    }

    /// The digest [`CampaignData::fingerprint`] computes, the plain way:
    /// one thread, one FNV stream, each log's CSV rendered first.
    fn sequential_fingerprint(c: &CampaignData) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(c.observers.len() as u64);
        for (vantage, log) in &c.observers {
            h.write_bytes(vantage.name.as_bytes());
            h.write_u64(u64::from(vantage.default_peers));
            h.write_bytes(csv::blocks_to_csv(log).as_bytes());
            h.write_bytes(csv::txs_to_csv(log).as_bytes());
        }
        let tree = &c.truth.tree;
        h.write_u64(tree.len() as u64);
        for number in 0..=tree.head_number() {
            h.write_u64(tree.canonical_hash(number).unwrap().raw());
        }
        let mut blocks: Vec<_> = tree.all_blocks().collect();
        blocks.sort_by_key(|b| (b.number(), b.hash()));
        for b in blocks {
            for v in [
                b.hash().raw(),
                b.parent().raw(),
                b.number(),
                u64::from(b.miner().raw()),
                b.mined_at().as_nanos(),
            ] {
                h.write_u64(v);
            }
            b.txs().iter().for_each(|t| h.write_u64(t.raw()));
            b.uncles().iter().for_each(|u| h.write_u64(u.raw()));
        }
        let mut txs: Vec<&Transaction> = c.truth.txs.values().collect();
        txs.sort_by_key(|t| t.id);
        h.write_u64(txs.len() as u64);
        for t in txs {
            for v in [
                t.id.raw(),
                u64::from(t.sender.raw()),
                t.nonce,
                t.gas_price,
                t.gas,
                t.size.as_bytes(),
                t.submitted_at.as_nanos(),
                u64::from(t.origin.raw()),
            ] {
                h.write_u64(v);
            }
        }
        for name in &c.truth.pool_names {
            h.write_bytes(name.as_bytes());
        }
        for share in &c.truth.pool_shares {
            h.write_u64(share.to_bits());
        }
        h.write_u64(c.truth.interblock.as_nanos());
        h.write_u64(c.truth.duration.as_nanos());
        h.finish()
    }

    /// A campaign with `rows` block and tx records per observer (as many
    /// truth transactions, and a chain of `rows / 8` blocks), spilling
    /// under `budget` bytes when given one.
    fn campaign(seed: u64, rows: u64, budget: Option<usize>) -> CampaignData {
        use ethmeter_chain::block::BlockBuilder;
        use ethmeter_types::{AccountId, ByteSize, NodeId, SimTime};
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut c = empty_campaign();
        for (i, (vantage, log)) in c.observers.iter_mut().enumerate() {
            if let Some(budget) = budget {
                *log = ObserverLog::with_spill(crate::SpillConfig {
                    dir: std::env::temp_dir().join(format!("ethmeter-fingerprint-{seed}-{i}")),
                    budget_bytes: budget,
                    prefix: crate::SpillConfig::sanitize(&vantage.name),
                });
            }
            for _ in 0..rows {
                let t = SimTime::from_nanos(next() % 1_000_000_000_000);
                let kind = if next() % 2 == 0 {
                    crate::BlockMsgKind::Announce
                } else {
                    crate::BlockMsgKind::FullBlock
                };
                log.record_block_msg(BlockHash(next() % (rows * 2)), kind, NodeId(1), t, t);
                log.record_tx(TxId(next() % (rows * 2)), NodeId(2), t, t);
            }
        }
        let mut parent = c.truth.tree.genesis_hash();
        for n in 1..=rows / 8 {
            let block = BlockBuilder::new(parent, n, PoolId((n % 2) as u16))
                .mined_at(SimTime::from_secs(n))
                .txs((0..next() % 4).map(|_| TxId(next())).collect())
                .build();
            parent = block.hash();
            c.truth.tree.insert(block).expect("linear insert");
        }
        for id in 0..rows {
            c.truth.txs.insert(
                TxId(id),
                Transaction {
                    id: TxId(id),
                    sender: AccountId(next() as u32),
                    nonce: next() % 9,
                    gas_price: next(),
                    gas: 21_000,
                    size: ByteSize::from_bytes(180),
                    submitted_at: SimTime::from_nanos(next() % 1_000_000),
                    origin: NodeId(next() as u32),
                },
            );
        }
        c
    }

    #[test]
    fn the_hashing_lane_digests_like_one_sequential_stream() {
        // Zero observers, and empty logs.
        let mut none = empty_campaign();
        none.observers.clear();
        assert_eq!(none.fingerprint(), sequential_fingerprint(&none));
        let empty = empty_campaign();
        assert_eq!(empty.fingerprint(), sequential_fingerprint(&empty));

        // Empty and chunk-spanning single fields.
        let mut names = empty_campaign();
        names.truth.pool_names = vec![
            String::new(),
            "x".repeat(3 * CHUNK_BYTES + 5),
            String::new(),
        ];
        assert_eq!(names.fingerprint(), sequential_fingerprint(&names));

        // Texts spanning many chunks, and more terminators than a chunk
        // holds (each truth transaction writes eight fields).
        for (seed, rows) in [(1, 1), (2, 700), (3, 20_000)] {
            let c = campaign(seed, rows, None);
            let text: usize = c
                .observers
                .iter()
                .map(|(_, l)| csv::blocks_to_csv(l).len() + csv::txs_to_csv(l).len())
                .sum();
            if rows == 20_000 {
                assert!(text > 16 * CHUNK_BYTES && 8 * rows as usize > CHUNK_ENDS);
            }
            assert_eq!(c.fingerprint(), sequential_fingerprint(&c), "{rows} rows");
        }
    }

    /// One write of a generated feed.
    enum Op {
        Bytes(Vec<u8>),
        U64(u64),
        Text(Vec<String>),
    }

    /// At least `chunks` chunks' worth of writes: fields from empty to
    /// several chunks long, runs of `u64` fields (a terminator each) and
    /// texts written in pieces.
    fn ops(seed: u64, chunks: usize) -> Vec<Op> {
        let mut rng = proptest::TestRng::deterministic(&seed.to_string());
        let (mut ops, mut bytes) = (Vec::new(), 0);
        while bytes < chunks * CHUNK_BYTES {
            let x = rng.next_u64();
            let len = match x % 4 {
                0 => (x >> 8) as usize % 16,
                1 => (x >> 8) as usize % (3 * CHUNK_BYTES),
                _ => (x >> 8) as usize % CHUNK_BYTES,
            };
            bytes += len;
            match x % 3 {
                0 => ops.push(Op::Bytes(vec![x as u8; len])),
                1 => {
                    let (mut pieces, mut left) = (Vec::new(), len);
                    while left > 0 {
                        let n = left.min(1 + (x as usize + 131 * pieces.len()) % 700);
                        let letter = char::from(b'a' + (pieces.len() % 26) as u8);
                        pieces.push(letter.to_string().repeat(n));
                        left -= n;
                    }
                    ops.push(Op::Text(pieces));
                }
                _ => ops.extend((0..=len / 8).map(|v| Op::U64(x ^ v as u64))),
            }
        }
        ops
    }

    fn feed_ops(feed: &mut Feed, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Bytes(b) => feed.write_bytes(b),
                Op::U64(v) => feed.write_u64(*v),
                Op::Text(pieces) => feed.write_text(|out| {
                    pieces
                        .iter()
                        .try_for_each(|p| fmt::Write::write_str(out, p))
                }),
            }
        }
    }

    fn reference_digest<'a>(ops: impl IntoIterator<Item = &'a Op>) -> u64 {
        let mut h = Fnv64::new();
        for op in ops {
            match op {
                Op::Bytes(b) => h.write_bytes(b),
                Op::U64(v) => h.write_u64(*v),
                Op::Text(pieces) => h.write_bytes(pieces.concat().as_bytes()),
            }
        }
        h.finish()
    }

    /// The caller's first write: `CHUNKS` chunks filled, all but the one
    /// still open queued, while the lane waits at a gate the caller opens
    /// after this.
    fn fill_the_queue() -> [Op; 1] {
        [Op::Bytes(vec![1; CHUNKS * CHUNK_BYTES])]
    }

    /// Where the lane waits until the caller, having filled the queue,
    /// opens it. A caller that never gets there (blocked on a queue
    /// shallower than the bound) fails the test instead of hanging it.
    fn wait_at(gate: &std::sync::Mutex<Receiver<()>>) {
        gate.lock()
            .expect("one waiter")
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the caller fills every chunk, then opens the gate");
    }

    #[test]
    fn the_hashing_lane_digests_like_the_reference_when_it_lags_a_full_queue() {
        let ops = ops(11, 2 * CHUNKS);
        let (open, gate) = mpsc::channel();
        let gate = std::sync::Mutex::new(gate);
        let fill = fill_the_queue();
        let (mut h, mut chunks) = (Fnv64::new(), 0);
        absorb_beside(
            |chunk| {
                if chunks == 0 {
                    wait_at(&gate);
                }
                chunks += 1;
                h.absorb_chunk(chunk);
                // Slower than the caller, which only copies: hash twice.
                let mut again = Fnv64::new();
                again.absorb_chunk(chunk);
                std::hint::black_box(again.finish());
            },
            |feed| {
                feed_ops(feed, &fill);
                open.send(()).expect("the lane waits at the gate");
                feed_ops(feed, &ops);
            },
        );
        assert!(chunks >= 200, "{chunks} chunks");
        assert_eq!(h.finish(), reference_digest(fill.iter().chain(&ops)));
    }

    #[test]
    fn the_hashing_lane_panic_with_the_queue_full_reaches_the_caller_with_its_own_payload() {
        let (open, gate) = mpsc::channel();
        let gate = std::sync::Mutex::new(gate);
        let mut absorbed = 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            absorb_beside(
                |_| {
                    if absorbed == 0 {
                        wait_at(&gate);
                    }
                    absorbed += 1;
                    if absorbed == CHUNKS / 2 {
                        std::panic::panic_any(47_u32);
                    }
                },
                |feed| {
                    feed_ops(feed, &fill_the_queue());
                    open.send(()).expect("the lane waits at the gate");
                    feed.write_bytes(&vec![3; 3 * CHUNKS * CHUNK_BYTES]);
                },
            )
        }));
        let payload = result.expect_err("the lane panicked");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&47));
    }

    #[test]
    fn a_panicking_feed_reaches_the_caller_with_its_own_payload() {
        let result = std::panic::catch_unwind(|| {
            hash_beside(|h| {
                h.write_bytes(&[7; 3 * CHUNK_BYTES]);
                std::panic::panic_any(43_u32);
            })
        });
        let payload = result.expect_err("the feed panicked");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&43));
    }

    #[test]
    fn the_hashing_lane_digests_spilled_logs_like_in_memory_ones() {
        // A 1-byte budget writes a segment per record: fewer rows there.
        for (seed, budget, rows) in [
            (4, 1, 100),
            (5, 64, 300),
            (6, 512, 1_000),
            (7, 4_096, 3_000),
        ] {
            let disk = campaign(seed, rows, Some(budget));
            let spilled: usize = disk
                .observers
                .iter()
                .map(|(_, l)| l.spilled_segments())
                .sum();
            assert!(spilled > 0, "budget {budget} spilled");
            let mem = campaign(seed, rows, None);
            assert_eq!(
                disk.fingerprint(),
                sequential_fingerprint(&mem),
                "budget {budget}"
            );
            assert_eq!(
                disk.fingerprint(),
                sequential_fingerprint(&disk),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn fingerprint_independent_of_tx_map_layout() {
        use ethmeter_chain::tx::Transaction;
        use ethmeter_types::{AccountId, ByteSize, NodeId, SimTime};
        let tx = |id: u64| Transaction {
            id: TxId(id),
            sender: AccountId(1),
            nonce: 0,
            gas_price: 3,
            gas: 21_000,
            size: ByteSize::from_bytes(180),
            submitted_at: SimTime::ZERO,
            origin: NodeId(0),
        };
        let mut a = empty_campaign();
        let mut b = empty_campaign();
        for id in 1..=64 {
            a.truth.txs.insert(TxId(id), tx(id));
        }
        for id in (1..=64).rev() {
            b.truth.txs.insert(TxId(id), tx(id));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn group_scans_join_main_observers_by_key() {
        use ethmeter_types::{NodeId, SimTime};
        let mut c = empty_campaign();
        let t = SimTime::from_secs(1);
        // Main observers are indices 0..4; index 4 is the redundancy
        // observer and must never appear in a group.
        c.observers[0].1.record_block_msg(
            BlockHash(9),
            crate::BlockMsgKind::Announce,
            NodeId(1),
            t,
            t,
        );
        c.observers[0].1.record_block_msg(
            BlockHash(3),
            crate::BlockMsgKind::FullBlock,
            NodeId(1),
            t,
            t,
        );
        c.observers[2].1.record_block_msg(
            BlockHash(3),
            crate::BlockMsgKind::FullBlock,
            NodeId(2),
            t,
            t,
        );
        c.observers[4].1.record_block_msg(
            BlockHash(3),
            crate::BlockMsgKind::FullBlock,
            NodeId(3),
            t,
            t,
        );
        let mut seen = Vec::new();
        c.for_each_main_block(|hash, group| {
            seen.push((hash, group.iter().map(|(i, _)| *i).collect::<Vec<_>>()));
        });
        assert_eq!(
            seen,
            vec![(BlockHash(3), vec![0, 2]), (BlockHash(9), vec![0])]
        );

        c.observers[1].1.record_tx(TxId(5), NodeId(1), t, t);
        c.observers[3].1.record_tx(TxId(5), NodeId(2), t, t);
        c.observers[3].1.record_tx(TxId(2), NodeId(2), t, t);
        let mut seen = Vec::new();
        c.for_each_main_tx(|id, group| {
            seen.push((id, group.iter().map(|(i, _)| *i).collect::<Vec<_>>()));
        });
        assert_eq!(seen, vec![(TxId(2), vec![3]), (TxId(5), vec![1, 3])]);
    }

    #[test]
    fn pool_label_fallback() {
        let c = empty_campaign();
        assert_eq!(c.truth.pool_name(PoolId(0)), "Ethermine");
        assert_eq!(c.truth.pool_name(PoolId(9)), "pool-9");
        assert_eq!(c.truth.pool_share(PoolId(0)), 0.2532);
        assert_eq!(c.truth.pool_share(PoolId(9)), 0.0);
    }
}
