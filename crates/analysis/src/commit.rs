//! Figures 4 and 5: transaction inclusion/commit delays and the effect of
//! out-of-order arrival.
//!
//! Figure 4: "the difference between the time when a transaction was first
//! observed by our measurement nodes to the time at which it was included
//! in a block", plus the extra wait for 3/12/15/36 confirmation blocks.
//! Figure 5: the same commit delay split by whether the transaction
//! arrived in nonce order — out-of-order transactions "must wait for their
//! delayed predecessors before committing".
//!
//! Delays here span tens to hundreds of seconds, so the sub-100ms NTP
//! error is immaterial; we use true timestamps for cross-observer minima
//! and each observer's own log for the per-observer ordering split.

use std::fmt;

use ethmeter_chain::block::Block;
use ethmeter_measure::CampaignData;
use ethmeter_stats::table::pct;
use ethmeter_stats::Cdf;
use ethmeter_types::{BlockHash, BlockNumber, SimDuration, SimTime, TxId};

/// The confirmation depths Figure 4 plots.
pub const CONFIRMATION_DEPTHS: [u64; 4] = [3, 12, 15, 36];

/// Figure 4's series.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitReport {
    /// Delay from first tx observation to inclusion-block observation (s).
    pub inclusion: Cdf,
    /// Delay to the k-th confirmation, for k in
    /// [`CONFIRMATION_DEPTHS`] order (s).
    pub confirmations: Vec<(u64, Cdf)>,
    /// Committed transactions measured.
    pub txs_measured: u64,
    /// Transactions skipped (unobserved before inclusion, or past the
    /// campaign's confirmation horizon for every depth).
    pub txs_skipped: u64,
}

impl CommitReport {
    /// The headline number: median 12-confirmation commit delay (paper:
    /// 189 s). `None` if no transaction reached 12 confirmations.
    pub fn median_commit_12(&self) -> Option<f64> {
        self.confirmations
            .iter()
            .find(|(k, _)| *k == 12)
            .filter(|(_, cdf)| !cdf.is_empty())
            .map(|(_, cdf)| cdf.quantile(0.5))
    }
}

/// Per-height observation index: `obs[h]` is the earliest true
/// observation of the canonical block at height `h` by any main observer.
///
/// Built from one merge-join of the hash-ascending observer scans
/// (spilled or in-memory) against the canonical chain sorted by hash; the
/// index holds one slot per canonical height, never raw rows.
fn block_observations(data: &CampaignData) -> Vec<Option<SimTime>> {
    let tree = &data.truth.tree;
    let mut canonical: Vec<(BlockHash, BlockNumber)> = tree
        .canonical_blocks()
        .filter(|b| b.number() > 0)
        .map(|b| (b.hash(), b.number()))
        .collect();
    canonical.sort_unstable();
    let mut obs = vec![None; tree.head_number() as usize + 1];
    let mut chain = canonical.iter().peekable();
    data.for_each_main_block(|hash, group| {
        while chain.next_if(|&&(h, _)| h < hash).is_some() {}
        if let Some(&(_, number)) = chain.next_if(|&&(h, _)| h == hash) {
            obs[number as usize] = Some(earliest(group.iter().map(|(_, r)| r.first_true)));
        }
    });
    obs
}

/// The observation of canonical height `h`, if any main observer saw it.
fn observed(obs: &[Option<SimTime>], h: BlockNumber) -> Option<SimTime> {
    obs.get(usize::try_from(h).ok()?).copied().flatten()
}

fn earliest(times: impl Iterator<Item = SimTime>) -> SimTime {
    times.min().expect("non-empty group")
}

/// Every canonical `(tx, height)` inclusion accepted by `keep_block`,
/// reduced to each tx's first (lowest) height and sorted by id — the
/// shape that merge-joins against [`CampaignData::for_each_main_tx`].
fn first_inclusions(
    data: &CampaignData,
    mut keep_block: impl FnMut(&Block) -> bool,
) -> Vec<(TxId, BlockNumber)> {
    let mut inclusions: Vec<(TxId, BlockNumber)> = Vec::new();
    for block in data.truth.tree.canonical_blocks() {
        if keep_block(block) {
            inclusions.extend(block.txs().iter().map(|&id| (id, block.number())));
        }
    }
    inclusions.sort_unstable();
    inclusions.dedup_by_key(|&mut (id, _)| id);
    inclusions
}

/// Computes Figure 4.
pub fn analyze(data: &CampaignData) -> CommitReport {
    let block_obs = block_observations(data);
    let mut skipped = 0u64;
    // An unobserved block's txs are skipped outright, every time; a tx
    // included again after a reorg is measured once, at its first
    // observed inclusion.
    let included = first_inclusions(data, |block| match block.number() {
        0 => false,
        h if observed(&block_obs, h).is_some() => true,
        _ => {
            skipped += block.txs().len() as u64;
            false
        }
    });
    let mut inclusion = Vec::new();
    let mut confs: Vec<(u64, Vec<u64>)> = CONFIRMATION_DEPTHS
        .iter()
        .map(|&k| (k, Vec::new()))
        .collect();
    let mut measured = 0u64;
    let mut pending = included.iter().peekable();
    data.for_each_main_tx(|id, group| {
        while pending.next_if(|&&(tx, _)| tx < id).is_some() {}
        let Some(&(_, h)) = pending.next_if(|&&(tx, _)| tx == id) else {
            return;
        };
        let t_tx = earliest(group.iter().map(|(_, r)| r.first_true));
        let t_inc = observed(&block_obs, h).expect("kept blocks are observed");
        if t_tx > t_inc {
            // Observed only after inclusion (e.g. miner-private tx): the
            // paper cannot measure these either. Counted as skipped below.
            return;
        }
        measured += 1;
        inclusion.push((t_inc - t_tx).as_nanos());
        for (k, sink) in &mut confs {
            if let Some(t_k) = observed(&block_obs, h + *k) {
                sink.push((t_k - t_tx).as_nanos());
            }
        }
    });
    // Every first inclusion is measured or skipped (unobserved, or
    // observed only after inclusion).
    skipped += included.len() as u64 - measured;
    CommitReport {
        inclusion: delay_cdf(inclusion),
        confirmations: confs.into_iter().map(|(k, v)| (k, delay_cdf(v))).collect(),
        txs_measured: measured,
        txs_skipped: skipped,
    }
}

/// The CDF of delays given in nanoseconds, in seconds. Sorted as
/// integers first: `as_secs_f64` is monotone, so the floats arrive in
/// exactly the order [`Cdf::from_values`] would sort them into, and its
/// own sort only confirms one ascending run.
fn delay_cdf(mut nanos: Vec<u64>) -> Cdf {
    nanos.sort_unstable();
    Cdf::from_values(
        nanos
            .into_iter()
            .map(|n| SimDuration::from_nanos(n).as_secs_f64()),
    )
}

impl fmt::Display for CommitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4 — transaction inclusion and commit times ({} txs)",
            self.txs_measured
        )?;
        writeln!(f, "inclusion: {}", self.inclusion)?;
        for (k, cdf) in &self.confirmations {
            writeln!(f, "{k:>2} confirmations: {cdf}")?;
        }
        if let Some(m) = self.median_commit_12() {
            write!(f, "median 12-conf commit: {m:.0}s (paper: 189s)")?;
        }
        Ok(())
    }
}

/// Figure 5's split.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingReport {
    /// Fraction of (observer, committed tx) samples that arrived out of
    /// nonce order (paper: 11.54%).
    pub ooo_fraction: f64,
    /// 12-confirmation commit delay of in-order arrivals (s).
    pub in_order: Cdf,
    /// 12-confirmation commit delay of out-of-order arrivals (s).
    pub out_of_order: Cdf,
}

/// Computes Figure 5. Classification is per observer — a transaction is
/// out-of-order at an observer if some lower-nonce transaction from the
/// same sender arrived later at *that* observer — and samples are pooled
/// across the four main observers.
pub fn ordering(data: &CampaignData) -> OrderingReport {
    let (mut ooo_count, mut total) = (0u64, 0u64);
    // Delay samples in nanoseconds, as `delay_cdf` takes them.
    let (mut in_order, mut out_of_order) = (Vec::new(), Vec::new());
    let block_obs = block_observations(data);
    // Committed txs (first canonical inclusion, known to the table),
    // in id order: `ids[pos]`. `ranked` holds them in (sender, nonce)
    // order; a tx's rank is its index there, `rank_of[pos]`.
    let mut ids = Vec::new();
    let mut ranked = Vec::new();
    for (id, height) in first_inclusions(data, |_| true) {
        if let Some(tx) = data.truth.txs.get(&id) {
            ranked.push((tx.sender, tx.nonce, ids.len(), height));
            ids.push(id);
        }
    }
    ranked.sort_unstable();
    let mut rank_of = vec![0; ids.len()];
    for (rank, &(_, _, pos, _)) in ranked.iter().enumerate() {
        rank_of[pos] = rank;
    }
    // Per main observer: one merge-join of its id-ascending scan
    // against `ids` fills the rank-indexed arrivals (arrival_seq,
    // first arrival), then one walk in rank order classifies them.
    let mut arrivals: Vec<Option<(u64, SimTime)>> = vec![None; ranked.len()];
    let mut tie: Vec<(u64, SimTime, BlockNumber)> = Vec::new();
    for (_, log) in data.main_observers() {
        arrivals.fill(None);
        let mut pos = 0;
        for r in log.scan_txs() {
            while pos < ids.len() && ids[pos] < r.id {
                pos += 1;
            }
            if ids.get(pos) == Some(&r.id) {
                arrivals[rank_of[pos]] = Some((r.arrival_seq, r.first_true));
                pos += 1;
            }
        }
        // The highest seq among the sender's lower nonces seen so
        // far; equal (sender, nonce) entries are taken in arrival
        // order.
        let mut max_seq_below: Option<u64> = None;
        let mut r = 0;
        while r < ranked.len() {
            let (sender, nonce, _, _) = ranked[r];
            if r == 0 || ranked[r - 1].0 != sender {
                max_seq_below = None;
            }
            let end = r + ranked[r..]
                .iter()
                .take_while(|&&(s, n, _, _)| (s, n) == (sender, nonce))
                .count();
            tie.clear();
            tie.extend((r..end).filter_map(|k| arrivals[k].map(|(seq, t)| (seq, t, ranked[k].3))));
            tie.sort_by_key(|&(seq, _, _)| seq);
            for &(seq, first_true, height) in &tie {
                let ooo = max_seq_below.is_some_and(|m| m > seq);
                total += 1;
                if ooo {
                    ooo_count += 1;
                }
                // Commit sample: 12-conf delay from this observer's own
                // first arrival.
                if let Some(t12) = observed(&block_obs, height + 12) {
                    if first_true <= t12 {
                        let d = (t12 - first_true).as_nanos();
                        if ooo {
                            out_of_order.push(d);
                        } else {
                            in_order.push(d);
                        }
                    }
                }
                max_seq_below = Some(max_seq_below.map_or(seq, |m| m.max(seq)));
            }
            r = end;
        }
    }
    OrderingReport {
        ooo_fraction: ooo_count as f64 / total.max(1) as f64,
        in_order: delay_cdf(in_order),
        out_of_order: delay_cdf(out_of_order),
    }
}

impl fmt::Display for OrderingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5 — commit delay by arrival order")?;
        writeln!(
            f,
            "out-of-order committed txs: {} (paper: 11.54%)",
            pct(self.ooo_fraction)
        )?;
        writeln!(f, "in-order:     {}", self.in_order)?;
        write!(f, "out-of-order: {}", self.out_of_order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ethmeter_chain::block::BlockBuilder;
    use ethmeter_chain::tree::BlockTree;
    use ethmeter_measure::{BlockMsgKind, CampaignData, ObserverLog, VantagePoint};
    use ethmeter_types::{NodeId, PoolId, Region, SimDuration};

    /// One observer, a 16-block chain; tx 1 in block 1, observed 5s before
    /// its block; blocks observed at sealing time.
    fn campaign_with_txs() -> CampaignData {
        let mut tree = BlockTree::new();
        let mut parent = tree.genesis_hash();
        let ib = testutil::interblock();
        let mut hashes = Vec::new();
        for i in 0..16u64 {
            let txs = if i == 0 { vec![TxId(1)] } else { vec![] };
            let b = BlockBuilder::new(parent, i + 1, PoolId(0))
                .mined_at(SimTime::ZERO + ib * (i + 1))
                .txs(txs)
                .salt(i)
                .build();
            parent = b.hash();
            hashes.push(parent);
            tree.insert(b).expect("ok");
        }
        let mut txs = ethmeter_types::FxHashMap::default();
        let t_submit = SimTime::ZERO + ib - SimDuration::from_secs(5);
        txs.insert(TxId(1), testutil::tx(1, 7, 0, t_submit));

        let mut log = ObserverLog::new();
        for (i, &h) in hashes.iter().enumerate() {
            let t = SimTime::ZERO + ib * (i as u64 + 1);
            log.record_block_msg(h, BlockMsgKind::FullBlock, NodeId(2), t, t);
        }
        log.record_tx(TxId(1), NodeId(3), t_submit, t_submit);

        let vantage = VantagePoint {
            name: "WE".into(),
            region: Region::WesternEurope,
            peer_target: 400,
            default_peers: false,
        };
        CampaignData {
            observers: vec![(vantage, log)],
            truth: testutil::truth(tree, txs),
        }
    }

    #[test]
    fn inclusion_and_confirmation_delays() {
        let data = campaign_with_txs();
        let r = analyze(&data);
        assert_eq!(r.txs_measured, 1);
        // Inclusion: tx seen 5s before block 1 observed.
        assert!((r.inclusion.quantile(0.5) - 5.0).abs() < 1e-9);
        // 12 confirmations: block 13 observed at 13 * 13.3s; delay =
        // 13*13.3 - (13.3 - 5).
        let expect = 13.0 * 13.3 - (13.3 - 5.0);
        let got = r.median_commit_12().expect("12-conf reached");
        assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
        // 36 confirmations unreachable in a 16-block campaign.
        let c36 = r
            .confirmations
            .iter()
            .find(|(k, _)| *k == 36)
            .expect("row present");
        assert!(c36.1.is_empty());
        assert!(r.to_string().contains("Figure 4"));
    }

    #[test]
    fn unobserved_txs_are_skipped() {
        let mut data = campaign_with_txs();
        // Remove the tx observation: the tx can no longer be measured.
        data.observers[0].1 = {
            let mut log = ObserverLog::new();
            for block in data.truth.tree.canonical_blocks().skip(1) {
                let t = block.mined_at();
                log.record_block_msg(block.hash(), BlockMsgKind::FullBlock, NodeId(2), t, t);
            }
            log
        };
        let r = analyze(&data);
        assert_eq!(r.txs_measured, 0);
        assert_eq!(r.txs_skipped, 1);
    }

    /// Two txs from one sender, nonce 1 arriving before nonce 0.
    fn campaign_with_ooo() -> CampaignData {
        let mut data = campaign_with_txs();
        let ib = testutil::interblock();
        // Add tx 2 (nonce 1) also committed in block 1.
        let t0 = SimTime::ZERO + ib - SimDuration::from_secs(5);
        let t1 = SimTime::ZERO + ib - SimDuration::from_secs(4);
        data.truth.txs.insert(TxId(2), testutil::tx(2, 7, 1, t1));
        // Rebuild the tree so block 1 carries both txs.
        let mut tree = BlockTree::new();
        let mut parent = tree.genesis_hash();
        for i in 0..16u64 {
            let txs = if i == 0 {
                vec![TxId(1), TxId(2)]
            } else {
                vec![]
            };
            let b = BlockBuilder::new(parent, i + 1, PoolId(0))
                .mined_at(SimTime::ZERO + ib * (i + 1))
                .txs(txs)
                .salt(i)
                .build();
            parent = b.hash();
            tree.insert(b).expect("ok");
        }
        // Observer sees nonce 1 BEFORE nonce 0.
        let mut log = ObserverLog::new();
        for block in tree.canonical_blocks().filter(|b| b.number() > 0) {
            let t = block.mined_at();
            log.record_block_msg(block.hash(), BlockMsgKind::FullBlock, NodeId(2), t, t);
        }
        log.record_tx(TxId(2), NodeId(3), t1, t1); // nonce 1 first
        log.record_tx(TxId(1), NodeId(3), t0, t0); // nonce 0 second
        data.observers[0].1 = log;
        data.truth.tree = tree;
        data
    }

    #[test]
    fn out_of_order_detection_and_split() {
        let data = campaign_with_ooo();
        let r = ordering(&data);
        // One of the two committed txs is OOO at the observer.
        assert!((r.ooo_fraction - 0.5).abs() < 1e-9, "{}", r.ooo_fraction);
        assert_eq!(r.in_order.count(), 1);
        assert_eq!(r.out_of_order.count(), 1);
        // The OOO tx (nonce 0, arrived later... no: nonce 1 arrived first,
        // but its predecessor arrived later -> nonce 1 is the OOO one).
        assert!(r.to_string().contains("Figure 5"));
    }

    #[test]
    fn in_order_campaign_has_zero_ooo() {
        let data = campaign_with_txs();
        let r = ordering(&data);
        assert_eq!(r.ooo_fraction, 0.0);
        assert_eq!(r.out_of_order.count(), 0);
    }
}

/// The hash-map implementation the merge-joins replaced, kept as the
/// reference the differential test compares against.
#[cfg(test)]
mod reference {
    use super::*;
    use ethmeter_types::{AccountId, FxHashMap, FxHashSet};

    fn block_observations(data: &CampaignData) -> FxHashMap<BlockNumber, SimTime> {
        let mut canonical: FxHashMap<BlockHash, BlockNumber> = FxHashMap::default();
        for block in data.truth.tree.canonical_blocks() {
            if block.number() > 0 {
                canonical.insert(block.hash(), block.number());
            }
        }
        let mut obs: FxHashMap<BlockNumber, SimTime> = FxHashMap::default();
        data.for_each_main_block(|hash, group| {
            if let Some(&number) = canonical.get(&hash) {
                let earliest = group.iter().map(|(_, r)| r.first_true).min();
                obs.insert(number, earliest.expect("non-empty group"));
            }
        });
        obs
    }

    fn tx_observations(data: &CampaignData) -> FxHashMap<TxId, SimTime> {
        let mut obs: FxHashMap<TxId, SimTime> = FxHashMap::default();
        data.for_each_main_tx(|id, group| {
            let earliest = group.iter().map(|(_, r)| r.first_true).min();
            obs.insert(id, earliest.expect("non-empty group"));
        });
        obs
    }

    pub(super) fn analyze(data: &CampaignData) -> CommitReport {
        let block_obs = block_observations(data);
        let tx_obs = tx_observations(data);
        let mut inclusion = Vec::new();
        let mut confs: Vec<(u64, Vec<f64>)> = CONFIRMATION_DEPTHS
            .iter()
            .map(|&k| (k, Vec::new()))
            .collect();
        let mut measured = 0u64;
        let mut skipped = 0u64;
        let mut seen: FxHashSet<TxId> = FxHashSet::default();
        for block in data.truth.tree.canonical_blocks() {
            if block.number() == 0 {
                continue;
            }
            let h = block.number();
            let Some(&t_inc) = block_obs.get(&h) else {
                skipped += block.txs().len() as u64;
                continue;
            };
            for &txid in block.txs() {
                if !seen.insert(txid) {
                    continue;
                }
                let Some(&t_tx) = tx_obs.get(&txid) else {
                    skipped += 1;
                    continue;
                };
                if t_tx > t_inc {
                    skipped += 1;
                    continue;
                }
                measured += 1;
                inclusion.push((t_inc - t_tx).as_secs_f64());
                for (k, sink) in &mut confs {
                    if let Some(&t_k) = block_obs.get(&(h + *k)) {
                        sink.push((t_k - t_tx).as_secs_f64());
                    }
                }
            }
        }
        CommitReport {
            inclusion: Cdf::from_values(inclusion),
            confirmations: confs
                .into_iter()
                .map(|(k, v)| (k, Cdf::from_values(v)))
                .collect(),
            txs_measured: measured,
            txs_skipped: skipped,
        }
    }

    pub(super) fn ordering(data: &CampaignData) -> OrderingReport {
        let (mut ooo_count, mut total) = (0u64, 0u64);
        let (mut in_order, mut out_of_order) = (Vec::new(), Vec::new());
        let block_obs = block_observations(data);
        let mut committed: FxHashMap<TxId, (AccountId, u64, BlockNumber)> = FxHashMap::default();
        for block in data.truth.tree.canonical_blocks() {
            for &txid in block.txs() {
                if let Some(tx) = data.truth.txs.get(&txid) {
                    committed
                        .entry(txid)
                        .or_insert((tx.sender, tx.nonce, block.number()));
                }
            }
        }
        let n_obs = data.main_observers().count();
        type SenderWork = FxHashMap<AccountId, Vec<(u64, u64, TxId, SimTime)>>;
        let mut by_sender: Vec<SenderWork> = vec![FxHashMap::default(); n_obs];
        data.for_each_main_tx(|id, group| {
            if let Some(&(sender, nonce, _)) = committed.get(&id) {
                for &(i, r) in group {
                    by_sender[i].entry(sender).or_default().push((
                        nonce,
                        r.arrival_seq,
                        id,
                        r.first_true,
                    ));
                }
            }
        });
        for per_observer in &mut by_sender {
            for txs in per_observer.values_mut() {
                txs.sort_unstable();
                let mut max_seq_below = 0u64;
                let mut any_below = false;
                for &(_, seq, id, first_true) in txs.iter() {
                    let ooo = any_below && max_seq_below > seq;
                    total += 1;
                    if ooo {
                        ooo_count += 1;
                    }
                    let (_, _, height) = committed[&id];
                    if let Some(&t12) = block_obs.get(&(height + 12)) {
                        if first_true <= t12 {
                            let d = (t12 - first_true).as_secs_f64();
                            if ooo {
                                out_of_order.push(d);
                            } else {
                                in_order.push(d);
                            }
                        }
                    }
                    if seq > max_seq_below {
                        max_seq_below = seq;
                    }
                    any_below = true;
                }
            }
        }
        OrderingReport {
            ooo_fraction: ooo_count as f64 / total.max(1) as f64,
            in_order: Cdf::from_values(in_order),
            out_of_order: Cdf::from_values(out_of_order),
        }
    }
}

/// The merge-join analyses against [`reference`] over random campaigns:
/// txs included twice on the canonical chain, equal nonces from one
/// sender, unobserved and post-inclusion txs, unobserved and side-chain
/// blocks, txs missing from the table — each on in-memory and on spilled
/// logs.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::testutil;
    use ethmeter_chain::block::BlockBuilder;
    use ethmeter_chain::tree::BlockTree;
    use ethmeter_measure::{BlockMsgKind, ObserverLog, SpillConfig, VantagePoint};
    use ethmeter_types::{FxHashMap, NodeId, PoolId, SimDuration};
    use proptest::TestRng;

    const CAMPAIGNS: u64 = 64;

    fn secs(rng: &mut TestRng, max_s: u64) -> SimTime {
        SimTime::from_nanos(rng.next_u64() % (max_s * 1_000_000_000))
    }

    /// Campaign `seed`, recorded in memory (`spill: None`) or under a
    /// per-observer spill budget. The same seed gives the same records
    /// either way.
    fn campaign(seed: u64, spill: Option<usize>) -> CampaignData {
        let mut rng = TestRng::deterministic(&format!("commit-differential-{seed}"));
        let pool_size = 1 + rng.next_u64() % 60;
        let mut table: FxHashMap<TxId, ethmeter_chain::tx::Transaction> = FxHashMap::default();
        let mut pool = Vec::new();
        for i in 0..pool_size {
            let id = TxId(rng.next_u64() | 1);
            // Few senders and nonces: equal (sender, nonce) pairs occur.
            let (sender, nonce) = ((rng.next_u64() % 4) as u32, rng.next_u64() % 6);
            // One tx in ten is missing from the table.
            if rng.next_u64() % 10 != 0 {
                table.insert(id, testutil::tx(id.raw(), sender, nonce, SimTime::ZERO));
            }
            pool.push((id, i));
        }
        let length = 3 + rng.next_u64() % 30;
        let mut tree = BlockTree::new();
        let mut parent = tree.genesis_hash();
        let mut blocks = Vec::new();
        let ib = testutil::interblock();
        for n in 1..=length {
            // Draws with replacement: a tx can land in several blocks.
            let picks = rng.next_u64() % 5;
            let txs: Vec<TxId> = (0..picks)
                .map(|_| pool[(rng.next_u64() % pool_size) as usize].0)
                .collect();
            let at = SimTime::ZERO + ib * n;
            let block = BlockBuilder::new(parent, n, PoolId(0))
                .mined_at(at)
                .txs(txs.clone())
                .salt(n)
                .build();
            let hash = block.hash();
            tree.insert(block).expect("canonical block attaches");
            blocks.push((hash, at));
            if rng.next_u64() % 5 == 0 {
                let side = BlockBuilder::new(parent, n, PoolId(1))
                    .mined_at(at)
                    .txs(txs)
                    .salt(n ^ 0xa5a5)
                    .build();
                blocks.push((side.hash(), at));
                tree.insert(side).expect("side block attaches");
            }
            parent = hash;
        }
        let horizon_s = 15 * (length + 1);
        let mut observers = Vec::new();
        for vantage in VantagePoint::paper_all() {
            let mut log = match spill {
                None => ObserverLog::new(),
                Some(budget) => ObserverLog::with_spill(SpillConfig {
                    dir: std::env::temp_dir().join(format!("ethmeter-commit-diff-{seed}")),
                    budget_bytes: budget,
                    prefix: SpillConfig::sanitize(&vantage.name),
                }),
            };
            for &(hash, at) in &blocks {
                // One block in eight goes unobserved here.
                for _ in 0..rng.next_u64() % 8 {
                    let t = at + SimDuration::from_millis(rng.next_u64() % 3_000);
                    log.record_block_msg(hash, BlockMsgKind::FullBlock, NodeId(1), t, t);
                }
            }
            // Arrival order is a random walk over the pool, re-drawing
            // some txs (ignored duplicates) and skipping others; times
            // are independent of it, so some arrive after inclusion.
            for _ in 0..pool_size + pool_size / 2 {
                let (id, _) = pool[(rng.next_u64() % pool_size) as usize];
                let t = secs(&mut rng, horizon_s);
                log.record_tx(id, NodeId(2), t, t);
            }
            observers.push((vantage, log));
        }
        CampaignData {
            observers,
            truth: testutil::truth(tree, table),
        }
    }

    #[test]
    fn merge_joins_match_the_hash_map_reference() {
        let (mut skipped, mut ooo, mut spilled) = (0, 0, 0);
        for seed in 0..CAMPAIGNS {
            let mem = campaign(seed, None);
            let fig4 = reference::analyze(&mem);
            let fig5 = reference::ordering(&mem);
            assert_eq!(analyze(&mem), fig4, "campaign {seed}, in memory");
            assert_eq!(ordering(&mem), fig5, "campaign {seed}, in memory");
            let budget = [1, 64, 512, 4_096][seed as usize % 4];
            let disk = campaign(seed, Some(budget));
            spilled += disk
                .observers
                .iter()
                .map(|(_, l)| l.spilled_segments())
                .sum::<usize>();
            assert_eq!(analyze(&disk), fig4, "campaign {seed}, spilled");
            assert_eq!(ordering(&disk), fig5, "campaign {seed}, spilled");
            skipped += fig4.txs_skipped;
            ooo += fig5.out_of_order.count();
        }
        // The generator reaches the paths it is meant to cover.
        assert!(skipped > 0 && ooo > 0 && spilled > 0);
    }
}
