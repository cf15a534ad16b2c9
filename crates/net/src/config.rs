//! Network protocol configuration.

use ethmeter_types::SimDuration;

/// How transactions fan out from a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxRelayPolicy {
    /// Geth 1.8 behavior: forward to every peer not known to have the
    /// transaction. Exact, but O(edges) messages per transaction.
    #[default]
    All,
    /// Forward to √(peers) unknowing peers. A scaling approximation for
    /// large runs: coverage stays near-complete (gossip still reaches
    /// everyone with high probability) while message volume drops by an
    /// order of magnitude. Arrival-order statistics — what §III-C2 needs —
    /// are preserved.
    Sqrt,
}

/// Tunables of the simulated devp2p layer, with Geth-1.8 defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Target peer count of an ordinary node (Geth default: 25).
    /// Measurement nodes take theirs from their vantage point instead.
    pub default_peer_target: usize,
    /// Hard cap on an ordinary node's degree (inbound included).
    pub max_peer_cap: usize,
    /// Transaction relay fanout policy.
    pub tx_relay: TxRelayPolicy,
    /// How far behind the local head a block may lag and still be relayed.
    /// Like Geth, a node relays any valid block this recent, head
    /// candidate or side block.
    pub relay_window: u64,
    /// Fetcher timeout before re-requesting an announced block elsewhere.
    pub fetch_timeout: SimDuration,
    /// Base block validation/import latency (header checks, PoW verify).
    pub import_base: SimDuration,
    /// Additional import latency per transaction (state execution).
    pub import_per_tx: SimDuration,
    /// Log-normal sigma applied multiplicatively to import latency.
    pub import_jitter_sigma: f64,
    /// Fixed per-message processing overhead at the receiver.
    pub proc_overhead: SimDuration,
    /// Heights of history a node's header view retains.
    pub header_window: u64,
    /// Capacity of per-peer known-block sets (Geth: 1024).
    pub known_blocks_cap: usize,
    /// Capacity of per-peer and node-level known-tx sets. Geth uses
    /// 32,768; deduplication only needs a horizon comfortably longer than
    /// network propagation, and one set exists per (node, peer) pair, so
    /// the simulator defaults far lower to keep large campaigns in memory.
    pub known_txs_cap: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            default_peer_target: 25,
            max_peer_cap: 60,
            tx_relay: TxRelayPolicy::All,
            relay_window: 7,
            fetch_timeout: SimDuration::from_millis(500),
            // Geth 1.8-era mainnet imports (header + PoW check + state
            // execution) take 100-300ms; the base dominates because scaled
            // scenarios carry fewer transactions per block than mainnet.
            import_base: SimDuration::from_millis(150),
            import_per_tx: SimDuration::from_micros(900),
            import_jitter_sigma: 0.5,
            proc_overhead: SimDuration::from_micros(300),
            header_window: 96,
            known_blocks_cap: 1024,
            known_txs_cap: 3_000,
        }
    }
}

impl NetConfig {
    /// Geth's direct-propagation fanout: √(peer count), at least 1 for a
    /// connected node.
    pub fn push_fanout(&self, peer_count: usize) -> usize {
        if peer_count == 0 {
            0
        } else {
            (peer_count as f64).sqrt().ceil() as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_geth() {
        let c = NetConfig::default();
        assert_eq!(c.default_peer_target, 25);
        assert_eq!(c.tx_relay, TxRelayPolicy::All);
        assert_eq!(c.relay_window, 7);
        assert_eq!(c.known_blocks_cap, 1024);
    }

    #[test]
    fn push_fanout_is_sqrt() {
        let c = NetConfig::default();
        assert_eq!(c.push_fanout(25), 5);
        assert_eq!(c.push_fanout(24), 5); // ceil
        assert_eq!(c.push_fanout(1), 1);
        assert_eq!(c.push_fanout(0), 0);
        assert_eq!(c.push_fanout(100), 10);
    }
}
