//! Traffic accounting: total bytes, message count and per-link totals.
//! Bandwidth over time is the telemetry sampler's `net.bytes_total`
//! series.

use dpc_common::{FastMap, NodeId};

/// Accumulated traffic statistics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    total_bytes: u64,
    messages: u64,
    per_link: FastMap<(NodeId, NodeId), u64>,
}

impl TrafficStats {
    /// Fresh, empty stats.
    pub fn new() -> TrafficStats {
        TrafficStats::default()
    }

    /// Record one message of `bytes` sent from `src` to `dst`.
    pub fn record(&mut self, src: NodeId, dst: NodeId, bytes: usize) {
        self.total_bytes += bytes as u64;
        self.messages += 1;
        // Normalize link direction so a link's two directions aggregate.
        let key = if src.0 <= dst.0 {
            (src, dst)
        } else {
            (dst, src)
        };
        *self.per_link.entry(key).or_insert(0) += bytes as u64;
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total bytes carried by the (undirected) link `a`-`b`.
    pub fn link_bytes(&self, a: NodeId, b: NodeId) -> u64 {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.per_link.get(&key).copied().unwrap_or(0)
    }

    /// All per-link byte totals, sorted by endpoint pair (links are
    /// undirected; the lower node id comes first). The stable ordering
    /// makes this directly usable in machine-readable reports.
    pub fn per_link_totals(&self) -> Vec<((NodeId, NodeId), u64)> {
        let mut v: Vec<_> = self.per_link.iter().map(|(&k, &b)| (k, b)).collect();
        v.sort_unstable_by_key(|&((a, b), _)| (a.0, b.0));
        v
    }

    /// Reset all counters (e.g. between measurement phases).
    pub fn clear(&mut self) {
        *self = TrafficStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn totals_accumulate() {
        let mut s = TrafficStats::new();
        s.record(n(0), n(1), 500);
        s.record(n(1), n(0), 300);
        assert_eq!(s.total_bytes(), 800);
        assert_eq!(s.messages(), 2);
    }

    #[test]
    fn link_direction_is_normalized() {
        let mut s = TrafficStats::new();
        s.record(n(2), n(5), 10);
        s.record(n(5), n(2), 5);
        assert_eq!(s.link_bytes(n(2), n(5)), 15);
        assert_eq!(s.link_bytes(n(5), n(2)), 15);
        assert_eq!(s.link_bytes(n(0), n(1)), 0);
    }

    #[test]
    fn clear_resets() {
        let mut s = TrafficStats::new();
        s.record(n(0), n(1), 10);
        s.clear();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.messages(), 0);
        assert_eq!(s.link_bytes(n(0), n(1)), 0);
    }

    #[test]
    fn per_link_totals_are_sorted_and_normalized() {
        let mut s = TrafficStats::new();
        s.record(n(5), n(2), 10);
        s.record(n(0), n(1), 3);
        s.record(n(2), n(5), 4);
        assert_eq!(
            s.per_link_totals(),
            vec![((n(0), n(1)), 3), ((n(2), n(5)), 14)]
        );
    }
}
