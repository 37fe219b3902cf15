//! The discrete-event scheduler.
//!
//! [`Sim`] combines a [`Network`], a simulated clock, a priority queue of
//! pending message deliveries, per-direction link serialization (a message
//! must finish transmitting before the next one starts) and traffic
//! accounting. It is generic over the message payload `M`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dpc_common::{Error, FastMap, NodeId, Result};
use dpc_telemetry::{AttrValue, Counter, Hist, PerNode, SpanContext, TelemetryHandle};

use crate::network::Network;
use crate::stats::TrafficStats;
use crate::time::SimTime;

/// A pending delivery: the message plus the trace context it rides under
/// (the envelope that carries causality across hops).
struct Pending<M> {
    at: SimTime,
    seq: u64,
    dst: NodeId,
    msg: M,
    span: SpanContext,
}

// Ordering for the heap: earliest time first, ties broken by insertion
// sequence so delivery is deterministic and FIFO-per-link.
impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A delivered message: when, to whom, the payload, and the trace
/// context the sender attached (the last hop's span for traced network
/// sends, so the receiver's spans parent to the wire time).
#[derive(Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Simulated delivery time.
    pub at: SimTime,
    /// Receiving node.
    pub dst: NodeId,
    /// The payload.
    pub msg: M,
    /// Propagated trace context ([`SpanContext::NONE`] when untraced).
    pub span: SpanContext,
}

/// Deterministic per-link loss state: every `every`-th message on the
/// directed link is dropped.
#[derive(Debug, Clone)]
struct Loss {
    every: u64,
    count: u64,
}

/// The simulator's metric handles, registered once in
/// [`Sim::set_telemetry`].
struct NetMetrics {
    msgs_sent: PerNode<Counter>,
    msgs_dropped: PerNode<Counter>,
    queue_delay_ns: Hist,
}

/// The discrete-event simulator.
pub struct Sim<M> {
    net: Network,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Pending<M>>>,
    /// Next instant each directed link is free to start transmitting.
    link_free: FastMap<(NodeId, NodeId), SimTime>,
    /// Cumulative transmission time charged per directed link,
    /// nanoseconds (drives the utilization time series).
    link_busy: FastMap<(NodeId, NodeId), u64>,
    /// Fault injection (see [`Sim::inject_loss`]).
    loss: FastMap<(NodeId, NodeId), Loss>,
    dropped: u64,
    stats: TrafficStats,
    telemetry: Option<TelemetryHandle>,
    metrics: Option<NetMetrics>,
    /// The path of the routed send in flight, reused across sends.
    route: Vec<NodeId>,
}

impl<M> Sim<M> {
    /// Wrap a network in a simulator starting at time zero.
    pub fn new(net: Network) -> Sim<M> {
        Sim {
            net,
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            link_free: FastMap::default(),
            link_busy: FastMap::default(),
            loss: FastMap::default(),
            dropped: 0,
            stats: TrafficStats::new(),
            telemetry: None,
            metrics: None,
            route: Vec::new(),
        }
    }

    /// Attach a telemetry sink: per-node message and drop counters and a
    /// queueing-delay histogram are recorded through it, for the nodes the
    /// network has now.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        let n = self.net.node_count();
        self.metrics = Some(NetMetrics {
            msgs_sent: telemetry.node_counters("net.msgs_sent", n),
            msgs_dropped: telemetry.node_counters("net.msgs_dropped", n),
            queue_delay_ns: telemetry.hist("net.queue_delay_ns"),
        });
        self.telemetry = Some(telemetry);
    }

    /// Record one hop's telemetry: `queued` is how long the message waited
    /// for the directed link to free up before transmission began.
    fn record_hop(&self, src: NodeId, queued: SimTime) {
        if let Some(m) = &self.metrics {
            m.msgs_sent.at(src.0).add(1);
            m.queue_delay_ns.observe(queued.as_nanos());
        }
    }

    /// The underlying network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Mutable traffic statistics (e.g. to clear between phases).
    pub fn stats_mut(&mut self) -> &mut TrafficStats {
        &mut self.stats
    }

    /// Number of pending deliveries.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Inject deterministic loss on the directed link `src -> dst`: every
    /// `every`-th message transmitted on it is silently dropped (the
    /// bandwidth it consumed is still accounted — it was on the wire).
    /// Used for failure-injection testing.
    ///
    /// # Panics
    ///
    /// If `every` is zero, or if `src` and `dst` share no direct link: no
    /// message could ever cross it, so the injection would test nothing.
    pub fn inject_loss(&mut self, src: NodeId, dst: NodeId, every: u64) {
        assert!(every >= 1, "loss period must be at least 1");
        assert!(
            self.net.link(src, dst).is_some(),
            "no link {src}-{dst} to inject loss on"
        );
        self.loss.insert((src, dst), Loss { every, count: 0 });
    }

    /// Remove loss injection from a directed link.
    pub fn clear_loss(&mut self, src: NodeId, dst: NodeId) {
        self.loss.remove(&(src, dst));
    }

    /// Messages dropped by fault injection so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Does the fault injector claim the next message on this hop?
    fn hop_drops(&mut self, src: NodeId, dst: NodeId) -> bool {
        if let Some(l) = self.loss.get_mut(&(src, dst)) {
            l.count += 1;
            if l.count % l.every == 0 {
                self.dropped += 1;
                if let Some(m) = &self.metrics {
                    m.msgs_dropped.at(src.0).add(1);
                }
                return true;
            }
        }
        false
    }

    /// Record one traced link hop as a `net.hop` span with
    /// `net.enqueue` / `net.serialize` / `net.propagate` children. All
    /// times are known at send time (discrete-event simulation), so the
    /// spans are created closed — traced sends can never leak open spans,
    /// even when the hop drops the message. Returns the hop span, the
    /// context the delivered message should carry.
    #[allow(clippy::too_many_arguments)]
    fn hop_span(
        &self,
        ctx: SpanContext,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        start: SimTime,
        free: SimTime,
        tx_done: SimTime,
        arrival: SimTime,
        dropped: bool,
    ) -> SpanContext {
        if !ctx.sampled {
            return ctx;
        }
        let Some(t) = &self.telemetry else {
            return ctx;
        };
        let node = Some(src.0);
        let hop = t.span_child("net.hop", node, ctx, start.as_nanos());
        t.span_attr(hop, "link", || {
            AttrValue::Str(format!("{}->{}", src.0, dst.0))
        });
        t.span_attr(hop, "bytes", || AttrValue::UInt(bytes as u64));
        let enq = t.span_child("net.enqueue", node, hop, start.as_nanos());
        t.span_end(enq, free.as_nanos());
        let ser = t.span_child("net.serialize", node, hop, free.as_nanos());
        t.span_end(ser, tx_done.as_nanos());
        if dropped {
            t.span_attr(hop, "dropped", || AttrValue::UInt(1));
            t.span_end(hop, tx_done.as_nanos());
        } else {
            let prop = t.span_child("net.propagate", node, hop, tx_done.as_nanos());
            t.span_end(prop, arrival.as_nanos());
            t.span_end(hop, arrival.as_nanos());
        }
        hop
    }

    /// Send `msg` of size `bytes` from `src` to adjacent `dst`.
    ///
    /// Delivery time accounts for propagation latency, transmission delay
    /// and queueing behind earlier messages on the same directed link.
    /// Returns the delivery time.
    pub fn send(&mut self, src: NodeId, dst: NodeId, bytes: usize, msg: M) -> Result<SimTime> {
        self.send_traced(src, dst, bytes, msg, SpanContext::NONE)
    }

    /// [`Sim::send`] carrying a trace context: the hop is recorded as a
    /// closed `net.hop` span tree under `ctx`, and the delivered message
    /// carries the hop span so the receiver's work parents to it.
    pub fn send_traced(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        msg: M,
        ctx: SpanContext,
    ) -> Result<SimTime> {
        let (at, span, dropped) = self.hop(src, dst, bytes, self.now, ctx)?;
        if !dropped {
            self.push(at, dst, msg, span);
        }
        Ok(at)
    }

    /// Put `bytes` on the directed link `src -> dst`, ready to depart at
    /// `depart`: queue behind the link's earlier messages, charge the
    /// traffic stats and telemetry, and let the fault injector claim it.
    /// Returns the arrival time (the would-have-been arrival when
    /// dropped), the span the delivery carries, and whether it dropped.
    fn hop(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        depart: SimTime,
        ctx: SpanContext,
    ) -> Result<(SimTime, SpanContext, bool)> {
        let link = self
            .net
            .link(src, dst)
            .ok_or_else(|| Error::Network(format!("no link {src}-{dst}")))?;
        let free = self
            .link_free
            .get(&(src, dst))
            .copied()
            .unwrap_or(SimTime::ZERO)
            .max(depart);
        let tx_done = free + link.transmission_delay(bytes);
        self.link_free.insert((src, dst), tx_done);
        *self.link_busy.entry((src, dst)).or_insert(0) += tx_done.as_nanos() - free.as_nanos();
        let at = tx_done + link.latency;
        self.stats.record(src, dst, bytes);
        self.record_hop(src, free - depart);
        let dropped = self.hop_drops(src, dst);
        let hop = self.hop_span(ctx, src, dst, bytes, depart, free, tx_done, at, dropped);
        Ok((at, hop, dropped))
    }

    /// Send `msg` from `src` to a possibly non-adjacent `dst`, hop by hop
    /// along the latency-shortest path. Every traversed link carries the
    /// message (and is charged in the traffic stats); per-direction link
    /// queuing applies at each hop. If `src == dst` the message is
    /// delivered locally with zero delay. Returns the delivery time.
    pub fn send_routed(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        msg: M,
    ) -> Result<SimTime> {
        self.send_routed_traced(src, dst, bytes, msg, SpanContext::NONE)
    }

    /// [`Sim::send_routed`] carrying a trace context: every traversed
    /// link records one closed `net.hop` span tree under `ctx`, and the
    /// delivered message carries the final hop's span.
    pub fn send_routed_traced(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        msg: M,
        ctx: SpanContext,
    ) -> Result<SimTime> {
        if src == dst {
            let at = self.now;
            self.push(at, dst, msg, ctx);
            return Ok(at);
        }
        let mut path = std::mem::take(&mut self.route);
        let sent = self
            .net
            .latency_tree(src)
            .and_then(|tree| tree.path_into(dst, &mut path))
            .and_then(|()| self.send_along(&path, bytes, msg, ctx));
        self.route = path;
        sent
    }

    /// Carry `msg` hop by hop along `path` (at least two nodes), starting
    /// now; see [`Sim::send_routed_traced`].
    fn send_along(
        &mut self,
        path: &[NodeId],
        bytes: usize,
        msg: M,
        ctx: SpanContext,
    ) -> Result<SimTime> {
        let mut t = self.now;
        let mut carried = ctx;
        for w in path.windows(2) {
            let dropped;
            (t, carried, dropped) = self.hop(w[0], w[1], bytes, t, ctx)?;
            if dropped {
                // Lost en route: the hops so far carried it, nothing is
                // delivered. The returned time is the would-have-been
                // arrival at the drop point.
                return Ok(t);
            }
        }
        self.push(t, path[path.len() - 1], msg, carried);
        Ok(t)
    }

    /// Schedule a local event at `node` after `delay` (no network traffic).
    pub fn schedule_local(&mut self, node: NodeId, delay: SimTime, msg: M) -> SimTime {
        self.schedule_local_traced(node, delay, msg, SpanContext::NONE)
    }

    /// [`Sim::schedule_local`] carrying a trace context through to the
    /// delivery.
    pub fn schedule_local_traced(
        &mut self,
        node: NodeId,
        delay: SimTime,
        msg: M,
        ctx: SpanContext,
    ) -> SimTime {
        let at = self.now + delay;
        self.push(at, node, msg, ctx);
        at
    }

    /// Schedule an event at an absolute time (used by workload injectors).
    /// Times in the past are clamped to `now`.
    pub fn schedule_at(&mut self, node: NodeId, at: SimTime, msg: M) -> SimTime {
        self.schedule_at_traced(node, at, msg, SpanContext::NONE)
    }

    /// [`Sim::schedule_at`] carrying a trace context through to the
    /// delivery.
    pub fn schedule_at_traced(
        &mut self,
        node: NodeId,
        at: SimTime,
        msg: M,
        ctx: SpanContext,
    ) -> SimTime {
        let at = at.max(self.now);
        self.push(at, node, msg, ctx);
        at
    }

    fn push(&mut self, at: SimTime, dst: NodeId, msg: M, span: SpanContext) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Pending {
            at,
            seq,
            dst,
            msg,
            span,
        }));
    }

    /// Pop the next delivery and advance the clock to it.
    pub fn pop(&mut self) -> Option<Delivery<M>> {
        let Reverse(p) = self.heap.pop()?;
        debug_assert!(p.at >= self.now, "time went backwards");
        self.now = p.at;
        Some(Delivery {
            at: p.at,
            dst: p.dst,
            msg: p.msg,
            span: p.span,
        })
    }

    /// Record the network layer's time-series gauges at sampling stamp
    /// `stamp` (from [`dpc_telemetry::Telemetry::tick`] /
    /// `sample_now`): event-heap depth, cumulative bytes on the wire,
    /// per-directed-link queue backlog (nanoseconds until the link is
    /// free) and utilization (busy time over elapsed simulated time,
    /// clamped to 1.0 — transmission time is charged at send time for
    /// the future, so it can momentarily exceed the elapsed clock), and
    /// per-undirected-link cumulative bytes. No-op when the telemetry
    /// sink is absent or sampling is disabled.
    pub fn record_timeseries(&self, stamp: u64) {
        let Some(t) = &self.telemetry else {
            return;
        };
        let mut entries: Vec<(String, f64)> = vec![
            ("net.heap_depth".to_string(), self.heap.len() as f64),
            (
                "net.bytes_total".to_string(),
                self.stats.total_bytes() as f64,
            ),
        ];
        let now = self.now.as_nanos();
        let mut links: Vec<_> = self.link_free.iter().collect();
        links.sort_by_key(|(&(a, b), _)| (a.0, b.0));
        for (&(a, b), &free) in links {
            let backlog = free.as_nanos().saturating_sub(now);
            entries.push((
                format!("net.link_backlog_ns#{}->{}", a.0, b.0),
                backlog as f64,
            ));
            let busy = self.link_busy.get(&(a, b)).copied().unwrap_or(0);
            let util = if stamp == 0 {
                0.0
            } else {
                (busy as f64 / stamp as f64).min(1.0)
            };
            entries.push((format!("net.link_util#{}->{}", a.0, b.0), util));
        }
        for ((a, b), bytes) in self.stats.per_link_totals() {
            entries.push((format!("net.link_bytes#{}-{}", a.0, b.0), bytes as f64));
        }
        t.ts_record_all(stamp, entries);
    }

    /// Pop the next delivery only if it occurs at or before `deadline`.
    /// If none does, the clock advances to `deadline` and `None` returns.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<Delivery<M>> {
        match self.heap.peek() {
            Some(Reverse(p)) if p.at <= deadline => self.pop(),
            _ => {
                self.now = self.now.max(deadline);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn two_node_sim() -> Sim<&'static str> {
        let mut net = Network::with_nodes(2);
        // 1 ms latency, 8 Kbps => 1 byte takes 1 ms to transmit.
        net.add_link(n(0), n(1), Link::new(SimTime::from_millis(1), 8_000))
            .unwrap();
        Sim::new(net)
    }

    #[test]
    fn send_computes_delay() {
        let mut sim = two_node_sim();
        let at = sim.send(n(0), n(1), 1, "a").unwrap();
        // 1 ms transmission + 1 ms latency.
        assert_eq!(at, SimTime::from_millis(2));
        let d = sim.pop().unwrap();
        assert_eq!(d.dst, n(1));
        assert_eq!(d.msg, "a");
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    fn link_serializes_back_to_back_sends() {
        let mut sim = two_node_sim();
        let a = sim.send(n(0), n(1), 1, "a").unwrap();
        let b = sim.send(n(0), n(1), 1, "b").unwrap();
        // Second message queues behind the first's transmission.
        assert_eq!(a, SimTime::from_millis(2));
        assert_eq!(b, SimTime::from_millis(3));
        assert_eq!(sim.pop().unwrap().msg, "a");
        assert_eq!(sim.pop().unwrap().msg, "b");
    }

    #[test]
    fn opposite_directions_do_not_queue() {
        let mut sim = two_node_sim();
        let a = sim.send(n(0), n(1), 1, "a").unwrap();
        let b = sim.send(n(1), n(0), 1, "b").unwrap();
        assert_eq!(a, b, "directions are independent");
    }

    #[test]
    fn send_requires_adjacency() {
        let mut net = Network::with_nodes(3);
        net.add_link(n(0), n(1), Link::new(SimTime::ZERO, 1_000))
            .unwrap();
        let mut sim: Sim<()> = Sim::new(net);
        assert!(sim.send(n(0), n(2), 1, ()).is_err());
    }

    #[test]
    fn deliveries_are_time_ordered() {
        let mut sim = two_node_sim();
        sim.schedule_local(n(0), SimTime::from_millis(5), "late");
        sim.schedule_local(n(0), SimTime::from_millis(1), "early");
        assert_eq!(sim.pop().unwrap().msg, "early");
        assert_eq!(sim.pop().unwrap().msg, "late");
        assert!(sim.pop().is_none());
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let mut sim = two_node_sim();
        for name in ["a", "b", "c"] {
            sim.schedule_local(n(0), SimTime::from_millis(1), name);
        }
        assert_eq!(sim.pop().unwrap().msg, "a");
        assert_eq!(sim.pop().unwrap().msg, "b");
        assert_eq!(sim.pop().unwrap().msg, "c");
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut sim = two_node_sim();
        sim.schedule_local(n(0), SimTime::from_millis(10), "x");
        assert!(sim.pop_until(SimTime::from_millis(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_millis(5));
        let d = sim.pop_until(SimTime::from_millis(20)).unwrap();
        assert_eq!(d.msg, "x");
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn schedule_at_clamps_past_times() {
        let mut sim = two_node_sim();
        sim.schedule_local(n(0), SimTime::from_millis(10), "first");
        sim.pop().unwrap();
        let at = sim.schedule_at(n(0), SimTime::from_millis(1), "past");
        assert_eq!(at, SimTime::from_millis(10));
    }

    #[test]
    fn send_routed_charges_every_hop() {
        // 3-node line; routed send 0 -> 2 crosses both links.
        let mut net = Network::with_nodes(3);
        let l = Link::new(SimTime::from_millis(1), 8_000); // 1 B/ms
        net.add_link(n(0), n(1), l).unwrap();
        net.add_link(n(1), n(2), l).unwrap();
        let mut sim = Sim::new(net);
        let at = sim.send_routed(n(0), n(2), 1, "x").unwrap();
        // Per hop: 1 ms tx + 1 ms latency; two hops.
        assert_eq!(at, SimTime::from_millis(4));
        assert_eq!(sim.stats().link_bytes(n(0), n(1)), 1);
        assert_eq!(sim.stats().link_bytes(n(1), n(2)), 1);
        assert_eq!(sim.stats().total_bytes(), 2);
        let d = sim.pop().unwrap();
        assert_eq!(d.dst, n(2));
    }

    #[test]
    fn send_routed_to_self_is_immediate_and_free() {
        let mut sim = two_node_sim();
        let at = sim.send_routed(n(0), n(0), 100, "x").unwrap();
        assert_eq!(at, SimTime::ZERO);
        assert_eq!(sim.stats().total_bytes(), 0);
        assert_eq!(sim.pop().unwrap().dst, n(0));
    }

    #[test]
    fn send_routed_disconnected_errors() {
        let net = Network::with_nodes(2); // no links
        let mut sim: Sim<()> = Sim::new(net);
        assert!(sim.send_routed(n(0), n(1), 1, ()).is_err());
    }

    #[test]
    fn traffic_is_recorded() {
        let mut sim = two_node_sim();
        sim.send(n(0), n(1), 100, "a").unwrap();
        sim.send(n(0), n(1), 50, "b").unwrap();
        assert_eq!(sim.stats().total_bytes(), 150);
        assert_eq!(sim.stats().messages(), 2);
        assert_eq!(sim.stats().link_bytes(n(0), n(1)), 150);
    }

    /// Accounting boundary: on a multi-hop run, the per-link totals are a
    /// complete partition of the global byte count — nothing is double
    /// counted across hops and nothing escapes attribution.
    #[test]
    fn per_link_bytes_partition_global_total() {
        // 4-node line; every routed send crosses 1..=3 links.
        let mut net = Network::with_nodes(4);
        let l = Link::new(SimTime::from_millis(1), 8_000);
        for i in 0..3 {
            net.add_link(n(i), n(i + 1), l).unwrap();
        }
        let mut sim = Sim::new(net);
        sim.send_routed(n(0), n(3), 100, "far").unwrap(); // 3 hops
        sim.send_routed(n(3), n(1), 40, "back").unwrap(); // 2 hops
        sim.send_routed(n(1), n(2), 7, "near").unwrap(); // 1 hop
        sim.send(n(2), n(3), 11, "direct").unwrap();
        let per_link: u64 = sim.stats().per_link_totals().iter().map(|&(_, b)| b).sum();
        assert_eq!(per_link, sim.stats().total_bytes());
        assert_eq!(sim.stats().total_bytes(), 3 * 100 + 2 * 40 + 7 + 11);
        // The sampled per-link series agree with the same partition.
        let telemetry = dpc_telemetry::Telemetry::handle();
        sim.set_telemetry(telemetry.clone());
        telemetry.set_timeseries(1_000_000, 64);
        sim.record_timeseries(1_000_000);
        let sampled: f64 = telemetry
            .timeseries()
            .iter()
            .filter(|(k, _)| k.starts_with("net.link_bytes#"))
            .map(|(_, pts)| pts.last().expect("sampled").1)
            .sum();
        assert_eq!(sampled as u64, sim.stats().total_bytes());
    }

    #[test]
    fn loss_injection_drops_every_nth() {
        let mut sim = two_node_sim();
        sim.inject_loss(n(0), n(1), 3);
        for name in ["a", "b", "c", "d", "e", "f"] {
            sim.send(n(0), n(1), 1, name).unwrap();
        }
        let mut delivered = Vec::new();
        while let Some(d) = sim.pop() {
            delivered.push(d.msg);
        }
        // Every 3rd message ("c" and "f") is dropped.
        assert_eq!(delivered, vec!["a", "b", "d", "e"]);
        assert_eq!(sim.dropped(), 2);
        // Bandwidth was still consumed by the dropped messages.
        assert_eq!(sim.stats().messages(), 6);
    }

    #[test]
    #[should_panic(expected = "no link n0-n2 to inject loss on")]
    fn loss_on_a_missing_link_panics() {
        let mut net = Network::with_nodes(3);
        let l = Link::new(SimTime::from_millis(1), 8_000);
        net.add_link(n(0), n(1), l).unwrap();
        net.add_link(n(1), n(2), l).unwrap();
        let mut sim: Sim<()> = Sim::new(net);
        sim.inject_loss(n(0), n(2), 1);
    }

    #[test]
    fn loss_is_per_direction() {
        let mut sim = two_node_sim();
        sim.inject_loss(n(0), n(1), 1); // drop everything 0 -> 1
        sim.send(n(0), n(1), 1, "lost").unwrap();
        sim.send(n(1), n(0), 1, "fine").unwrap();
        assert_eq!(sim.pop().unwrap().msg, "fine");
        assert!(sim.pop().is_none());
        assert_eq!(sim.dropped(), 1);
    }

    #[test]
    fn clear_loss_restores_delivery() {
        let mut sim = two_node_sim();
        sim.inject_loss(n(0), n(1), 1);
        sim.send(n(0), n(1), 1, "lost").unwrap();
        sim.clear_loss(n(0), n(1));
        sim.send(n(0), n(1), 1, "fine").unwrap();
        assert_eq!(sim.pop().unwrap().msg, "fine");
        assert!(sim.pop().is_none());
    }

    #[test]
    fn routed_send_drops_mid_path() {
        let mut net = Network::with_nodes(3);
        let l = Link::new(SimTime::from_millis(1), 8_000);
        net.add_link(n(0), n(1), l).unwrap();
        net.add_link(n(1), n(2), l).unwrap();
        let mut sim = Sim::new(net);
        sim.inject_loss(n(1), n(2), 1);
        sim.send_routed(n(0), n(2), 1, "lost").unwrap();
        assert!(sim.pop().is_none());
        // The first hop still carried the message.
        assert_eq!(sim.stats().link_bytes(n(0), n(1)), 1);
        assert_eq!(sim.stats().link_bytes(n(1), n(2)), 1);
        assert_eq!(sim.dropped(), 1);
    }

    #[test]
    fn local_scheduling_costs_no_traffic() {
        let mut sim = two_node_sim();
        sim.schedule_local(n(0), SimTime::from_millis(1), "x");
        assert_eq!(sim.stats().total_bytes(), 0);
    }

    #[test]
    fn traced_send_records_hop_span_tree() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_span_sampling(1);
        let mut sim = two_node_sim();
        sim.set_telemetry(t.clone());
        let root = t.span_root("query", Some(0), 0);
        assert!(root.sampled);
        let at = sim.send_traced(n(0), n(1), 1, "a", root).unwrap();
        assert_eq!(at, SimTime::from_millis(2));
        let d = sim.pop().unwrap();
        // The delivered context is the hop span, same trace as the root.
        assert_ne!(d.span.span, root.span);
        assert_eq!(d.span.trace, root.trace);
        t.span_end(root, sim.now().as_nanos());
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "query",
                "net.hop",
                "net.enqueue",
                "net.serialize",
                "net.propagate"
            ]
        );
        let hop = spans.iter().find(|s| s.name == "net.hop").unwrap();
        assert_eq!(hop.parent, Some(root.span));
        assert_eq!(hop.start_ns, 0);
        assert_eq!(hop.end_ns, Some(SimTime::from_millis(2).as_nanos()));
        assert!(matches!(
            hop.attr("link"),
            Some(dpc_telemetry::AttrValue::Str(s)) if s == "0->1"
        ));
        let prop = spans.iter().find(|s| s.name == "net.propagate").unwrap();
        assert_eq!(prop.parent, Some(hop.id));
        assert_eq!(prop.start_ns, SimTime::from_millis(1).as_nanos());
        // Every span closed; the group forms a well-formed tree.
        assert_eq!(t.open_span_count(), 0);
        for (_, tree) in dpc_telemetry::spans_by_trace(&spans) {
            dpc_telemetry::check_well_formed(&tree).unwrap();
        }
    }

    #[test]
    fn dropped_traced_send_leaves_no_open_spans() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_span_sampling(1);
        let mut sim = two_node_sim();
        sim.set_telemetry(t.clone());
        sim.inject_loss(n(0), n(1), 1);
        let root = t.span_root("query", Some(0), 0);
        sim.send_traced(n(0), n(1), 1, "lost", root).unwrap();
        assert!(sim.pop().is_none());
        t.span_end(root, sim.now().as_nanos());
        let spans = t.spans();
        let hop = spans.iter().find(|s| s.name == "net.hop").unwrap();
        // The hop span ends when transmission finishes, is flagged
        // dropped, and has no propagate child.
        assert_eq!(hop.end_ns, Some(SimTime::from_millis(1).as_nanos()));
        assert!(matches!(
            hop.attr("dropped"),
            Some(dpc_telemetry::AttrValue::UInt(1))
        ));
        assert!(!spans.iter().any(|s| s.name == "net.propagate"));
        assert_eq!(t.open_span_count(), 0);
        for (_, tree) in dpc_telemetry::spans_by_trace(&spans) {
            dpc_telemetry::check_well_formed(&tree).unwrap();
        }
    }

    #[test]
    fn untraced_sends_record_no_spans() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_span_sampling(1);
        let mut sim = two_node_sim();
        sim.set_telemetry(t.clone());
        sim.send(n(0), n(1), 1, "a").unwrap();
        let d = sim.pop().unwrap();
        assert_eq!(d.span, SpanContext::NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn timeseries_records_network_gauges() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_timeseries(1_000_000, 64); // 1 ms cadence
        let mut sim = two_node_sim();
        sim.set_telemetry(t.clone());
        sim.send(n(0), n(1), 1, "a").unwrap(); // 1 ms tx + 1 ms latency
        sim.send(n(0), n(1), 1, "b").unwrap();
        let stamp = SimTime::from_millis(1).as_nanos();
        sim.record_timeseries(stamp);
        assert_eq!(
            t.timeseries_get("net.heap_depth").unwrap(),
            vec![(stamp, 2.0)]
        );
        assert_eq!(
            t.timeseries_get("net.bytes_total").unwrap(),
            vec![(stamp, 2.0)]
        );
        // Two back-to-back 1-ms transmissions: 2 ms busy at a 1 ms stamp
        // clamps to full utilization; the second transmission is still
        // queued so the directed link has backlog.
        assert_eq!(
            t.timeseries_get("net.link_util#0->1").unwrap(),
            vec![(stamp, 1.0)]
        );
        let backlog = t.timeseries_get("net.link_backlog_ns#0->1").unwrap()[0].1;
        assert!(backlog > 0.0, "second send still transmitting: {backlog}");
        assert_eq!(
            t.timeseries_get("net.link_bytes#0-1").unwrap(),
            vec![(stamp, 2.0)]
        );
    }

    #[test]
    fn telemetry_counts_sends_and_drops() {
        let t = dpc_telemetry::Telemetry::handle();
        let mut sim = two_node_sim();
        sim.set_telemetry(t.clone());
        sim.inject_loss(n(0), n(1), 2);
        sim.send(n(0), n(1), 10, "a").unwrap();
        sim.send(n(0), n(1), 10, "b").unwrap(); // dropped
        assert_eq!(t.counter_total("net.msgs_sent"), 2);
        assert_eq!(t.counter_total("net.msgs_dropped"), 1);
        // The second send queued behind the first's transmission: the
        // queueing-delay histogram saw one zero and one positive wait.
        let snap = t.snapshot(sim.now().as_nanos());
        let h = &snap.hists[&("net.queue_delay_ns".to_string(), None)];
        assert_eq!(h.count, 2);
        assert!(h.max > 0);
        assert_eq!(h.min, 0);
    }
}
