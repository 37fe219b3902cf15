//! The Basic storage optimization (Section 4, Table 2).
//!
//! Basic removes the provenance nodes of intermediate event tuples inside
//! each tree: no `prov` rows are kept for base or intermediate tuples, and
//! each `ruleExec` row gains `(NLoc, NRID)` columns chaining it to the rule
//! execution that derived its triggering event. Only the *output* tuple
//! keeps a `prov` row. The full tree is recovered at query time by walking
//! the chain and re-executing the rules bottom-up (Section 4, step 2).

use dpc_common::{NodeId, Rid, Tuple, Vid};
use dpc_engine::{ProvMeta, ProvRecorder, Stage};
use dpc_ndlog::Rule;
use dpc_telemetry::TelemetryHandle;

use crate::exspan::exspan_rid;
use crate::storage::{ProvRow, ProvTable, RuleExecRow, RuleExecTable, TableGauges};

/// Wire overhead Basic tags onto each shipped tuple: the previous rule
/// execution's `(NLoc, NRID)` plus a stage byte.
pub const BASIC_META_BYTES: usize = 25;

/// Per-node Basic state.
#[derive(Debug)]
struct Node {
    prov: ProvTable,
    rule_exec: RuleExecTable,
}

/// The Basic storage-optimization recorder.
#[derive(Debug)]
pub struct BasicRecorder {
    nodes: Vec<Node>,
    gauges: Option<TableGauges>,
}

impl BasicRecorder {
    /// Create a recorder for a network of `n` nodes.
    pub fn new(n: usize) -> BasicRecorder {
        BasicRecorder {
            nodes: (0..n)
                .map(|_| Node {
                    prov: ProvTable::default(),
                    rule_exec: RuleExecTable::new(true),
                })
                .collect(),
            gauges: None,
        }
    }

    /// Push the per-table gauges for `node` to the attached telemetry.
    fn report_tables(&self, node: NodeId) {
        if let Some(g) = &self.gauges {
            g.report(node, self.row_counts(node), self.storage_at(node));
        }
    }

    /// The `prov` row for an output tuple.
    pub fn prov_row(&self, loc: NodeId, vid: &Vid) -> Option<&ProvRow> {
        self.nodes.get(loc.index())?.prov.get(vid)
    }

    /// The `ruleExec` row for `rid` at `loc`.
    pub fn rule_exec(&self, loc: NodeId, rid: &Rid) -> Option<&RuleExecRow> {
        self.nodes.get(loc.index())?.rule_exec.get(rid)
    }

    /// Row counts at `node`: `(prov, ruleExec)`.
    pub fn row_counts(&self, node: NodeId) -> (usize, usize) {
        let n = &self.nodes[node.index()];
        (n.prov.len(), n.rule_exec.len())
    }

    /// Snapshot of the `prov` rows at `node` (unordered).
    pub fn prov_rows_at(&self, node: NodeId) -> Vec<ProvRow> {
        self.nodes[node.index()].prov.iter().cloned().collect()
    }

    /// Snapshot of the `ruleExec` rows at `node` (unordered).
    pub fn rule_exec_rows_at(&self, node: NodeId) -> Vec<RuleExecRow> {
        self.nodes[node.index()].rule_exec.iter().cloned().collect()
    }

    /// Total storage across all nodes.
    pub fn total_storage(&self) -> usize {
        (0..self.nodes.len())
            .map(|i| self.storage_at(NodeId(i as u32)))
            .sum()
    }
}

impl ProvRecorder for BasicRecorder {
    fn on_input(&mut self, _node: NodeId, _event: &Tuple, meta: &mut ProvMeta) {
        // Nothing stored: the input event is materialized by the engine
        // and referenced by vid from the chain-tail ruleExec row.
        meta.wire_bytes = BASIC_META_BYTES;
    }

    fn on_rule(
        &mut self,
        node: NodeId,
        rule: &Rule,
        event: &Tuple,
        slow: &[Tuple],
        head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta {
        let _ = head;
        // `rid` values are identical to ExSPAN's (Section 4: "vid values
        // and rid values are identical to those in Table 1").
        let mut hash_vids = Vec::with_capacity(1 + slow.len());
        hash_vids.push(event.vid());
        hash_vids.extend(slow.iter().map(Tuple::vid));
        let rid = exspan_rid(&rule.label, node, &hash_vids);

        // Stored VIDS: the slow tuples; the chain tail (the rule fired by
        // the raw input event) additionally keeps the input event's vid so
        // queries can find the leaf (Table 2, row rid1: `(vid1, vid2)`).
        let vids = if meta.prev.is_none() {
            hash_vids
        } else {
            slow.iter().map(Tuple::vid).collect()
        };

        self.nodes[node.index()].rule_exec.insert(RuleExecRow {
            rloc: node,
            rid,
            rule: rule.label.clone(),
            vids,
            next: meta.prev,
        });
        self.report_tables(node);

        let mut out = meta.clone();
        out.stage = Stage::Derived;
        out.prev = Some((node, rid));
        out.wire_bytes = BASIC_META_BYTES;
        out
    }

    fn on_output(&mut self, node: NodeId, output: &Tuple, meta: &ProvMeta) {
        let (rloc, rid) = meta
            .prev
            .expect("an output tuple is always derived by at least one rule");
        self.nodes[node.index()].prov.insert(ProvRow {
            loc: node,
            vid: output.vid(),
            rid: Some(rid),
            rloc: Some(rloc),
        });
        self.report_tables(node);
    }

    fn storage_at(&self, node: NodeId) -> usize {
        let n = &self.nodes[node.index()];
        n.prov.bytes() + n.rule_exec.bytes()
    }

    fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.gauges = Some(TableGauges::register(&telemetry, self.nodes.len()));
    }

    fn retains_intermediates(&self) -> bool {
        // Queries read the slow tuples and the chain tail's input event,
        // and re-derive every intermediate (Section 4).
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exspan::ExspanRecorder;
    use dpc_common::Value;
    use dpc_engine::Runtime;
    use dpc_ndlog::programs;
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn packet(loc: u32, src: u32, dst: u32, payload: &str) -> Tuple {
        Tuple::new(
            "packet",
            vec![
                Value::Addr(n(loc)),
                Value::Addr(n(src)),
                Value::Addr(n(dst)),
                Value::str(payload),
            ],
        )
    }

    fn route(loc: u32, dst: u32, next: u32) -> Tuple {
        Tuple::new(
            "route",
            vec![
                Value::Addr(n(loc)),
                Value::Addr(n(dst)),
                Value::Addr(n(next)),
            ],
        )
    }

    fn run_figure2() -> Runtime<BasicRecorder> {
        let net = topo::line(3, Link::STUB_STUB);
        let mut rt = Runtime::new(programs::packet_forwarding(), net, BasicRecorder::new(3));
        rt.install(route(0, 2, 1)).unwrap();
        rt.install(route(1, 2, 2)).unwrap();
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.run().unwrap();
        rt
    }

    #[test]
    fn table2_prov_holds_only_the_output() {
        let rt = run_figure2();
        let rec = rt.recorder();
        // Exactly one prov row in the whole network: the recv tuple at n2.
        assert_eq!(rec.row_counts(n(0)).0, 0);
        assert_eq!(rec.row_counts(n(1)).0, 0);
        assert_eq!(rec.row_counts(n(2)).0, 1);
        let recv = rt.outputs()[0].tuple.clone();
        assert!(rec.prov_row(n(2), &recv.vid()).is_some());
    }

    #[test]
    fn table2_chain_walks_to_null() {
        let rt = run_figure2();
        let rec = rt.recorder();
        let recv = rt.outputs()[0].tuple.clone();
        let pr = rec.prov_row(n(2), &recv.vid()).unwrap();
        // recv derived by r2 at n2.
        let re3 = rec.rule_exec(pr.rloc.unwrap(), &pr.rid.unwrap()).unwrap();
        assert_eq!(re3.rule, "r2");
        assert!(re3.vids.is_empty()); // r2 joins no slow tuples
                                      // next -> r1 at n1.
        let (nl2, nr2) = re3.next.unwrap();
        assert_eq!(nl2, n(1));
        let re2 = rec.rule_exec(nl2, &nr2).unwrap();
        assert_eq!(re2.rule, "r1");
        assert_eq!(re2.vids, vec![route(1, 2, 2).vid()]); // slow only
                                                          // next -> r1 at n0 (chain tail).
        let (nl1, nr1) = re2.next.unwrap();
        assert_eq!(nl1, n(0));
        let re1 = rec.rule_exec(nl1, &nr1).unwrap();
        assert_eq!(re1.rule, "r1");
        assert!(re1.next.is_none());
        // Tail keeps event vid + slow vid (Table 2: (vid1, vid2)).
        assert_eq!(re1.vids.len(), 2);
        assert!(re1.vids.contains(&packet(0, 0, 2, "data").vid()));
        assert!(re1.vids.contains(&route(0, 2, 1).vid()));
    }

    #[test]
    fn rids_match_exspan() {
        // Section 4: Basic's vid/rid values are identical to ExSPAN's.
        let net = topo::line(3, Link::STUB_STUB);
        let mut rt_b = Runtime::new(
            programs::packet_forwarding(),
            net.clone(),
            BasicRecorder::new(3),
        );
        let mut rt_e = Runtime::new(programs::packet_forwarding(), net, ExspanRecorder::new(3));
        rt_b.install(route(0, 2, 1)).unwrap();
        rt_b.install(route(1, 2, 2)).unwrap();
        rt_b.inject(packet(0, 0, 2, "data")).unwrap();
        rt_b.run().unwrap();
        rt_e.install(route(0, 2, 1)).unwrap();
        rt_e.install(route(1, 2, 2)).unwrap();
        rt_e.inject(packet(0, 0, 2, "data")).unwrap();
        rt_e.run().unwrap();

        let recv = rt_b.outputs()[0].tuple.clone();
        let pb = rt_b.recorder().prov_row(n(2), &recv.vid()).unwrap();
        let pe = rt_e.recorder().prov_row(n(2), &recv.vid()).unwrap();
        assert_eq!(pb.rid, pe.rid);
        assert_eq!(pb.rloc, pe.rloc);
    }

    #[test]
    fn basic_stores_less_than_exspan() {
        let net = topo::line(5, Link::STUB_STUB);
        let mut rt_b = Runtime::new(
            programs::packet_forwarding(),
            net.clone(),
            BasicRecorder::new(5),
        );
        let mut rt_e = Runtime::new(programs::packet_forwarding(), net, ExspanRecorder::new(5));
        for i in 0..4u32 {
            rt_b.install(route(i, 4, i + 1)).unwrap();
            rt_e.install(route(i, 4, i + 1)).unwrap();
        }
        for p in 0..20 {
            let pkt = packet(0, 0, 4, &format!("payload-{p}"));
            rt_b.inject(pkt.clone()).unwrap();
            rt_e.inject(pkt).unwrap();
        }
        rt_b.run().unwrap();
        rt_e.run().unwrap();
        assert_eq!(rt_b.outputs().len(), 20);
        let b = rt_b.recorder().total_storage();
        let e = rt_e.recorder().total_storage();
        assert!(b < e, "basic {b} should be below exspan {e}");
    }
}
