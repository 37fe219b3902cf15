//! The ExSPAN baseline recorder (Section 2.2, Table 1).
//!
//! ExSPAN maintains uncompressed distributed provenance: every tuple — base,
//! intermediate or output — gets a `prov` row at the node where it lives,
//! and every rule firing gets a `ruleExec` row at the node where it
//! executed. `vid = sha1(tuple)` and `rid = sha1(rule + loc + child vids)`
//! exactly as in Table 1.

use dpc_common::{NodeId, Rid, Sha1, Tuple, Vid};
use dpc_engine::{ProvMeta, ProvRecorder, Stage};
use dpc_ndlog::Rule;
use dpc_telemetry::TelemetryHandle;

use crate::storage::{ProvRow, ProvTable, RuleExecRow, RuleExecTable, TableGauges};

/// Per-node ExSPAN state.
#[derive(Debug)]
struct Node {
    prov: ProvTable,
    rule_exec: RuleExecTable,
}

/// The ExSPAN provenance recorder.
#[derive(Debug)]
pub struct ExspanRecorder {
    nodes: Vec<Node>,
    gauges: Option<TableGauges>,
}

/// Compute the ExSPAN rule-execution id: `sha1(rule + loc + vids)`.
pub fn exspan_rid(rule: &str, loc: NodeId, vids: &[Vid]) -> Rid {
    let mut h = Sha1::new();
    h.update(b"R");
    h.update(rule.as_bytes());
    h.update(&loc.0.to_be_bytes());
    for v in vids {
        h.update(&v.0 .0);
    }
    Rid(h.finish())
}

/// Wire overhead ExSPAN tags onto each shipped tuple: the deriving rule
/// execution's `(RLoc, RID)` so the receiver can insert the tuple's `prov`
/// row, plus a stage byte.
pub const EXSPAN_META_BYTES: usize = 25;

impl ExspanRecorder {
    /// Create a recorder for a network of `n` nodes.
    pub fn new(n: usize) -> ExspanRecorder {
        ExspanRecorder {
            nodes: (0..n)
                .map(|_| Node {
                    prov: ProvTable::default(),
                    rule_exec: RuleExecTable::new(false),
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

    /// The `prov` row for `vid` at `loc`.
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
    pub fn prov_rows_at(&self, node: NodeId) -> Vec<crate::storage::ProvRow> {
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

    fn insert_base_prov(&mut self, node: NodeId, tuple: &Tuple) {
        self.nodes[node.index()].prov.insert(ProvRow {
            loc: node,
            vid: tuple.vid(),
            rid: None,
            rloc: None,
        });
    }
}

impl ProvRecorder for ExspanRecorder {
    fn on_input(&mut self, node: NodeId, event: &Tuple, meta: &mut ProvMeta) {
        // The input event is a base tuple: prov row with NULL derivation.
        self.insert_base_prov(node, event);
        meta.wire_bytes = EXSPAN_META_BYTES;
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
        // Child vids: the triggering event first, then the slow tuples in
        // body order.
        let mut vids = Vec::with_capacity(1 + slow.len());
        vids.push(event.vid());
        vids.extend(slow.iter().map(Tuple::vid));
        let rid = exspan_rid(&rule.label, node, &vids);

        // Slow tuples are base tuples living at this node.
        for s in slow {
            self.insert_base_prov(node, s);
        }

        self.nodes[node.index()].rule_exec.insert(RuleExecRow {
            rloc: node,
            rid,
            rule: rule.label.clone(),
            vids,
            next: None,
        });

        // The derived tuple's prov row lives where the tuple will live
        // (inserted on arrival in a real deployment; same data either way).
        let head_loc = head.loc().expect("head tuples carry a location");
        self.nodes[head_loc.index()].prov.insert(ProvRow {
            loc: head_loc,
            vid: head.vid(),
            rid: Some(rid),
            rloc: Some(node),
        });

        self.report_tables(node);
        if head_loc != node {
            self.report_tables(head_loc);
        }

        let mut out = meta.clone();
        out.stage = Stage::Derived;
        out.prev = Some((node, rid));
        out.wire_bytes = EXSPAN_META_BYTES;
        out
    }

    fn on_output(&mut self, _node: NodeId, _output: &Tuple, _meta: &ProvMeta) {
        // The output tuple's prov row was inserted when the final rule
        // fired; nothing more to do.
    }

    fn on_base_install(&mut self, node: NodeId, tuple: &Tuple) {
        self.insert_base_prov(node, tuple);
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
        // ExSPAN's querier fetches the content of every child of every
        // rule execution, intermediate events included.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Figure 2 deployment with ExSPAN provenance: reproduces Table 1.
    fn run_figure2() -> Runtime<ExspanRecorder> {
        let net = topo::line(3, Link::STUB_STUB);
        let mut rt =
            Runtime::new(programs::packet_forwarding(), net, ExspanRecorder::new(3)).unwrap();
        rt.install(route(0, 2, 1)).unwrap();
        rt.install(route(1, 2, 2)).unwrap();
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.run().unwrap();
        rt
    }

    #[test]
    fn table1_prov_rows() {
        let rt = run_figure2();
        let rec = rt.recorder();
        // Base tuples: routes at n0/n1 and the input packet at n0.
        let r0 = rec.prov_row(n(0), &route(0, 2, 1).vid()).unwrap();
        assert_eq!((r0.rid, r0.rloc), (None, None));
        let p0 = rec.prov_row(n(0), &packet(0, 0, 2, "data").vid()).unwrap();
        assert_eq!(p0.rid, None);
        // Intermediate packet at n1 derived by r1 at n0.
        let p1 = rec.prov_row(n(1), &packet(1, 0, 2, "data").vid()).unwrap();
        assert!(p1.rid.is_some());
        assert_eq!(p1.rloc, Some(n(0)));
        // recv at n2 derived by r2 at n2.
        let recv = Tuple::new(
            "recv",
            vec![
                Value::Addr(n(2)),
                Value::Addr(n(0)),
                Value::Addr(n(2)),
                Value::str("data"),
            ],
        );
        let pr = rec.prov_row(n(2), &recv.vid()).unwrap();
        assert_eq!(pr.rloc, Some(n(2)));
    }

    #[test]
    fn table1_rule_exec_rows_chain_via_vids() {
        let rt = run_figure2();
        let rec = rt.recorder();
        // Walk the provenance: recv -> r2@n2 -> packet@n2 -> r1@n1 -> ...
        let recv = rt.outputs()[0].tuple.clone();
        let pr = rec.prov_row(n(2), &recv.vid()).unwrap();
        let re2 = rec.rule_exec(pr.rloc.unwrap(), &pr.rid.unwrap()).unwrap();
        assert_eq!(re2.rule, "r2");
        // r2's only child is the packet event at n2.
        assert_eq!(re2.vids.len(), 1);
        assert_eq!(re2.vids[0], packet(2, 0, 2, "data").vid());
        // Follow to r1 at n1.
        let p2 = rec.prov_row(n(2), &re2.vids[0]).unwrap();
        let re1 = rec.rule_exec(p2.rloc.unwrap(), &p2.rid.unwrap()).unwrap();
        assert_eq!(re1.rule, "r1");
        assert_eq!(re1.vids.len(), 2); // event + route
        assert_eq!(re1.vids[1], route(1, 2, 2).vid());
    }

    #[test]
    fn rid_is_deterministic_and_distinct() {
        let vids = [Vid::of_bytes(b"a"), Vid::of_bytes(b"b")];
        let a = exspan_rid("r1", n(0), &vids);
        let b = exspan_rid("r1", n(0), &vids);
        assert_eq!(a, b);
        assert_ne!(a, exspan_rid("r2", n(0), &vids));
        assert_ne!(a, exspan_rid("r1", n(1), &vids));
        assert_ne!(a, exspan_rid("r1", n(0), &vids[..1]));
    }

    #[test]
    fn storage_grows_per_packet() {
        let net = topo::line(3, Link::STUB_STUB);
        let mut rt =
            Runtime::new(programs::packet_forwarding(), net, ExspanRecorder::new(3)).unwrap();
        rt.install(route(0, 2, 1)).unwrap();
        rt.install(route(1, 2, 2)).unwrap();
        rt.inject(packet(0, 0, 2, "p0")).unwrap();
        rt.run().unwrap();
        let after_one = rt.recorder().total_storage();
        rt.inject(packet(0, 0, 2, "p1")).unwrap();
        rt.run().unwrap();
        let after_two = rt.recorder().total_storage();
        // ExSPAN stores a full new tree for the second (equivalent) packet.
        let delta = after_two - after_one;
        assert!(delta > 100, "delta {delta}");
    }

    #[test]
    fn row_counts_match_expectation() {
        let rt = run_figure2();
        // n0: prov(route, packet-in) = 2, ruleExec(r1) = 1.
        assert_eq!(rt.recorder().row_counts(n(0)), (2, 1));
        // n1: prov(route, packet-mid) = 2, ruleExec(r1) = 1.
        assert_eq!(rt.recorder().row_counts(n(1)), (2, 1));
        // n2: prov(packet-final, recv) = 2, ruleExec(r2) = 1.
        assert_eq!(rt.recorder().row_counts(n(2)), (2, 1));
    }
}
