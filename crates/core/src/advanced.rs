//! Equivalence-based online compression (Section 5.3) with optional
//! inter-equivalence-class compression (Section 5.4).
//!
//! Execution of an input event proceeds in three stages:
//!
//! 1. **Equivalence keys checking** — the input node hashes the event's
//!    equivalence-key valuation and checks its `htequi` set; a repeat sets
//!    `existFlag = true`, which travels with the event.
//! 2. **Online provenance maintenance** — nodes insert chained `ruleExec`
//!    rows only when `existFlag` is `false`.
//! 3. **Output tuple provenance maintenance** — the output node associates
//!    the output tuple with the shared tree through `hmap` and stores a
//!    small `prov` row carrying the execution's `evid` (Table 3).
//!
//! A `sig` broadcast (Section 5.5) clears `htequi`, forcing the next event
//! of every class to re-materialize its tree against the updated
//! slow-changing state.
//!
//! Rule-execution ids are chained — `rid = sha1(rule, slow vids, prev rid)`
//! — so `(RLoc, RID)` uniquely determines a row (the uniqueness property
//! Lemma 6 relies on) even when the same rule joins the same slow tuples at
//! the same node within different equivalence classes. The paper's Table 3
//! abbreviates the hash inputs; the chained form is the general-case
//! version.

use std::collections::{HashMap, HashSet};

use dpc_common::{EqKeyHash, EvId, NodeId, Rid, Sha1, Tuple, Vid};
use dpc_engine::{ProvMeta, ProvRecorder, Stage};
use dpc_ndlog::{EquivKeys, Rule};
use dpc_telemetry::{Counter, Gauge, PerNode, TelemetryHandle};

use crate::storage::{
    InterClassTables, ProvRowAdv, ProvTableAdv, RuleExecRow, RuleExecTable, RuleExecView,
    TableGauges,
};

/// Wire overhead Advanced tags onto each shipped tuple: `existFlag` (1) +
/// `evid` (20) + equivalence-key hash (20) + chain reference (25).
pub const ADVANCED_META_BYTES: usize = 66;

/// Compute the chained Advanced rule-execution id.
pub fn advanced_rid(rule: &str, slow_vids: &[Vid], prev: Option<(NodeId, Rid)>) -> Rid {
    let mut h = Sha1::new();
    h.update(b"A");
    h.update(rule.as_bytes());
    for v in slow_vids {
        h.update(&v.0 .0);
    }
    if let Some((loc, rid)) = prev {
        h.update(&loc.0.to_be_bytes());
        h.update(&rid.0 .0);
    }
    Rid(h.finish())
}

/// Compute the chain-independent node id used by the Section 5.4 split.
pub fn node_rid(rule: &str, slow_vids: &[Vid]) -> Rid {
    let mut h = Sha1::new();
    h.update(b"N");
    h.update(rule.as_bytes());
    for v in slow_vids {
        h.update(&v.0 .0);
    }
    Rid(h.finish())
}

/// Per-node Advanced state.
#[derive(Debug)]
struct Node {
    /// Stage 1: equivalence-key values seen at this (input) node.
    htequi: HashSet<EqKeyHash>,
    /// Stage 3: shared-tree references at this (output) node, tagged with
    /// the execution that materialized them. An equivalence class usually
    /// has one shared tree; an execution whose rules joined several slow
    /// rows contributes one tree per derivation (QUERY returns the whole
    /// set, Appendix E). A re-materialization after a `sig` (a *different*
    /// execution) replaces the references, so post-update outputs attach
    /// to the post-update tree.
    hmap: HashMap<EqKeyHash, (EvId, Vec<(NodeId, Rid)>)>,
    prov: ProvTableAdv,
    /// Plain layout (Section 5.3).
    rule_exec: RuleExecTable,
    /// Split layout (Section 5.4), used when `inter_class` is on.
    inter: InterClassTables,
}

/// Advanced's metric handles, registered once in
/// [`ProvRecorder::attach_telemetry`].
#[derive(Debug)]
struct AdvancedMetrics {
    tables: TableGauges,
    htequi_classes: PerNode<Gauge>,
    hmap_entries: PerNode<Gauge>,
    htequi_hits: PerNode<Counter>,
    htequi_misses: PerNode<Counter>,
    interclass_saved_bytes: PerNode<Counter>,
}

/// The equivalence-based compression recorder.
#[derive(Debug)]
pub struct AdvancedRecorder {
    keys: EquivKeys,
    nodes: Vec<Node>,
    inter_class: bool,
    hmap_misses: u64,
    metrics: Option<AdvancedMetrics>,
}

impl AdvancedRecorder {
    /// Create a recorder for `n` nodes using the given equivalence keys
    /// (from static analysis) and the intra-class layout of Section 5.3.
    pub fn new(n: usize, keys: EquivKeys) -> AdvancedRecorder {
        Self::with_mode(n, keys, false)
    }

    /// As [`AdvancedRecorder::new`] but with the Section 5.4
    /// `ruleExecNode`/`ruleExecLink` split enabled.
    pub fn with_inter_class(n: usize, keys: EquivKeys) -> AdvancedRecorder {
        Self::with_mode(n, keys, true)
    }

    fn with_mode(n: usize, keys: EquivKeys, inter_class: bool) -> AdvancedRecorder {
        AdvancedRecorder {
            keys,
            nodes: (0..n)
                .map(|_| Node {
                    htequi: HashSet::new(),
                    hmap: HashMap::new(),
                    prov: ProvTableAdv::default(),
                    rule_exec: RuleExecTable::new(true),
                    inter: InterClassTables::default(),
                })
                .collect(),
            inter_class,
            hmap_misses: 0,
            metrics: None,
        }
    }

    /// Push the per-table gauges for `node` to the attached telemetry.
    fn report_tables(&self, node: NodeId) {
        let Some(m) = &self.metrics else { return };
        m.tables
            .report(node, self.row_counts(node), self.storage_at(node));
        let n = &self.nodes[node.index()];
        m.htequi_classes.at(node.0).set(n.htequi.len() as i64);
        m.hmap_entries.at(node.0).set(n.hmap.len() as i64);
    }

    /// The equivalence keys in use.
    pub fn keys(&self) -> &EquivKeys {
        &self.keys
    }

    /// Is the Section 5.4 split layout active?
    pub fn inter_class(&self) -> bool {
        self.inter_class
    }

    /// Times an `existFlag = true` execution found no `hmap` entry at its
    /// output node (out-of-order arrival; Section 5.6 assumes all updates
    /// are processed before querying, and FIFO links keep this at zero).
    pub fn hmap_misses(&self) -> u64 {
        self.hmap_misses
    }

    /// The Advanced `prov` row for one output tuple and execution, when
    /// the execution stored a single derivation (the common case).
    pub fn prov_row<'a>(
        &'a self,
        loc: NodeId,
        vid: &'a Vid,
        evid: &'a EvId,
    ) -> Option<&'a ProvRowAdv> {
        self.nodes.get(loc.index())?.prov.get(vid, evid)
    }

    /// All `prov` rows for one output tuple and execution — `GET_PROV` of
    /// Appendix E (several rows when the execution had several
    /// derivations).
    pub fn prov_rows<'a>(
        &'a self,
        loc: NodeId,
        vid: &'a Vid,
        evid: &'a dpc_common::EvId,
    ) -> impl Iterator<Item = &'a ProvRowAdv> {
        self.nodes
            .get(loc.index())
            .into_iter()
            .flat_map(move |n| n.prov.get_all(vid, evid))
    }

    /// All `prov` rows for an output tuple vid at `loc`.
    pub fn prov_rows_for_vid<'a>(
        &'a self,
        loc: NodeId,
        vid: &'a Vid,
    ) -> impl Iterator<Item = &'a ProvRowAdv> {
        self.nodes
            .get(loc.index())
            .into_iter()
            .flat_map(move |n| n.prov.rows_for_vid(vid))
    }

    /// Resolve a rule-execution provenance node, uniform across layouts.
    pub fn rule_exec(&self, loc: NodeId, rid: &Rid) -> Option<RuleExecView> {
        let node = self.nodes.get(loc.index())?;
        if self.inter_class {
            node.inter.get(rid)
        } else {
            node.rule_exec.get(rid).map(|r| RuleExecView {
                rule: r.rule.clone(),
                vids: r.vids.clone(),
                next: r.next,
            })
        }
    }

    /// Row counts at `node`: `(prov, ruleExec-or-link rows)`.
    pub fn row_counts(&self, node: NodeId) -> (usize, usize) {
        let n = &self.nodes[node.index()];
        if self.inter_class {
            (n.prov.len(), n.inter.link_rows())
        } else {
            (n.prov.len(), n.rule_exec.len())
        }
    }

    /// Snapshot of the `prov` rows at `node` (unordered).
    pub fn prov_rows_at(&self, node: NodeId) -> Vec<ProvRowAdv> {
        self.nodes[node.index()].prov.iter().cloned().collect()
    }

    /// Snapshot of the `ruleExec` rows at `node` (plain layout; empty when
    /// the inter-class split is active — use the counts instead).
    pub fn rule_exec_rows_at(&self, node: NodeId) -> Vec<RuleExecRow> {
        self.nodes[node.index()].rule_exec.iter().cloned().collect()
    }

    /// Concrete shared node rows at `node` (split layout only).
    pub fn node_row_count(&self, node: NodeId) -> usize {
        self.nodes[node.index()].inter.node_rows()
    }

    /// Total storage across all nodes.
    pub fn total_storage(&self) -> usize {
        (0..self.nodes.len())
            .map(|i| self.storage_at(NodeId(i as u32)))
            .sum()
    }

    /// Size of the auxiliary runtime state (`htequi` + `hmap`) at `node`.
    /// Not part of the paper's storage metric (which serializes only the
    /// provenance tables), exposed for completeness.
    pub fn aux_storage_at(&self, node: NodeId) -> usize {
        let n = &self.nodes[node.index()];
        let hmap_bytes: usize = n
            .hmap
            .values()
            .map(|(_, refs)| 20 + 20 + refs.len() * 24)
            .sum();
        n.htequi.len() * 20 + hmap_bytes
    }
}

impl ProvRecorder for AdvancedRecorder {
    fn on_input(&mut self, node: NodeId, event: &Tuple, meta: &mut ProvMeta) {
        // Stage 1: equivalence keys checking.
        let kh = self
            .keys
            .hash(event)
            .expect("runtime validated the input event relation");
        let fresh = self.nodes[node.index()].htequi.insert(kh);
        meta.exist_flag = !fresh;
        meta.eq_hash = Some(kh);
        meta.wire_bytes = ADVANCED_META_BYTES;
        if let Some(m) = &self.metrics {
            let counter = if fresh {
                &m.htequi_misses
            } else {
                &m.htequi_hits
            };
            counter.at(node.0).add(1);
        }
    }

    fn on_rule(
        &mut self,
        node: NodeId,
        rule: &Rule,
        _event: &Tuple,
        slow: &[Tuple],
        _head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta {
        let mut out = meta.clone();
        out.stage = Stage::Derived;
        out.wire_bytes = ADVANCED_META_BYTES;
        // Stage 2: maintain provenance only for the first execution of the
        // class.
        if meta.exist_flag {
            return out;
        }
        let slow_vids: Vec<Vid> = slow.iter().map(Tuple::vid).collect();
        let rid = advanced_rid(&rule.label, &slow_vids, meta.prev);
        let row = RuleExecRow {
            rloc: node,
            rid,
            rule: rule.label.clone(),
            vids: slow_vids.clone(),
            next: meta.prev,
        };
        if self.inter_class {
            let nrid = node_rid(&rule.label, &slow_vids);
            let saved = self.nodes[node.index()]
                .inter
                .insert(nrid, row, rid, meta.prev);
            if saved > 0 {
                if let Some(m) = &self.metrics {
                    m.interclass_saved_bytes.at(node.0).add(saved as u64);
                }
            }
        } else {
            self.nodes[node.index()].rule_exec.insert(row);
        }
        self.report_tables(node);
        out.prev = Some((node, rid));
        out
    }

    fn on_output(&mut self, node: NodeId, output: &Tuple, meta: &ProvMeta) {
        // Stage 3: associate the output with the shared tree(s).
        let kh = meta.eq_hash.expect("advanced meta always carries eq_hash");
        let evid = meta.evid.expect("every execution carries its evid");
        let state = &mut self.nodes[node.index()];
        let references: Vec<(NodeId, Rid)> = if meta.exist_flag {
            match state.hmap.get(&kh) {
                Some((_, rs)) => rs.clone(),
                None => {
                    // Out-of-order arrival relative to the class's first
                    // execution; with FIFO links this cannot happen.
                    self.hmap_misses += 1;
                    return;
                }
            }
        } else {
            let r = meta
                .prev
                .expect("uncompressed executions carry their chain head");
            match state.hmap.get_mut(&kh) {
                // Another derivation of the same materializing execution:
                // accumulate.
                Some((e, refs)) if *e == evid => {
                    if !refs.contains(&r) {
                        refs.push(r);
                    }
                }
                // First execution of the class, or a re-materialization
                // after a sig: (re)place the reference set.
                _ => {
                    state.hmap.insert(kh, (evid, vec![r]));
                }
            }
            vec![r]
        };
        for (rloc, rid) in references {
            state.prov.insert(ProvRowAdv {
                loc: node,
                vid: output.vid(),
                rloc,
                rid,
                evid,
            });
        }
        self.report_tables(node);
    }

    fn on_sig(&mut self, node: NodeId) {
        // Section 5.5: empty the equivalence-keys hash table so subsequent
        // events re-materialize their trees.
        self.nodes[node.index()].htequi.clear();
    }

    fn storage_at(&self, node: NodeId) -> usize {
        let n = &self.nodes[node.index()];
        let re = if self.inter_class {
            n.inter.bytes()
        } else {
            n.rule_exec.bytes()
        };
        n.prov.bytes() + re
    }

    fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        let n = self.nodes.len();
        let t = &telemetry;
        self.metrics = Some(AdvancedMetrics {
            tables: TableGauges::register(t, n),
            htequi_classes: t.node_gauges("recorder.htequi_classes", n),
            hmap_entries: t.node_gauges("recorder.hmap_entries", n),
            htequi_hits: t.node_counters("recorder.htequi_hits", n),
            htequi_misses: t.node_counters("recorder.htequi_misses", n),
            interclass_saved_bytes: t.node_counters("recorder.interclass_saved_bytes", n),
        });
    }

    fn retains_intermediates(&self) -> bool {
        // Queries read the slow tuples and the chain tail's input event,
        // and re-execute the chain for the rest (Section 5.3, App. E).
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_common::Value;
    use dpc_engine::Runtime;
    use dpc_ndlog::{equivalence_keys, programs};
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

    fn fwd_keys() -> EquivKeys {
        equivalence_keys(&programs::packet_forwarding())
    }

    fn make_runtime(nodes: usize, inter: bool) -> Runtime<AdvancedRecorder> {
        let net = topo::line(nodes, Link::STUB_STUB);
        let rec = if inter {
            AdvancedRecorder::with_inter_class(nodes, fwd_keys())
        } else {
            AdvancedRecorder::new(nodes, fwd_keys())
        };
        let mut rt = Runtime::new(programs::packet_forwarding(), net, rec);
        for i in 0..nodes as u32 - 1 {
            rt.install(route(i, nodes as u32 - 1, i + 1)).unwrap();
        }
        rt
    }

    /// Figure 6 / Table 3: two packets of the same class.
    #[test]
    fn second_packet_shares_the_tree() {
        let mut rt = make_runtime(3, false);
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.inject(packet(0, 0, 2, "url")).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 2);
        let rec = rt.recorder();
        assert_eq!(rec.hmap_misses(), 0);
        // ruleExec rows: one per node for the first packet only.
        assert_eq!(rec.row_counts(n(0)).1, 1);
        assert_eq!(rec.row_counts(n(1)).1, 1);
        assert_eq!(rec.row_counts(n(2)).1, 1);
        // prov rows: one per packet, both at the output node, pointing at
        // the same shared tree.
        assert_eq!(rec.row_counts(n(2)).0, 2);
        let o1 = &rt.outputs()[0];
        let o2 = &rt.outputs()[1];
        let (v1, v2) = (o1.tuple.vid(), o2.tuple.vid());
        let p1 = rec.prov_row(n(2), &v1, &o1.evid).unwrap();
        let p2 = rec.prov_row(n(2), &v2, &o2.evid).unwrap();
        assert_eq!((p1.rloc, p1.rid), (p2.rloc, p2.rid));
        assert_ne!(p1.evid, p2.evid);
    }

    #[test]
    fn different_class_builds_its_own_tree() {
        let mut rt = make_runtime(4, false);
        // Also give n1 a route so packets can start there.
        rt.inject(packet(0, 0, 3, "a")).unwrap();
        rt.inject(packet(1, 1, 3, "b")).unwrap(); // different (loc, dst) class
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 2);
        let rec = rt.recorder();
        // n1 and n2 each executed r1 for both classes -> 2 rows each; n0
        // only for the first class.
        assert_eq!(rec.row_counts(n(0)).1, 1);
        assert_eq!(rec.row_counts(n(1)).1, 2);
        assert_eq!(rec.row_counts(n(2)).1, 2);
    }

    #[test]
    fn chain_is_walkable() {
        let mut rt = make_runtime(3, false);
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.run().unwrap();
        let rec = rt.recorder();
        let out = &rt.outputs()[0];
        let out_vid = out.tuple.vid();
        let pr = rec.prov_row(n(2), &out_vid, &out.evid).unwrap();
        let v2 = rec.rule_exec(pr.rloc, &pr.rid).unwrap();
        assert_eq!(v2.rule, "r2");
        let (l1, r1) = v2.next.unwrap();
        let v1 = rec.rule_exec(l1, &r1).unwrap();
        assert_eq!(v1.rule, "r1");
        assert_eq!(v1.vids, vec![route(1, 2, 2).vid()]);
        let (l0, r0) = v1.next.unwrap();
        let v0 = rec.rule_exec(l0, &r0).unwrap();
        assert!(v0.next.is_none());
    }

    #[test]
    fn sig_forces_rematerialization() {
        let mut rt = make_runtime(3, false);
        rt.inject_at(packet(0, 0, 2, "one"), dpc_netsim::SimTime::ZERO)
            .unwrap();
        rt.run().unwrap();
        assert_eq!(rt.recorder().row_counts(n(0)).1, 1);
        // A slow update broadcasts sig and clears htequi everywhere.
        rt.update_slow_at(route(1, 0, 0), rt.now()).unwrap();
        rt.run().unwrap();
        rt.inject(packet(0, 0, 2, "two")).unwrap();
        rt.run().unwrap();
        // The second packet re-materialized: the chain rows are identical
        // (same slow tuples), so counts stay, but prov has two rows and no
        // hmap misses occurred.
        let rec = rt.recorder();
        assert_eq!(rec.hmap_misses(), 0);
        assert_eq!(rec.row_counts(n(2)).0, 2);
    }

    #[test]
    fn inter_class_shares_suffix_nodes() {
        // Figure 2 + Section 5.4: a packet from n1 to n2 shares the rule
        // execution nodes rid1/rid2 with the n0->n2 tree.
        let mut rt = make_runtime(3, true);
        rt.inject(packet(0, 0, 2, "ab")).unwrap();
        rt.run().unwrap();
        rt.inject(packet(1, 1, 2, "cd")).unwrap();
        rt.run().unwrap();
        let rec = rt.recorder();
        assert_eq!(rt.outputs().len(), 2);
        // At n1: both classes execute r1 with the same route tuple — one
        // shared concrete node, two link rows.
        assert_eq!(rec.node_row_count(n(1)), 1);
        assert_eq!(rec.row_counts(n(1)).1, 2);
        // At n2: both classes execute r2 (no slow tuples) — shared node.
        assert_eq!(rec.node_row_count(n(2)), 1);
        assert_eq!(rec.row_counts(n(2)).1, 2);
    }

    #[test]
    fn inter_class_stores_less_than_plain_advanced_on_overlap() {
        let mut plain = make_runtime(6, false);
        let mut inter = make_runtime(6, true);
        // Many classes sharing long path suffixes: sources 0..4, dest 5.
        for s in 0..5u32 {
            plain.inject(packet(s, s, 5, "x")).unwrap();
            plain.run().unwrap();
            inter.inject(packet(s, s, 5, "x")).unwrap();
            inter.run().unwrap();
        }
        let p = plain.recorder().total_storage();
        let i = inter.recorder().total_storage();
        assert!(i < p, "inter-class {i} should be below plain {p}");
    }

    #[test]
    fn advanced_meta_constants() {
        // flag + evid + eq-hash + chain ref.
        assert_eq!(ADVANCED_META_BYTES, 1 + 20 + 20 + 25);
    }

    #[test]
    fn chained_rid_disambiguates_contexts() {
        let slow = [Vid::of_bytes(b"route")];
        let tail = advanced_rid("r1", &slow, None);
        let mid = advanced_rid("r1", &slow, Some((n(0), tail)));
        assert_ne!(tail, mid);
        // Same rule+slow at the same node in different classes gets
        // different rids because the chains differ.
        let other = advanced_rid("r1", &slow, Some((n(1), tail)));
        assert_ne!(mid, other);
        // The chain-independent node id is shared.
        assert_eq!(node_rid("r1", &slow), node_rid("r1", &slow));
    }

    #[test]
    fn out_of_order_output_counts_an_hmap_miss() {
        // Drive the recorder hooks directly: an existFlag=true execution
        // whose output arrives before the class's first execution stored
        // its tree must be counted, not panic (the Section 5.6 subtlety).
        use dpc_engine::{ProvMeta, Stage};
        let mut rec = AdvancedRecorder::new(2, fwd_keys());
        let ev = packet(0, 0, 1, "x");
        let mut meta = ProvMeta::input(0, ev.evid());
        meta.stage = Stage::Derived;
        meta.exist_flag = true; // forged: claims the class exists
        meta.eq_hash = Some(fwd_keys().hash(&ev).unwrap());
        let out = Tuple::new(
            "recv",
            vec![
                Value::Addr(n(1)),
                Value::Addr(n(0)),
                Value::Addr(n(1)),
                Value::str("x"),
            ],
        );
        rec.on_output(n(1), &out, &meta);
        assert_eq!(rec.hmap_misses(), 1);
        assert_eq!(rec.row_counts(n(1)).0, 0, "no prov row was stored");
    }

    #[test]
    fn aux_storage_tracks_hash_tables() {
        let mut rt = make_runtime(3, false);
        assert_eq!(rt.recorder().aux_storage_at(n(0)), 0);
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.run().unwrap();
        assert!(rt.recorder().aux_storage_at(n(0)) > 0); // htequi entry
        assert!(rt.recorder().aux_storage_at(n(2)) > 0); // hmap entry
    }
}
