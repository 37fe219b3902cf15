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
//! The three stages are the same whatever layout holds the rule
//! executions: a chained `ruleExec` table per node
//! ([`AdvancedRecorder::new`]), or the Section 5.4 split in a
//! [`SharedNodeStore`] that is private to the recorder
//! ([`AdvancedRecorder::with_inter_class`]) or shared with other programs'
//! recorders ([`AdvancedRecorder::sharing`], Section 8).
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
    ProvRowAdv, ProvTableAdv, RuleExecRow, RuleExecTable, RuleExecView, SharedNodeStore,
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
#[derive(Debug, Default)]
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
}

/// Where the rule executions live.
#[derive(Debug)]
enum RuleExecs {
    /// Section 5.3: one chained `ruleExec` table per node.
    Plain(Vec<RuleExecTable>),
    /// Section 5.4: the `ruleExecNode`/`ruleExecLink` split, private to
    /// this recorder or shared with other programs' recorders (Section 8).
    Split(SharedNodeStore),
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
    rule_execs: RuleExecs,
    hmap_misses: u64,
    metrics: Option<AdvancedMetrics>,
}

impl AdvancedRecorder {
    /// Create a recorder for `n` nodes using the given equivalence keys
    /// (from static analysis) and the intra-class layout of Section 5.3.
    pub fn new(n: usize, keys: EquivKeys) -> AdvancedRecorder {
        Self::with_layout(n, keys, RuleExecs::Plain(vec![RuleExecTable::new(true); n]))
    }

    /// As [`AdvancedRecorder::new`] but with the Section 5.4
    /// `ruleExecNode`/`ruleExecLink` split enabled.
    pub fn with_inter_class(n: usize, keys: EquivKeys) -> AdvancedRecorder {
        Self::sharing(keys, SharedNodeStore::new(n))
    }

    /// A recorder for one program whose split tables live in `store`,
    /// shared with the recorders of other programs on the same network —
    /// cross-program compression, the paper's Section 8 future work. When
    /// two programs contain the same rule, their executions over the same
    /// slow-changing state need only one concrete node; each program keeps
    /// its own `htequi`, `hmap` and `prov` table.
    ///
    /// Rule labels must be unique across the program set *except* for
    /// genuinely shared rules (same head, same body): the concrete-node id
    /// hashes the label and the joined slow tuples, so a label collision
    /// between different rules would alias their provenance.
    pub fn sharing(keys: EquivKeys, store: SharedNodeStore) -> AdvancedRecorder {
        Self::with_layout(store.node_count(), keys, RuleExecs::Split(store))
    }

    fn with_layout(n: usize, keys: EquivKeys, rule_execs: RuleExecs) -> AdvancedRecorder {
        AdvancedRecorder {
            keys,
            nodes: (0..n).map(|_| Node::default()).collect(),
            rule_execs,
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

    /// Times an `existFlag = true` execution found no `hmap` entry at its
    /// output node (out-of-order arrival; Section 5.6 assumes all updates
    /// are processed before querying, and FIFO links keep this at zero).
    pub fn hmap_misses(&self) -> u64 {
        self.hmap_misses
    }

    /// The Advanced `prov` row for one output tuple and execution, when
    /// the execution stored a single derivation (the common case).
    pub fn prov_row(&self, loc: NodeId, vid: &Vid, evid: &EvId) -> Option<&ProvRowAdv> {
        self.nodes.get(loc.index())?.prov.get(vid, evid)
    }

    /// All `prov` rows for one output tuple and execution, in insertion
    /// order — `GET_PROV` of Appendix E (several rows when the execution
    /// had several derivations).
    pub fn prov_rows(&self, loc: NodeId, vid: &Vid, evid: &EvId) -> &[ProvRowAdv] {
        self.nodes
            .get(loc.index())
            .map_or(&[], |n| n.prov.get_all(vid, evid))
    }

    /// Resolve a rule-execution provenance node, uniform across layouts.
    pub fn rule_exec(&self, loc: NodeId, rid: &Rid) -> Option<RuleExecView> {
        match &self.rule_execs {
            RuleExecs::Plain(tables) => tables.get(loc.index())?.get(rid).map(|r| RuleExecView {
                rule: r.rule.clone(),
                vids: r.vids.clone(),
                next: r.next,
            }),
            RuleExecs::Split(store) => store.get(loc, rid),
        }
    }

    /// Row counts at `node`: `(prov, ruleExec-or-link rows)`.
    pub fn row_counts(&self, node: NodeId) -> (usize, usize) {
        let rule_execs = match &self.rule_execs {
            RuleExecs::Plain(tables) => tables[node.index()].len(),
            RuleExecs::Split(store) => store.link_rows(node),
        };
        (self.nodes[node.index()].prov.len(), rule_execs)
    }

    /// Snapshot of the `prov` rows at `node` (unordered).
    pub fn prov_rows_at(&self, node: NodeId) -> Vec<ProvRowAdv> {
        self.nodes[node.index()].prov.iter().cloned().collect()
    }

    /// Snapshot of the `ruleExec` rows at `node` (plain layout; empty when
    /// the inter-class split is active — use the counts instead).
    pub fn rule_exec_rows_at(&self, node: NodeId) -> Vec<RuleExecRow> {
        match &self.rule_execs {
            RuleExecs::Plain(tables) => tables[node.index()].iter().cloned().collect(),
            RuleExecs::Split(_) => Vec::new(),
        }
    }

    /// Concrete shared node rows at `node` (split layout only).
    pub fn node_row_count(&self, node: NodeId) -> usize {
        match &self.rule_execs {
            RuleExecs::Plain(_) => 0,
            RuleExecs::Split(store) => store.node_rows(node),
        }
    }

    /// This recorder's own `prov`-table bytes at `node`. For combined
    /// storage across programs sharing a [`SharedNodeStore`], add one
    /// [`SharedNodeStore::storage_at`] to every program's `prov_storage_at`
    /// ([`ProvRecorder::storage_at`] includes the whole shared store).
    pub fn prov_storage_at(&self, node: NodeId) -> usize {
        self.nodes[node.index()].prov.bytes()
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
            vids: slow_vids,
            next: meta.prev,
        };
        match &mut self.rule_execs {
            RuleExecs::Plain(tables) => {
                tables[node.index()].insert(row);
            }
            RuleExecs::Split(store) => {
                let nrid = node_rid(&row.rule, &row.vids);
                let saved = store.insert(node, nrid, row, rid, meta.prev);
                if saved > 0 {
                    if let Some(m) = &self.metrics {
                        m.interclass_saved_bytes.at(node.0).add(saved as u64);
                    }
                }
            }
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
        let rule_execs = match &self.rule_execs {
            RuleExecs::Plain(tables) => tables[node.index()].bytes(),
            RuleExecs::Split(store) => store.storage_at(node),
        };
        self.prov_storage_at(node) + rule_execs
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
    use crate::query::{query_advanced, QueryCtx};
    use crate::reference::GroundTruthRecorder;
    use dpc_apps::forwarding;
    use dpc_common::{Rng, SeededRng, Value};
    use dpc_engine::{Runtime, TeeRecorder};
    use dpc_ndlog::{equivalence_keys, parse_program, programs, Delp};
    use dpc_netsim::{topo, Link};
    use dpc_telemetry::Telemetry;

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
        let mut rt = Runtime::new(programs::packet_forwarding(), net, rec).unwrap();
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

    /// A second program sharing the forwarding rule `r1` but logging
    /// instead of receiving.
    const MIRROR: &str = r#"
        r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
        r9 logged(@L, S, D, DT) :- packet(@L, S, D, DT), D == L.
    "#;

    fn mirror() -> Delp {
        Delp::new(parse_program(MIRROR).unwrap()).unwrap()
    }

    /// `delp` on a 4-node line with routes to n3.
    fn line_to_n3<R: ProvRecorder>(delp: Delp, rec: R) -> Runtime<R> {
        let net = topo::line(4, Link::STUB_STUB);
        let mut rt = Runtime::new(delp, net, rec).unwrap();
        for i in 0..3u32 {
            rt.install(route(i, 3, i + 1)).unwrap();
        }
        rt
    }

    #[test]
    fn shared_rules_dedupe_across_programs() {
        let store = SharedNodeStore::new(4);
        let keys_b = equivalence_keys(&mirror());
        let mut rt_a = line_to_n3(
            programs::packet_forwarding(),
            AdvancedRecorder::sharing(fwd_keys(), store.clone()),
        );
        let mut rt_b = line_to_n3(mirror(), AdvancedRecorder::sharing(keys_b, store.clone()));

        rt_a.inject(packet(0, 0, 3, "a")).unwrap();
        rt_a.run().unwrap();
        let after_a = store.total_storage();
        let nodes_after_a: usize = (0..4).map(|i| store.node_rows(n(i))).sum();

        rt_b.inject(packet(0, 0, 3, "b")).unwrap();
        rt_b.run().unwrap();
        let after_b = store.total_storage();
        let nodes_after_b: usize = (0..4).map(|i| store.node_rows(n(i))).sum();

        // Program B added its chain links, but the three r1 concrete nodes
        // were already there: only r9's node is new.
        assert_eq!(nodes_after_b, nodes_after_a + 1);
        // The growth is link rows + one node row, well under a full tree.
        assert!(
            after_b - after_a < after_a,
            "store grew {after_a} -> {after_b}"
        );
    }

    #[test]
    fn cross_program_outputs_remain_queryable() {
        let store = SharedNodeStore::new(4);
        let keys_b = equivalence_keys(&mirror());
        let mut rt_a = line_to_n3(
            programs::packet_forwarding(),
            TeeRecorder::new(
                AdvancedRecorder::sharing(fwd_keys(), store.clone()),
                GroundTruthRecorder::new(),
            ),
        );
        let mut rt_b = line_to_n3(
            mirror(),
            TeeRecorder::new(
                AdvancedRecorder::sharing(keys_b, store),
                GroundTruthRecorder::new(),
            ),
        );
        rt_a.inject(packet(0, 0, 3, "a")).unwrap();
        rt_a.run().unwrap();
        rt_b.inject(packet(1, 1, 3, "b")).unwrap();
        rt_b.run().unwrap();

        for rt in [&rt_a, &rt_b] {
            let ctx = QueryCtx::from_runtime(rt);
            for out in rt.outputs() {
                let got =
                    query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
                let want = rt
                    .recorder()
                    .shadow
                    .tree_for(&out.tuple, &out.evid)
                    .unwrap();
                assert_eq!(&got.tree, want);
            }
        }
    }

    #[test]
    fn combined_storage_beats_independent_recorders() {
        // Two programs sharing r1: one shared store vs two independent
        // inter-class recorders.
        let keys_b = equivalence_keys(&mirror());
        let mut ind_a = line_to_n3(
            programs::packet_forwarding(),
            AdvancedRecorder::with_inter_class(4, fwd_keys()),
        );
        let mut ind_b = line_to_n3(
            mirror(),
            AdvancedRecorder::with_inter_class(4, keys_b.clone()),
        );
        let store = SharedNodeStore::new(4);
        let mut sh_a = line_to_n3(
            programs::packet_forwarding(),
            AdvancedRecorder::sharing(fwd_keys(), store.clone()),
        );
        let mut sh_b = line_to_n3(mirror(), AdvancedRecorder::sharing(keys_b, store.clone()));

        for s in 0..3u32 {
            let p = packet(s, s, 3, "x");
            for rt in [&mut ind_a, &mut ind_b, &mut sh_a, &mut sh_b] {
                rt.inject(p.clone()).unwrap();
                rt.run().unwrap();
            }
        }

        let independent: usize = (0..4)
            .map(|i| ind_a.recorder().storage_at(n(i)) + ind_b.recorder().storage_at(n(i)))
            .sum();
        let shared: usize = store.total_storage()
            + (0..4)
                .map(|i| {
                    sh_a.recorder().prov_storage_at(n(i)) + sh_b.recorder().prov_storage_at(n(i))
                })
                .sum::<usize>();
        assert!(
            shared < independent,
            "shared {shared} should undercut independent {independent}"
        );

        // The exact figures of the layout this recorder replaced.
        assert_eq!(ind_a.recorder().total_storage(), 769);
        assert_eq!(ind_b.recorder().total_storage(), 769);
        assert_eq!(store.total_storage(), 746);
        let per_node = |f: &dyn Fn(NodeId) -> usize| (0..4).map(|i| f(n(i))).collect::<Vec<_>>();
        assert_eq!(per_node(&|i| store.storage_at(i)), [79, 128, 177, 362]);
        assert_eq!(per_node(&|i| store.node_rows(i)), [1, 1, 1, 2]);
        assert_eq!(per_node(&|i| store.link_rows(i)), [1, 2, 3, 6]);
        for rt in [&sh_a, &sh_b] {
            let rec = rt.recorder();
            assert_eq!(per_node(&|i| rec.prov_storage_at(i)), [0, 0, 0, 204]);
            assert_eq!(rec.hmap_misses(), 0);
        }
    }

    #[test]
    fn store_handles_share_state() {
        let store = SharedNodeStore::new(2);
        let handle = store.clone();
        store.insert(
            n(0),
            Rid::of_bytes(b"node"),
            RuleExecRow {
                rloc: n(0),
                rid: Rid::of_bytes(b"chain"),
                rule: "r1".into(),
                vids: vec![],
                next: None,
            },
            Rid::of_bytes(b"chain"),
            None,
        );
        assert_eq!(handle.node_rows(n(0)), 1);
        assert!(handle.get(n(0), &Rid::of_bytes(b"chain")).is_some());
        assert!(handle.get(n(1), &Rid::of_bytes(b"chain")).is_none());
        assert_eq!(store.total_storage(), handle.total_storage());
    }

    /// A private split store and a shared one holding a single program
    /// store and answer exactly alike, and the shared one reports its
    /// equivalence-key checks through telemetry.
    #[test]
    fn shared_store_matches_private_split_layout() {
        let mut rng = SeededRng::seed_from_u64(11);
        let ts = topo::transit_stub(&mut rng, &topo::TransitStubParams::default());
        let nodes = ts.net.node_count();
        let pick = |rng: &mut SeededRng| ts.stub[rng.random_range(0..ts.stub.len())];
        let pairs: Vec<(NodeId, NodeId)> = (0..8)
            .map(|_| (pick(&mut rng), pick(&mut rng)))
            .filter(|(s, d)| s != d)
            .collect();
        let packets: Vec<Tuple> = (0..40)
            .map(|i| {
                let (s, d) = pairs[rng.random_range(0..pairs.len())];
                forwarding::packet(s, s, d, format!("p{i}"))
            })
            .collect();
        let telemetry = Telemetry::handle();
        let run = |rec: AdvancedRecorder, telemetry: Option<&TelemetryHandle>| {
            let mut rt = forwarding::make_runtime(ts.net.clone(), rec);
            if let Some(t) = telemetry {
                rt.attach_telemetry(t.clone());
            }
            forwarding::install_routes_for_pairs(&mut rt, &pairs).unwrap();
            for p in &packets {
                rt.inject(p.clone()).unwrap();
            }
            rt.run().unwrap();
            rt
        };
        let private = run(AdvancedRecorder::with_inter_class(nodes, fwd_keys()), None);
        let shared = run(
            AdvancedRecorder::sharing(fwd_keys(), SharedNodeStore::new(nodes)),
            Some(&telemetry),
        );

        assert_eq!(private.outputs().len(), packets.len());
        assert_eq!(private.outputs(), shared.outputs());
        for node in ts.net.nodes() {
            let (p, s) = (private.recorder(), shared.recorder());
            assert_eq!(p.storage_at(node), s.storage_at(node), "{node}");
            assert_eq!(p.row_counts(node), s.row_counts(node), "{node}");
        }
        let (ctx_p, ctx_s) = (
            QueryCtx::from_runtime(&private),
            QueryCtx::from_runtime(&shared),
        );
        for out in private.outputs() {
            let p = query_advanced(&ctx_p, private.recorder(), &out.tuple, &out.evid).unwrap();
            let s = query_advanced(&ctx_s, shared.recorder(), &out.tuple, &out.evid).unwrap();
            assert_eq!(p.tree, s.tree);
        }
        let checks = telemetry.counter_total("recorder.htequi_hits")
            + telemetry.counter_total("recorder.htequi_misses");
        assert_eq!(checks, packets.len() as u64);
        assert!(telemetry.counter_total("recorder.htequi_hits") > 0);
    }
}
