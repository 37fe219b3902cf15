//! Cross-program provenance compression — the paper's stated future work
//! (Section 8): "we plan to explore the possibility of compressing
//! provenance trees *across* programs that share execution rules."
//!
//! Most deployments run several protocols concurrently; when two DELPs
//! contain the same rule (say, the forwarding rule `r1`), their rule
//! executions over the same slow-changing state are identical and need
//! only one concrete copy. [`SharedNodeStore`] is a Section 5.4-style
//! `ruleExecNode`/`ruleExecLink` store shared by several
//! [`CrossProgramRecorder`]s — one per program — so concrete nodes dedupe
//! across programs while each program keeps its own equivalence-class
//! state (`htequi`, `hmap`) and `prov` table.
//!
//! Correctness requirement: rule labels must be globally unique across
//! the program set *except* for genuinely shared rules (same head, same
//! body) — the concrete-node id hashes the label and the joined slow
//! tuples, so a label collision between different rules would alias their
//! provenance.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dpc_common::{EqKeyHash, EvId, NodeId, Rid, Tuple, Vid};
use dpc_engine::{ProvMeta, ProvRecorder, Stage};
use dpc_ndlog::{EquivKeys, Rule};
use std::sync::Mutex;

use crate::advanced::{advanced_rid, node_rid, ADVANCED_META_BYTES};
use crate::query::AdvancedStore;
use crate::storage::{InterClassTables, ProvRowAdv, ProvTableAdv, RuleExecRow, RuleExecView};

/// The rule-execution store shared across programs: per-node
/// `ruleExecNode`/`ruleExecLink` tables behind a lock (the simulation is
/// single-threaded; the lock makes sharing explicit and keeps the handle
/// `Send`).
#[derive(Debug, Clone)]
pub struct SharedNodeStore {
    inner: Arc<Mutex<Vec<InterClassTables>>>,
}

impl SharedNodeStore {
    /// A store for a network of `n` nodes.
    pub fn new(n: usize) -> SharedNodeStore {
        SharedNodeStore {
            inner: Arc::new(Mutex::new(
                (0..n).map(|_| InterClassTables::default()).collect(),
            )),
        }
    }

    /// Serialized size of the shared tables at `node`. Shared across all
    /// participating programs — count it once, not per program.
    pub fn storage_at(&self, node: NodeId) -> usize {
        self.inner.lock().unwrap()[node.index()].bytes()
    }

    /// Total shared storage across all nodes.
    pub fn total_storage(&self) -> usize {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(InterClassTables::bytes)
            .sum()
    }

    /// Concrete node rows at `node`.
    pub fn node_rows(&self, node: NodeId) -> usize {
        self.inner.lock().unwrap()[node.index()].node_rows()
    }

    /// Link rows at `node`.
    pub fn link_rows(&self, node: NodeId) -> usize {
        self.inner.lock().unwrap()[node.index()].link_rows()
    }

    fn insert(
        &self,
        node: NodeId,
        nrid: Rid,
        row: RuleExecRow,
        chain_rid: Rid,
        next: Option<(NodeId, Rid)>,
    ) {
        self.inner.lock().unwrap()[node.index()].insert(nrid, row, chain_rid, next);
    }

    fn get(&self, node: NodeId, chain_rid: &Rid) -> Option<RuleExecView> {
        self.inner.lock().unwrap().get(node.index())?.get(chain_rid)
    }
}

/// Per-node, per-program state.
#[derive(Debug)]
struct Node {
    htequi: HashSet<EqKeyHash>,
    hmap: HashMap<EqKeyHash, (EvId, Vec<(NodeId, Rid)>)>,
    prov: ProvTableAdv,
}

/// An Advanced-style recorder whose concrete rule-execution nodes live in
/// a [`SharedNodeStore`] shared with other programs.
#[derive(Debug)]
pub struct CrossProgramRecorder {
    keys: EquivKeys,
    store: SharedNodeStore,
    nodes: Vec<Node>,
    hmap_misses: u64,
}

impl CrossProgramRecorder {
    /// Create a recorder for one program over `store`'s network.
    pub fn new(keys: EquivKeys, store: SharedNodeStore) -> CrossProgramRecorder {
        let n = store.inner.lock().unwrap().len();
        CrossProgramRecorder {
            keys,
            store,
            nodes: (0..n)
                .map(|_| Node {
                    htequi: HashSet::new(),
                    hmap: HashMap::new(),
                    prov: ProvTableAdv::default(),
                })
                .collect(),
            hmap_misses: 0,
        }
    }

    /// The shared store handle.
    pub fn store(&self) -> &SharedNodeStore {
        &self.store
    }

    /// `hmap` misses (see `AdvancedRecorder::hmap_misses`).
    pub fn hmap_misses(&self) -> u64 {
        self.hmap_misses
    }

    /// This program's `prov`-table bytes at `node` (excludes the shared
    /// store, which is counted once via [`SharedNodeStore::storage_at`]).
    pub fn prov_storage_at(&self, node: NodeId) -> usize {
        self.nodes[node.index()].prov.bytes()
    }
}

impl ProvRecorder for CrossProgramRecorder {
    fn on_input(&mut self, node: NodeId, event: &Tuple, meta: &mut ProvMeta) {
        let kh = self
            .keys
            .hash(event)
            .expect("runtime validated the input event relation");
        let fresh = self.nodes[node.index()].htequi.insert(kh);
        meta.exist_flag = !fresh;
        meta.eq_hash = Some(kh);
        meta.wire_bytes = ADVANCED_META_BYTES;
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
        if meta.exist_flag {
            return out;
        }
        let slow_vids: Vec<Vid> = slow.iter().map(Tuple::vid).collect();
        let rid = advanced_rid(&rule.label, &slow_vids, meta.prev);
        let nrid = node_rid(&rule.label, &slow_vids);
        self.store.insert(
            node,
            nrid,
            RuleExecRow {
                rloc: node,
                rid,
                rule: rule.label.clone(),
                vids: slow_vids,
                next: None,
            },
            rid,
            meta.prev,
        );
        out.prev = Some((node, rid));
        out
    }

    fn on_output(&mut self, node: NodeId, output: &Tuple, meta: &ProvMeta) {
        let kh = meta.eq_hash.expect("cross-program meta carries eq_hash");
        let evid = meta.evid.expect("every execution carries its evid");
        let state = &mut self.nodes[node.index()];
        let references: Vec<(NodeId, Rid)> = if meta.exist_flag {
            match state.hmap.get(&kh) {
                Some((_, rs)) => rs.clone(),
                None => {
                    self.hmap_misses += 1;
                    return;
                }
            }
        } else {
            let r = meta
                .prev
                .expect("uncompressed executions carry their chain head");
            match state.hmap.get_mut(&kh) {
                Some((e, refs)) if *e == evid => {
                    if !refs.contains(&r) {
                        refs.push(r);
                    }
                }
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
    }

    fn on_sig(&mut self, node: NodeId) {
        self.nodes[node.index()].htequi.clear();
    }

    fn storage_at(&self, node: NodeId) -> usize {
        // Per-program prov rows plus this node's share of the store. When
        // reporting combined storage across programs, use
        // `prov_storage_at` + one `SharedNodeStore::storage_at` instead,
        // so the shared tables are not double-counted.
        self.nodes[node.index()].prov.bytes() + self.store.storage_at(node)
    }

    fn retains_intermediates(&self) -> bool {
        false // queried like Advanced
    }
}

impl AdvancedStore for CrossProgramRecorder {
    fn lookup_prov(&self, loc: NodeId, vid: &Vid, evid: &EvId) -> Vec<ProvRowAdv> {
        self.nodes
            .get(loc.index())
            .map(|n| n.prov.get_all(vid, evid).cloned().collect())
            .unwrap_or_default()
    }

    fn lookup_rule_exec(&self, loc: NodeId, rid: &Rid) -> Option<RuleExecView> {
        self.store.get(loc, rid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advanced::AdvancedRecorder;
    use crate::query::{query_advanced, QueryCtx};
    use crate::reference::GroundTruthRecorder;
    use dpc_apps::forwarding;
    use dpc_engine::{Runtime, TeeRecorder};
    use dpc_ndlog::{equivalence_keys, parse_program, Delp};
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
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

    fn setup<R: ProvRecorder>(delp: Delp, rec: R) -> Runtime<R> {
        let net = topo::line(4, Link::STUB_STUB);
        let mut rt = Runtime::new(delp, net, rec);
        for i in 0..3u32 {
            rt.install(forwarding::route(n(i), n(3), n(i + 1))).unwrap();
        }
        rt
    }

    #[test]
    fn shared_rules_dedupe_across_programs() {
        let store = SharedNodeStore::new(4);
        let keys_a = equivalence_keys(&dpc_ndlog::programs::packet_forwarding());
        let keys_b = equivalence_keys(&mirror());
        let mut rt_a = setup(
            dpc_ndlog::programs::packet_forwarding(),
            CrossProgramRecorder::new(keys_a, store.clone()),
        );
        let mut rt_b = setup(mirror(), CrossProgramRecorder::new(keys_b, store.clone()));

        rt_a.inject(forwarding::packet(n(0), n(0), n(3), "a"))
            .unwrap();
        rt_a.run().unwrap();
        let after_a = store.total_storage();
        let nodes_after_a: usize = (0..4).map(|i| store.node_rows(n(i))).sum();

        rt_b.inject(forwarding::packet(n(0), n(0), n(3), "b"))
            .unwrap();
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
        let keys_a = equivalence_keys(&dpc_ndlog::programs::packet_forwarding());
        let keys_b = equivalence_keys(&mirror());
        let mut rt_a = setup(
            dpc_ndlog::programs::packet_forwarding(),
            TeeRecorder::new(
                CrossProgramRecorder::new(keys_a, store.clone()),
                GroundTruthRecorder::new(),
            ),
        );
        let mut rt_b = setup(
            mirror(),
            TeeRecorder::new(
                CrossProgramRecorder::new(keys_b, store),
                GroundTruthRecorder::new(),
            ),
        );
        rt_a.inject(forwarding::packet(n(0), n(0), n(3), "a"))
            .unwrap();
        rt_a.run().unwrap();
        rt_b.inject(forwarding::packet(n(1), n(1), n(3), "b"))
            .unwrap();
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
        // Two programs sharing r1: cross-program store vs two independent
        // inter-class recorders.
        let keys_a = equivalence_keys(&dpc_ndlog::programs::packet_forwarding());
        let keys_b = equivalence_keys(&mirror());

        // Independent.
        let mut ind_a = setup(
            dpc_ndlog::programs::packet_forwarding(),
            AdvancedRecorder::with_inter_class(4, keys_a.clone()),
        );
        let mut ind_b = setup(
            mirror(),
            AdvancedRecorder::with_inter_class(4, keys_b.clone()),
        );
        // Shared.
        let store = SharedNodeStore::new(4);
        let mut sh_a = setup(
            dpc_ndlog::programs::packet_forwarding(),
            CrossProgramRecorder::new(keys_a, store.clone()),
        );
        let mut sh_b = setup(mirror(), CrossProgramRecorder::new(keys_b, store.clone()));

        for s in 0..3u32 {
            let p = forwarding::packet(n(s), n(s), n(3), "x");
            ind_a.inject(p.clone()).unwrap();
            ind_a.run().unwrap();
            ind_b.inject(p.clone()).unwrap();
            ind_b.run().unwrap();
            sh_a.inject(p.clone()).unwrap();
            sh_a.run().unwrap();
            sh_b.inject(p).unwrap();
            sh_b.run().unwrap();
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
}
