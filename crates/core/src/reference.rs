//! The ground-truth recorder: full provenance trees captured directly from
//! semi-naïve execution.
//!
//! This is the oracle side of the paper's correctness results: Theorem 3
//! says the compressed tables encode exactly the trees semi-naïve
//! evaluation produces, and Theorem 5 says the query algorithm returns
//! them. The test suites run this recorder in the shadow slot of a
//! `TeeRecorder` and compare.

use std::collections::HashMap;

use dpc_common::{EvId, NodeId, Tuple, Vid};
use dpc_engine::{ProvMeta, ProvRecorder, Stage};
use dpc_ndlog::Rule;

use crate::tree::ProvTree;

/// One observed rule firing.
#[derive(Debug, Clone)]
struct Step {
    rule: String,
    event: Tuple,
    slow: Vec<Tuple>,
    head: Tuple,
}

/// Captures the full provenance tree of every completed execution.
#[derive(Debug, Default)]
pub struct GroundTruthRecorder {
    /// Steps per execution. Entries are retained after completion because
    /// one execution can produce several outputs (e.g. a rule joining a
    /// multi-row slow table), each needing the shared step prefix.
    pending: HashMap<u64, Vec<Step>>,
    /// Executions that produced at least one output.
    completed: std::collections::HashSet<u64>,
    /// Completed trees: (output tuple, evid, tree).
    trees: Vec<(Tuple, EvId, ProvTree)>,
}

impl GroundTruthRecorder {
    /// An empty recorder.
    pub fn new() -> GroundTruthRecorder {
        GroundTruthRecorder::default()
    }

    /// All completed trees in completion order.
    pub fn trees(&self) -> &[(Tuple, EvId, ProvTree)] {
        &self.trees
    }

    /// The tree of a specific output tuple and execution.
    pub fn tree_for(&self, output: &Tuple, evid: &EvId) -> Option<&ProvTree> {
        self.trees
            .iter()
            .find(|(t, e, _)| t == output && e == evid)
            .map(|(_, _, tr)| tr)
    }

    /// The provenance tree of *any* derived tuple — including intermediate
    /// events that no storage scheme keeps concrete provenance for. This
    /// is the read-side of the Section 3.2 reactive strategy: after a
    /// replay, the tree of a "tuple of less interest" is assembled from
    /// the captured rule firings.
    pub fn tree_for_tuple(&self, tuple: &Tuple) -> Option<ProvTree> {
        for steps in self.pending.values() {
            if steps.iter().any(|s| s.head == *tuple) {
                if let Some(tree) = Self::assemble(steps, tuple) {
                    return Some(tree);
                }
            }
        }
        None
    }

    /// Number of executions that fired rules but never produced an output
    /// (e.g. dropped packets).
    pub fn incomplete_executions(&self) -> usize {
        self.pending
            .keys()
            .filter(|id| !self.completed.contains(id))
            .count()
    }

    fn assemble(steps: &[Step], output: &Tuple) -> Option<ProvTree> {
        // Index steps by the vid of their head; walk backwards from the
        // output through event vids.
        let mut by_head: HashMap<Vid, Step> =
            steps.iter().cloned().map(|s| (s.head.vid(), s)).collect();
        let mut chain = Vec::new();
        let mut cur_vid = output.vid();
        while let Some(step) = by_head.remove(&cur_vid) {
            cur_vid = step.event.vid();
            chain.push(step);
        }
        // `chain` is root-first; fold from the tail.
        let tail = chain.pop()?;
        let mut tree = ProvTree::Leaf {
            rule: tail.rule,
            output: tail.head,
            event: tail.event,
            slow: tail.slow,
        };
        while let Some(step) = chain.pop() {
            tree = ProvTree::Node {
                rule: step.rule,
                output: step.head,
                child: Box::new(tree),
                slow: step.slow,
            };
        }
        Some(tree)
    }
}

impl ProvRecorder for GroundTruthRecorder {
    fn on_input(&mut self, _node: NodeId, _event: &Tuple, _meta: &mut ProvMeta) {}

    fn on_rule(
        &mut self,
        _node: NodeId,
        rule: &Rule,
        event: &Tuple,
        slow: &[Tuple],
        head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta {
        self.pending.entry(meta.exec_id).or_default().push(Step {
            rule: rule.label.clone(),
            event: event.clone(),
            slow: slow.to_vec(),
            head: head.clone(),
        });
        let mut out = meta.clone();
        out.stage = Stage::Derived;
        out
    }

    fn on_output(&mut self, _node: NodeId, output: &Tuple, meta: &ProvMeta) {
        let Some(steps) = self.pending.get(&meta.exec_id) else {
            return;
        };
        let evid = meta.evid.expect("every execution carries its evid");
        if let Some(tree) = Self::assemble(steps, output) {
            debug_assert_eq!(tree.output(), output);
            self.completed.insert(meta.exec_id);
            self.trees.push((output.clone(), evid, tree));
        }
    }

    fn storage_at(&self, _node: NodeId) -> usize {
        0 // the oracle is not a storage scheme
    }

    fn retains_intermediates(&self) -> bool {
        false // it keeps its own copies of every step
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

    fn run_line(k: usize, payloads: &[&str]) -> Runtime<GroundTruthRecorder> {
        let net = topo::line(k, Link::STUB_STUB);
        let mut rt = Runtime::new(
            programs::packet_forwarding(),
            net,
            GroundTruthRecorder::new(),
        )
        .unwrap();
        for i in 0..k as u32 - 1 {
            rt.install(route(i, k as u32 - 1, i + 1)).unwrap();
        }
        for p in payloads {
            rt.inject(packet(0, 0, k as u32 - 1, p)).unwrap();
        }
        rt.run().unwrap();
        rt
    }

    #[test]
    fn captures_figure3_tree() {
        let rt = run_line(3, &["data"]);
        let rec = rt.recorder();
        assert_eq!(rec.trees().len(), 1);
        let (_out, _evid, tree) = &rec.trees()[0];
        assert_eq!(tree.rules(), vec!["r2", "r1", "r1"]);
        assert_eq!(tree.event(), &packet(0, 0, 2, "data"));
        assert_eq!(tree.output().rel(), "recv");
        // Slow tuples level by level: r2 none, r1@n1 route, r1@n0 route.
        assert!(tree.slow().is_empty());
        let c1 = tree.child().unwrap();
        assert_eq!(c1.slow(), &[route(1, 2, 2)]);
        let c0 = c1.child().unwrap();
        assert_eq!(c0.slow(), &[route(0, 2, 1)]);
        assert_eq!(rec.incomplete_executions(), 0);
    }

    #[test]
    fn equivalent_packets_give_equivalent_trees() {
        let rt = run_line(4, &["data", "url"]);
        let rec = rt.recorder();
        assert_eq!(rec.trees().len(), 2);
        let a = &rec.trees()[0].2;
        let b = &rec.trees()[1].2;
        assert!(a.equivalent(b));
        assert_ne!(a.event(), b.event());
    }

    #[test]
    fn tree_lookup_by_output_and_evid() {
        let rt = run_line(3, &["data"]);
        let rec = rt.recorder();
        let out = &rt.outputs()[0];
        assert!(rec.tree_for(&out.tuple, &out.evid).is_some());
        let other = EvId::of_bytes(b"nope");
        assert!(rec.tree_for(&out.tuple, &other).is_none());
    }

    #[test]
    fn dropped_packets_stay_pending() {
        let net = topo::line(3, Link::STUB_STUB);
        let mut rt = Runtime::new(
            programs::packet_forwarding(),
            net,
            GroundTruthRecorder::new(),
        )
        .unwrap();
        // Route at n0 but a black hole at n1.
        rt.install(route(0, 2, 1)).unwrap();
        rt.inject(packet(0, 0, 2, "lost")).unwrap();
        rt.run().unwrap();
        assert!(rt.outputs().is_empty());
        assert_eq!(rt.recorder().trees().len(), 0);
        assert_eq!(rt.recorder().incomplete_executions(), 1);
    }
}
