//! The tuple-retention contract between the runtime and the recorders.
//!
//! With `RuntimeConfig::retain_tuples` on (the default), the runtime keeps
//! every input event resolvable by `vid` and `evid` at its input node and
//! every output by `vid` at its node. It keeps intermediate events (derived
//! by one rule, consumed by the next) resolvable by `vid` at the node that
//! handled them only when the recorder's queries read them
//! (`ProvRecorder::retains_intermediates`: ExSPAN alone). None of these
//! tuples enters a join table. Checked on a lossy forwarding line and a
//! small DNS deployment under every scheme, through the concrete recorder
//! types and through `Scheme::recorder`'s `Box<dyn ProvRecorder>`; and
//! every delivered output's message-level query must still return the
//! tree the execution built.

use dpc::core::{
    simulate_query_advanced, simulate_query_basic, simulate_query_exspan, QueryCostModel,
};
use dpc::netsim::{topo, Link};
use dpc::prelude::*;
use dpc_common::SeededRng;

type Run<R> = Runtime<TeeRecorder<R, GroundTruthRecorder>>;

/// A deployment the contract is checked on.
trait Workload {
    fn program(&self) -> Delp;
    fn nodes(&self) -> usize;
    /// Deploy, inject and drain with `rec` beside the ground truth.
    /// Returns the runtime and every injected input event.
    fn run<R: ProvRecorder>(&self, rec: R) -> (Run<R>, Vec<Tuple>);
}

/// Four nodes in a line, packets from n0 to n3, every third message on
/// n1 -> n2 dropped. The first packet always gets through, so each
/// equivalence class is stored before any of its members is lost; a
/// dropped first member is a separate, known gap of the Advanced scheme
/// that this test does not exercise.
struct LossyLine;

impl Workload for LossyLine {
    fn program(&self) -> Delp {
        programs::packet_forwarding()
    }

    fn nodes(&self) -> usize {
        4
    }

    fn run<R: ProvRecorder>(&self, rec: R) -> (Run<R>, Vec<Tuple>) {
        let net = topo::line(4, Link::STUB_STUB);
        let rec = TeeRecorder::new(rec, GroundTruthRecorder::new());
        let mut rt = forwarding::make_runtime(net, rec);
        let (src, dst) = (NodeId(0), NodeId(3));
        forwarding::install_routes_for_pairs(&mut rt, &[(src, dst)]).unwrap();
        rt.inject_loss(NodeId(1), NodeId(2), 3);
        let inputs: Vec<Tuple> = (0..9)
            .map(|i| forwarding::packet(src, src, dst, forwarding::payload(i)))
            .collect();
        for t in &inputs {
            rt.inject(t.clone()).unwrap();
        }
        rt.run().unwrap();
        assert_eq!(rt.dropped_messages(), 3, "loss was injected");
        assert_eq!(rt.outputs().len(), 6);
        (rt, inputs)
    }
}

/// A 20-server DNS tree resolving 8 URLs from the root, each URL three
/// times.
struct SmallDns {
    tree: topo::Tree,
}

impl SmallDns {
    fn new() -> SmallDns {
        let mut rng = SeededRng::seed_from_u64(5);
        let tree = topo::tree(
            &mut rng,
            &topo::TreeParams {
                nodes: 20,
                ..topo::TreeParams::default()
            },
        );
        SmallDns { tree }
    }
}

impl Workload for SmallDns {
    fn program(&self) -> Delp {
        programs::dns_resolution()
    }

    fn nodes(&self) -> usize {
        self.tree.net.node_count()
    }

    fn run<R: ProvRecorder>(&self, rec: R) -> (Run<R>, Vec<Tuple>) {
        let rec = TeeRecorder::new(rec, GroundTruthRecorder::new());
        let mut rt = dns::make_runtime(&self.tree, rec);
        let host = self.tree.root;
        let dep = dns::deploy(&mut rt, &self.tree, 8, &[host]).unwrap();
        let inputs: Vec<Tuple> = (0..24)
            .map(|i| dns::url_event(host, dep.urls[i % 8].0.clone(), i as i64))
            .collect();
        for t in &inputs {
            rt.inject(t.clone()).unwrap();
        }
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), inputs.len());
        (rt, inputs)
    }
}

/// The intermediate event tuples of one delivered execution: every
/// derived tuple of its ground-truth tree except the output. Each was
/// handled at the node its location specifier names.
fn intermediates(tree: &ProvTree) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut cur = tree.child();
    while let Some(level) = cur {
        out.push(level.output().clone());
        cur = level.child();
    }
    out
}

fn assert_retention<R: ProvRecorder>(rt: &Run<R>, inputs: &[Tuple], label: &str) {
    let keeps = rt.recorder().retains_intermediates();
    for t in inputs {
        let node = t.loc().unwrap();
        assert_eq!(
            rt.tuple_by_vid(node, &t.vid()),
            Some(t),
            "{label}: input {t} by vid at {node}"
        );
        assert_eq!(
            rt.event_by_evid(node, &t.evid()),
            Some(t),
            "{label}: input {t} by evid at {node}"
        );
    }
    let mut checked = 0;
    for out in rt.outputs() {
        assert_eq!(
            rt.tuple_by_vid(out.node, &out.tuple.vid()),
            Some(&out.tuple),
            "{label}: output {} at {}",
            out.tuple,
            out.node
        );
        let tree = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .expect("the ground truth saw every delivered execution");
        for t in intermediates(tree) {
            let node = t.loc().unwrap();
            let found = rt.tuple_by_vid(node, &t.vid());
            assert_eq!(
                found.is_some(),
                keeps,
                "{label}: intermediate {t} at {node} (retains_intermediates = {keeps})"
            );
            if let Some(found) = found {
                assert_eq!(found, &t, "{label}");
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "{label}: the workload has intermediates");

    // Event and output relations have no join-table rows anywhere; the
    // slow-changing relations do.
    let delp = rt.delp();
    let mut slow_rows = 0;
    for node in rt.net().nodes() {
        let db = rt.db(node);
        for rel in delp.event_rels().iter().chain(delp.output_rels()) {
            assert_eq!(db.count(rel), 0, "{label}: `{rel}` rows at {node}");
        }
        slow_rows += delp.slow_rels().iter().map(|r| db.count(r)).sum::<usize>();
    }
    assert!(slow_rows > 0, "{label}: base tuples stay in their tables");
}

/// Every delivered output's message-level query returns the tree the
/// execution built.
fn assert_queries<R: ProvRecorder>(
    rt: &Run<R>,
    label: &str,
    query: impl Fn(&Run<R>, &dpc::engine::OutputRecord) -> dpc_common::Result<ProvTree>,
) {
    for out in rt.outputs() {
        let tree = query(rt, out)
            .unwrap_or_else(|e| panic!("{label}: query for {} failed: {e}", out.tuple));
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&tree, truth, "{label}: {}", out.tuple);
    }
}

fn check(w: &impl Workload, name: &str) {
    let delp = w.program();
    let n = w.nodes();
    let keys = equivalence_keys(&delp);
    let cost = QueryCostModel::default();

    let (rt, inputs) = w.run(NoopRecorder);
    assert!(!rt.recorder().retains_intermediates());
    assert_retention(&rt, &inputs, &format!("{name}/Noop"));

    let (rt, inputs) = w.run(ExspanRecorder::new(n));
    assert!(rt.recorder().retains_intermediates());
    let label = format!("{name}/ExSPAN");
    assert_retention(&rt, &inputs, &label);
    assert_queries(&rt, &label, |rt, out| {
        simulate_query_exspan(rt.net(), &rt.recorder().primary, rt, cost, &out.tuple, None)
            .map(|q| q.tree)
    });

    let (rt, inputs) = w.run(BasicRecorder::new(n));
    assert!(!rt.recorder().retains_intermediates());
    let label = format!("{name}/Basic");
    assert_retention(&rt, &inputs, &label);
    assert_queries(&rt, &label, |rt, out| {
        simulate_query_basic(
            rt.net(),
            &rt.recorder().primary,
            rt,
            rt.delp(),
            rt.fns(),
            cost,
            &out.tuple,
            None,
        )
        .map(|q| q.tree)
    });

    for (rec, label) in [
        (AdvancedRecorder::new(n, keys.clone()), "Advanced"),
        (
            AdvancedRecorder::with_inter_class(n, keys.clone()),
            "Advanced+InterClass",
        ),
    ] {
        let (rt, inputs) = w.run(rec);
        assert!(!rt.recorder().retains_intermediates());
        let label = format!("{name}/{label}");
        assert_retention(&rt, &inputs, &label);
        assert_queries(&rt, &label, |rt, out| {
            simulate_query_advanced(
                rt.net(),
                &rt.recorder().primary,
                rt,
                rt.delp(),
                rt.fns(),
                cost,
                &out.tuple,
                &out.evid,
                None,
            )
            .map(|q| q.tree)
        });
    }

    // The boxed recorders the figure runners drive.
    for scheme in Scheme::ALL {
        let (rt, inputs) = w.run(scheme.recorder(&delp, n));
        assert_eq!(
            rt.recorder().retains_intermediates(),
            scheme == Scheme::Exspan,
            "{scheme}"
        );
        assert_retention(&rt, &inputs, &format!("{name}/boxed {scheme}"));
    }
}

#[test]
fn lossy_forwarding_retains_what_each_scheme_queries() {
    check(&LossyLine, "lossy line");
}

#[test]
fn dns_retains_what_each_scheme_queries() {
    check(&SmallDns::new(), "dns");
}

#[test]
fn retain_tuples_off_retains_nothing() {
    let net = topo::line(4, Link::STUB_STUB);
    let mut rt = forwarding::runtime_builder(net)
        .recorder(ExspanRecorder::new(4))
        .config(dpc::engine::RuntimeConfig {
            retain_tuples: false,
            ..Default::default()
        })
        .build()
        .unwrap();
    let (src, dst) = (NodeId(0), NodeId(3));
    forwarding::install_routes_for_pairs(&mut rt, &[(src, dst)]).unwrap();
    let pkt = forwarding::packet(src, src, dst, "data");
    rt.inject(pkt.clone()).unwrap();
    rt.run().unwrap();
    let out = rt.outputs()[0].clone();
    assert_eq!(rt.tuple_by_vid(src, &pkt.vid()), None);
    assert_eq!(rt.event_by_evid(src, &pkt.evid()), None);
    assert_eq!(rt.tuple_by_vid(out.node, &out.tuple.vid()), None);
    let hop = forwarding::packet(NodeId(1), src, dst, "data");
    assert_eq!(rt.tuple_by_vid(NodeId(1), &hop.vid()), None);
    // Base tuples stay resolvable: the routes were installed, not retained.
    let route = forwarding::route(src, dst, NodeId(1));
    assert_eq!(rt.tuple_by_vid(src, &route.vid()), Some(&route));
}
