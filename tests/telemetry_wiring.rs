//! The telemetry registry agrees with the runtime: every total written
//! through a metric handle equals the runtime's own count of the same
//! events, under every provenance scheme, on a lossy forwarding run and
//! on a DNS run. Per-node counts are checked against a recorder that
//! counts the stage hooks beside the scheme's, so a handle registered
//! under the wrong metric name, or indexed by the wrong node, fails here.

use dpc::engine::ProvMeta;
use dpc::ndlog::Rule;
use dpc::netsim::topo;
use dpc::prelude::*;
use dpc::telemetry::counters::INDEX_HITS;
use dpc::workload::random_pairs;
use dpc_common::SeededRng;

const SCHEMES: [Scheme; 4] = [
    Scheme::Noop,
    Scheme::Exspan,
    Scheme::Basic,
    Scheme::Advanced,
];

/// Counts the runtime's stage-1 (`on_input`) and stage-2 (`on_rule`)
/// hooks per node. It sits beside a scheme in a [`TeeRecorder`] and keeps
/// no tuples, so retention stays what the scheme asks for.
struct HookCounts {
    inputs: Vec<u64>,
    rules: Vec<u64>,
}

impl HookCounts {
    fn new(nodes: usize) -> HookCounts {
        HookCounts {
            inputs: vec![0; nodes],
            rules: vec![0; nodes],
        }
    }
}

impl ProvRecorder for HookCounts {
    fn on_input(&mut self, node: NodeId, _event: &Tuple, _meta: &mut ProvMeta) {
        self.inputs[node.index()] += 1;
    }

    fn on_rule(
        &mut self,
        node: NodeId,
        _rule: &Rule,
        _event: &Tuple,
        _slow: &[Tuple],
        _head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta {
        self.rules[node.index()] += 1;
        meta.clone()
    }

    fn on_output(&mut self, _node: NodeId, _output: &Tuple, _meta: &ProvMeta) {}

    fn storage_at(&self, _node: NodeId) -> usize {
        0
    }

    fn retains_intermediates(&self) -> bool {
        false
    }
}

type Counted = TeeRecorder<Box<dyn ProvRecorder>, HookCounts>;

fn counted(scheme: Scheme, delp: &Delp, nodes: usize) -> Counted {
    TeeRecorder::new(scheme.recorder(delp, nodes), HookCounts::new(nodes))
}

/// Per-node counter `name` as the registry holds it, 0 where never written.
fn by_node(t: &TelemetryHandle, name: &str, node: NodeId) -> u64 {
    t.counter_by_node(name).get(&node.0).copied().unwrap_or(0)
}

fn assert_registry_matches_runtime(rt: &Runtime<Counted>, t: &TelemetryHandle, scheme: Scheme) {
    let ctx = format!("{scheme:?}");
    let m = rt.metrics();
    assert!(
        m.rules_fired > 0 && m.outputs > 0,
        "{ctx}: the run did work"
    );
    assert_eq!(
        t.counter_total("engine.rules_fired"),
        m.rules_fired,
        "{ctx}"
    );
    assert_eq!(t.counter_total(INDEX_HITS), m.index_hits, "{ctx}");
    assert_eq!(
        t.counter_total("net.msgs_sent"),
        rt.stats().messages(),
        "{ctx}"
    );
    assert_eq!(
        t.counter_total("net.msgs_dropped"),
        m.dropped_messages,
        "{ctx}"
    );
    let hooks = &rt.recorder().shadow;
    assert_eq!(hooks.rules.iter().sum::<u64>(), m.rules_fired, "{ctx}");
    let htequi =
        t.counter_total("recorder.htequi_hits") + t.counter_total("recorder.htequi_misses");
    for node in rt.net().nodes() {
        let at = format!("{ctx} at {node}");
        assert_eq!(
            by_node(t, "engine.rules_fired", node),
            hooks.rules[node.index()],
            "{at}"
        );
        if scheme == Scheme::Advanced {
            // Every fresh input runs exactly one equivalence-key check,
            // at the node it entered.
            let checks = by_node(t, "recorder.htequi_hits", node)
                + by_node(t, "recorder.htequi_misses", node);
            assert_eq!(checks, hooks.inputs[node.index()], "{at}");
        }
    }
    let expected_checks = if scheme == Scheme::Advanced {
        hooks.inputs.iter().sum()
    } else {
        0
    };
    assert_eq!(htequi, expected_checks, "{ctx}");
}

#[test]
fn lossy_forwarding_registry_matches_runtime() {
    let mut rng = SeededRng::seed_from_u64(7);
    let ts = topo::transit_stub(&mut rng, &topo::TransitStubParams::default());
    let pairs = random_pairs(&mut rng, &ts.stub, 12);
    let n = ts.net.node_count();
    for scheme in SCHEMES {
        let t = Telemetry::handle();
        let recorder = counted(scheme, &programs::packet_forwarding(), n);
        let mut rt = forwarding::make_runtime(ts.net.clone(), recorder);
        rt.attach_telemetry(t.clone());
        forwarding::install_routes_for_pairs(&mut rt, &pairs).unwrap();
        // Drop every third message on each pair's first hop.
        for &(s, d) in &pairs {
            let next = rt.net().hop_tree(s).unwrap().path(d).unwrap()[1];
            rt.inject_loss(s, next, 3);
        }
        for (i, &(s, d)) in pairs.iter().enumerate() {
            for k in 0..4 {
                rt.inject(forwarding::packet(s, s, d, format!("p{i}-{k}")))
                    .unwrap();
            }
        }
        rt.run().unwrap();
        assert!(
            rt.metrics().dropped_messages > 0,
            "{scheme:?}: loss injected"
        );
        assert_registry_matches_runtime(&rt, &t, scheme);
    }
}

#[test]
fn dns_registry_matches_runtime() {
    let mut rng = SeededRng::seed_from_u64(11);
    let tree = topo::tree(
        &mut rng,
        &topo::TreeParams {
            nodes: 30,
            ..topo::TreeParams::default()
        },
    );
    let n = tree.net.node_count();
    for scheme in SCHEMES {
        let t = Telemetry::handle();
        let recorder = counted(scheme, &programs::dns_resolution(), n);
        let mut rt = dns::make_runtime(&tree, recorder);
        rt.attach_telemetry(t.clone());
        let dep = dns::deploy(&mut rt, &tree, 40, &[tree.root]).unwrap();
        // Repeat URLs so the Advanced scheme sees equivalence hits.
        for i in 0..120 {
            let url = &dep.urls[(i * 7) % dep.urls.len()].0;
            rt.inject(dns::url_event(tree.root, url.clone(), i as i64))
                .unwrap();
        }
        rt.run().unwrap();
        if scheme == Scheme::Advanced {
            assert!(t.counter_total("recorder.htequi_hits") > 0);
        }
        assert_registry_matches_runtime(&rt, &t, scheme);
    }
}
