//! Cross-program provenance compression (the paper's Section 8 future
//! work): two protocols sharing the forwarding rule `r1` — packet
//! delivery and a mirroring/telemetry variant — store their rule
//! executions in one shared node store, so the shared rule's provenance
//! is kept once.
//!
//! Run with: `cargo run --example cross_program`

use dpc::core::SharedNodeStore;
use dpc::netsim::topo;
use dpc::prelude::*;

const MIRROR: &str = r#"
    r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
    r9 logged(@L, S, D, DT) :- packet(@L, S, D, DT), D == L.
"#;

fn main() {
    let delp_fwd = programs::packet_forwarding();
    let delp_mir =
        Delp::new(parse_program(MIRROR).expect("mirror parses")).expect("mirror is a valid DELP");
    let keys_fwd = equivalence_keys(&delp_fwd);
    let keys_mir = equivalence_keys(&delp_mir);

    let net = topo::line(5, Link::STUB_STUB);
    let store = SharedNodeStore::new(5);
    let mut rt_fwd = Runtime::new(
        delp_fwd,
        net.clone(),
        AdvancedRecorder::sharing(keys_fwd, store.clone()),
    )
    .expect("forwarding program builds");
    let mut rt_mir = Runtime::new(
        delp_mir,
        net,
        AdvancedRecorder::sharing(keys_mir, store.clone()),
    )
    .expect("mirror program builds");
    for rt in [&mut rt_fwd, &mut rt_mir] {
        for i in 0..4u32 {
            rt.install(forwarding::route(NodeId(i), NodeId(4), NodeId(i + 1)))
                .expect("install route");
        }
    }

    // The forwarding protocol carries a packet end to end...
    rt_fwd
        .inject(forwarding::packet(NodeId(0), NodeId(0), NodeId(4), "data"))
        .expect("inject");
    rt_fwd.run().expect("run forwarding");
    let after_fwd = store.total_storage();
    println!("after forwarding run: shared store holds {after_fwd} B");

    // ...then the mirror protocol sends along the same path: its four r1
    // executions are already in the store; only r9's node is new.
    rt_mir
        .inject(forwarding::packet(NodeId(0), NodeId(0), NodeId(4), "data"))
        .expect("inject");
    rt_mir.run().expect("run mirror");
    let after_mir = store.total_storage();
    println!(
        "after mirror run:     shared store holds {after_mir} B (+{} B)",
        after_mir - after_fwd
    );
    for i in 0..5u32 {
        println!(
            "  n{i}: {} concrete rule-execution nodes, {} per-tree links",
            store.node_rows(NodeId(i)),
            store.link_rows(NodeId(i)),
        );
    }

    // Both protocols' provenance stays independently queryable.
    for (name, rt) in [("forwarding", &rt_fwd), ("mirror", &rt_mir)] {
        let out = rt.outputs()[0].clone();
        let ctx = QueryCtx::from_runtime(rt);
        let res = query_advanced(&ctx, rt.recorder(), &out.tuple, &out.evid).expect("queryable");
        println!("\n[{name}] provenance of {}:\n{}", out.tuple, res.tree);
    }
}
