//! Failure injection: packets vanish on a lossy hop, yet the provenance
//! of every *delivered* packet stays complete and queryable — dropped
//! executions simply never derive their outputs, exactly like the
//! dropped packets themselves.
//!
//! Run with: `cargo run --example lossy_network`

use dpc::netsim::topo;
use dpc::prelude::*;

fn main() {
    let net = topo::line(4, Link::STUB_STUB);
    let keys = equivalence_keys(&programs::packet_forwarding());
    let mut rt = forwarding::make_runtime(net, AdvancedRecorder::new(4, keys));
    forwarding::install_routes_for_pairs(&mut rt, &[(NodeId(0), NodeId(3))])
        .expect("line is connected");

    // Drop every 3rd message on the middle hop.
    rt.inject_loss(NodeId(1), NodeId(2), 3);

    for i in 0..9u64 {
        rt.inject(forwarding::packet(
            NodeId(0),
            NodeId(0),
            NodeId(3),
            format!("pkt-{i}"),
        ))
        .expect("inject");
    }
    rt.run().expect("run");

    println!(
        "sent 9 packets, {} delivered, {} dropped on the lossy n1->n2 hop\n",
        rt.outputs().len(),
        rt.metrics().dropped_messages
    );

    let ctx = QueryCtx::from_runtime(&rt);
    for out in rt.outputs() {
        let res = query_advanced(&ctx, rt.recorder(), &out.tuple, &out.evid)
            .expect("delivered packets stay queryable");
        println!(
            "{} — provenance intact ({} rule executions)",
            out.tuple,
            res.tree.depth()
        );
    }
    println!(
        "\nno hmap misses: {} — loss never corrupts the compressed tables.",
        rt.recorder().hmap_misses()
    );
}
