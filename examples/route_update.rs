//! Updates to slow-changing tables (Section 5.5 / Figure 7): an
//! administrator redirects traffic from the n0→n1→n2 path to a new node
//! n3; the `sig` broadcast makes the compression layer re-materialize the
//! provenance trees, so packets before and after the change both remain
//! queryable — and their trees show the different paths taken.
//!
//! Run with: `cargo run --example route_update`

use dpc::netsim::topo;
use dpc::prelude::*;

fn main() {
    // Figure 7's topology: 0-1-2 line plus an alternative 0-3-2 path.
    let mut net = topo::line(3, Link::STUB_STUB);
    let n3 = {
        let id = net.add_node();
        net.add_link(NodeId(0), id, Link::STUB_STUB)
            .expect("fresh link");
        net.add_link(id, NodeId(2), Link::STUB_STUB)
            .expect("fresh link");
        id
    };

    let keys = equivalence_keys(&programs::packet_forwarding());
    let mut rt = forwarding::make_runtime(net, AdvancedRecorder::new(4, keys));
    rt.install(forwarding::route(NodeId(0), NodeId(2), NodeId(1)))
        .expect("install");
    rt.install(forwarding::route(NodeId(1), NodeId(2), NodeId(2)))
        .expect("install");
    rt.install(forwarding::route(n3, NodeId(2), NodeId(2)))
        .expect("install");

    // Packet before the change.
    rt.inject(forwarding::packet(
        NodeId(0),
        NodeId(0),
        NodeId(2),
        "before",
    ))
    .expect("inject");
    rt.run().expect("run");

    // The administrator redirects: delete the old entry, insert the new
    // one. The insertion broadcasts `sig` (Section 5.5), clearing every
    // node's equivalence-keys table.
    println!("--- redirecting n0's route from n1 to {n3} ---\n");
    rt.delete_slow_at(forwarding::route(NodeId(0), NodeId(2), NodeId(1)), rt.now())
        .expect("schedule delete");
    rt.update_slow_at(forwarding::route(NodeId(0), NodeId(2), n3), rt.now())
        .expect("schedule insert");
    rt.run().expect("apply update");

    // Packet after the change: same equivalence keys (loc, dst), but the
    // cleared htequi forces a fresh tree.
    rt.inject(forwarding::packet(NodeId(0), NodeId(0), NodeId(2), "after"))
        .expect("inject");
    rt.run().expect("run");

    assert_eq!(rt.recorder().hmap_misses(), 0);
    let ctx = QueryCtx::from_runtime(&rt);
    for out in rt.outputs() {
        let res = query_advanced(&ctx, rt.recorder(), &out.tuple, &out.evid)
            .expect("both packets stay queryable");
        println!("provenance of {}:\n{}", out.tuple, res.tree);
    }
    println!(
        "the first tree routes via n1, the second via {n3} — the update\n\
         was captured without losing the earlier history."
    );
}
