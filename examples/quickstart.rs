//! Quickstart: the paper's running example end to end.
//!
//! Reproduces Figure 2's deployment (three nodes, routes toward the last),
//! sends the two packets of Figure 6, prints the compressed tables
//! (Table 3's shape) and queries both provenance trees back out.
//!
//! Run with: `cargo run --example quickstart`

use dpc::prelude::*;

fn main() {
    // --- Deploy -----------------------------------------------------------
    // The NDlog program of Figure 1, parsed from source and validated as a
    // DELP; static analysis identifies the equivalence keys (loc, dst).
    let delp = programs::packet_forwarding();
    let keys = equivalence_keys(&delp);
    println!("program:\n{}", delp.program());
    println!(
        "equivalence keys of `{}`: attributes {:?}\n",
        keys.rel(),
        keys.indices()
    );

    let net = dpc::netsim::topo::line(3, Link::STUB_STUB);
    let mut rt = forwarding::make_runtime(net, AdvancedRecorder::new(3, keys));
    rt.install(forwarding::route(NodeId(0), NodeId(2), NodeId(1)))
        .expect("install route at n0");
    rt.install(forwarding::route(NodeId(1), NodeId(2), NodeId(2)))
        .expect("install route at n1");

    // --- Execute (Figure 6) -----------------------------------------------
    for payload in ["data", "url"] {
        rt.inject(forwarding::packet(NodeId(0), NodeId(0), NodeId(2), payload))
            .expect("inject packet");
    }
    rt.run().expect("run to fixpoint");

    println!("outputs:");
    for out in rt.outputs() {
        println!("  {} at {} ({})", out.tuple, out.node, out.at);
    }

    // --- Inspect the compressed storage (Table 3's shape) ------------------
    println!("\nper-node provenance storage (bytes):");
    for i in 0..3u32 {
        let (prov, rule_exec) = rt.recorder().row_counts(NodeId(i));
        println!(
            "  n{i}: {:5} B  ({} prov rows, {} ruleExec rows)",
            rt.recorder().storage_at(NodeId(i)),
            prov,
            rule_exec
        );
    }
    println!(
        "note: one shared ruleExec chain, one prov row per packet — the\n\
         second packet reused the first packet's tree."
    );

    // --- Query both trees back (Section 5.6) -------------------------------
    let ctx = QueryCtx::from_runtime(&rt);
    for out in rt.outputs() {
        let res = query_advanced(&ctx, rt.recorder(), &out.tuple, &out.evid)
            .expect("every stored output is queryable");
        println!(
            "\nprovenance of {} (query latency {}, {} messages):\n{}",
            out.tuple, res.latency, res.messages, res.tree
        );
    }
}
