//! The compile-time rewrite engine (Section 6) end to end: a DELP is
//! rewritten into a plain NDlog program that maintains — and compresses —
//! its own provenance, using only the language plus the `f_vid`/`f_arid`/
//! `f_existflag` user functions. No recorder is attached; the provenance
//! rows come out as ordinary derived tuples.
//!
//! Run with: `cargo run --example self_hosted`

use dpc::core::{register_advanced_fns, register_provenance_fns, selfhost};
use dpc::ndlog::rewrite::rewrite_advanced;
use dpc::netsim::topo;
use dpc::prelude::*;

fn main() {
    let delp = programs::packet_forwarding();
    let keys = equivalence_keys(&delp);
    let rewritten_src = rewrite_advanced(&delp, &keys);
    println!("== rewritten program (self-hosting Advanced compression) ==");
    println!("{rewritten_src}");

    let rewritten = Delp::new_relaxed(rewritten_src).expect("rewrite output validates");
    let mut rt = Runtime::new(rewritten, topo::line(3, Link::STUB_STUB), NoopRecorder)
        .expect("rewritten program builds");
    register_provenance_fns(rt.fns_mut());
    register_advanced_fns(rt.fns_mut());
    rt.install(forwarding::route(NodeId(0), NodeId(2), NodeId(1)))
        .expect("install");
    rt.install(forwarding::route(NodeId(1), NodeId(2), NodeId(2)))
        .expect("install");

    // Figure 6's two packets, extended with the NULL meta reference.
    for payload in ["data", "url"] {
        let pkt = forwarding::packet(NodeId(0), NodeId(0), NodeId(2), payload);
        rt.inject(selfhost::extend_input_event_advanced(&pkt))
            .expect("inject");
        rt.run().expect("run");
    }

    println!("== derived tuples ==");
    let mut exec_rows = 0;
    for out in rt.outputs() {
        if out.tuple.rel().starts_with("ruleExecA_") {
            exec_rows += 1;
        }
        println!("  {}", out.tuple);
    }
    println!(
        "\n{exec_rows} ruleExec rows for 2 packets — the second execution was\n\
         compressed by the program itself (its recv carries Flag = true and\n\
         the same shared (PLoc, PRid) reference as the first's)."
    );
}
