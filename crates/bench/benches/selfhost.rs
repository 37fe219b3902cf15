//! Ablation micro-benchmark: native recorder hooks vs the self-hosted
//! rewrite (Section 6's compile-time instrumentation path). The rewrite
//! pays for hash recomputation in the language (`f_vid`/`f_arid` calls
//! per rule firing) plus the extra provenance-rule evaluations.
//!
//! Runs on the in-tree `dpc_bench::microbench` harness; enable with
//! `--features microbench`.

use dpc_apps::forwarding;
use dpc_bench::microbench::Bench;
use dpc_common::NodeId;
use dpc_core::{
    extend_input_event_advanced, register_advanced_fns, register_provenance_fns, AdvancedRecorder,
};
use dpc_engine::{NoopRecorder, Runtime};
use dpc_ndlog::rewrite::rewrite_advanced;
use dpc_ndlog::{equivalence_keys, programs, Delp};
use dpc_netsim::{topo, Link};

const LINE: usize = 6;
const PACKETS: usize = 50;

fn run_native() -> usize {
    let keys = equivalence_keys(&programs::packet_forwarding());
    let net = topo::line(LINE, Link::STUB_STUB);
    let mut rt = forwarding::make_runtime(net, AdvancedRecorder::new(LINE, keys));
    let dst = NodeId(LINE as u32 - 1);
    forwarding::install_routes_for_pairs(&mut rt, &[(NodeId(0), dst)]).expect("connected");
    for i in 0..PACKETS {
        rt.inject(forwarding::packet(
            NodeId(0),
            NodeId(0),
            dst,
            forwarding::payload(i as u64),
        ))
        .expect("inject");
    }
    rt.run().expect("run");
    rt.outputs().len()
}

fn run_self_hosted() -> usize {
    let delp = programs::packet_forwarding();
    let keys = equivalence_keys(&delp);
    let rewritten = Delp::new_relaxed(rewrite_advanced(&delp, &keys)).expect("validates");
    let mut rt = Runtime::new(rewritten, topo::line(LINE, Link::STUB_STUB), NoopRecorder)
        .expect("rewritten program builds");
    register_provenance_fns(rt.fns_mut());
    register_advanced_fns(rt.fns_mut());
    let dst = NodeId(LINE as u32 - 1);
    for i in 0..LINE as u32 - 1 {
        rt.install(forwarding::route(NodeId(i), dst, NodeId(i + 1)))
            .expect("install");
    }
    for i in 0..PACKETS {
        rt.inject(extend_input_event_advanced(&forwarding::packet(
            NodeId(0),
            NodeId(0),
            dst,
            forwarding::payload(i as u64),
        )))
        .expect("inject");
    }
    rt.run().expect("run");
    rt.outputs()
        .iter()
        .filter(|o| o.tuple.rel() == "recv")
        .count()
}

fn main() {
    let mut b = Bench::from_args();
    b.bench(
        "advanced_instrumentation_per_50_packets/native_recorder_hooks",
        run_native,
    );
    b.bench(
        "advanced_instrumentation_per_50_packets/self_hosted_rewrite",
        run_self_hosted,
    );
    b.finish();
}
