//! Micro-benchmarks: wall-clock cost of executing provenance queries
//! (the message-level protocol plus reconstruction), per scheme.
//!
//! Runs on the in-tree `dpc_bench::microbench` harness; enable with
//! `--features microbench`.

use dpc_apps::forwarding;
use dpc_bench::microbench::Bench;
use dpc_common::NodeId;
use dpc_core::{
    query_advanced, query_basic, query_exspan, AdvancedRecorder, BasicRecorder, ExspanRecorder,
    QueryCtx,
};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::{equivalence_keys, programs};
use dpc_netsim::{topo, Link};
use std::hint::black_box;

const LINE: usize = 10;

fn setup<R: ProvRecorder>(rec: R) -> Runtime<R> {
    let net = topo::line(LINE, Link::STUB_STUB);
    let mut rt = forwarding::make_runtime(net, rec);
    let dst = NodeId(LINE as u32 - 1);
    forwarding::install_routes_for_pairs(&mut rt, &[(NodeId(0), dst)]).expect("connected");
    for i in 0..20 {
        rt.inject(forwarding::packet(
            NodeId(0),
            NodeId(0),
            dst,
            forwarding::payload(i),
        ))
        .expect("valid");
    }
    rt.run().expect("run");
    rt
}

fn main() {
    let mut b = Bench::from_args();

    let rt = setup(ExspanRecorder::new(LINE));
    let out = rt.outputs()[7].clone();
    let ctx = QueryCtx::from_runtime(&rt);
    b.bench("query_9hop_chain/exspan", || {
        query_exspan(&ctx, rt.recorder(), black_box(&out.tuple)).unwrap()
    });

    let rt = setup(BasicRecorder::new(LINE));
    let out = rt.outputs()[7].clone();
    let ctx = QueryCtx::from_runtime(&rt);
    b.bench("query_9hop_chain/basic", || {
        query_basic(&ctx, rt.recorder(), black_box(&out.tuple)).unwrap()
    });

    let keys = equivalence_keys(&programs::packet_forwarding());
    let rt = setup(AdvancedRecorder::new(LINE, keys.clone()));
    let out = rt.outputs()[7].clone();
    let ctx = QueryCtx::from_runtime(&rt);
    b.bench("query_9hop_chain/advanced", || {
        query_advanced(&ctx, rt.recorder(), black_box(&out.tuple), &out.evid).unwrap()
    });

    let rt = setup(AdvancedRecorder::with_inter_class(LINE, keys));
    let out = rt.outputs()[7].clone();
    let ctx = QueryCtx::from_runtime(&rt);
    b.bench("query_9hop_chain/advanced_interclass", || {
        query_advanced(&ctx, rt.recorder(), black_box(&out.tuple), &out.evid).unwrap()
    });

    // Ablation: Basic's query-time re-derivation cost as the chain grows —
    // the trade Section 4 makes to drop intermediate tuples from storage.
    use dpc_core::reconstruct::{reconstruct, ChainLevel};
    let plans = dpc_engine::PlanSet::compile(&programs::packet_forwarding()).unwrap();
    let fns = dpc_engine::FnRegistry::new();
    for hops in [2usize, 4, 8, 16] {
        // A chain of `hops` r1 levels plus the final r2.
        let mut chain = vec![ChainLevel {
            rule: "r2".into(),
            slow: vec![],
        }];
        for i in (0..hops).rev() {
            chain.push(ChainLevel {
                rule: "r1".into(),
                slow: vec![forwarding::route(
                    NodeId(i as u32),
                    NodeId(hops as u32),
                    NodeId(i as u32 + 1),
                )],
            });
        }
        let event = forwarding::packet(
            NodeId(0),
            NodeId(0),
            NodeId(hops as u32),
            forwarding::payload(0),
        );
        b.bench(&format!("reconstruct_chain/{hops}_hops"), || {
            reconstruct(&plans, &fns, black_box(&chain), black_box(&event)).unwrap()
        });
    }

    b.finish();
}
