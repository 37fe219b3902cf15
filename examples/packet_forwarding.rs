//! Packet forwarding on the paper's 100-node transit-stub topology:
//! runs the same traffic under all three maintenance schemes and compares
//! storage, bandwidth and query latency — a miniature of Section 6.1.
//!
//! Run with: `cargo run --release --example packet_forwarding`

use dpc::netsim::topo;
use dpc::prelude::*;
use dpc::workload::{mb, random_pairs, Cdf};
use dpc_common::SeededRng;

const PAIRS: usize = 40;
const PACKETS_PER_PAIR: usize = 25;

fn build_pairs(seed: u64) -> (dpc::netsim::Network, Vec<(NodeId, NodeId)>) {
    let mut rng = SeededRng::seed_from_u64(seed);
    let ts = topo::transit_stub(&mut rng, &topo::TransitStubParams::default());
    let pairs = random_pairs(&mut rng, &ts.stub, PAIRS);
    (ts.net, pairs)
}

fn run<R: ProvRecorder>(recorder: R, seed: u64) -> (Runtime<R>, Vec<(NodeId, NodeId)>) {
    let (net, pairs) = build_pairs(seed);
    let mut rt = forwarding::make_runtime(net, recorder);
    forwarding::install_routes_for_pairs(&mut rt, &pairs).expect("connected topology");
    rt.clear_stats();
    let mut seq = 0u64;
    for k in 0..PACKETS_PER_PAIR {
        for &(s, d) in &pairs {
            rt.inject_at(
                forwarding::packet(s, s, d, forwarding::payload(seq)),
                SimTime::from_millis((k as u64) * 100),
            )
            .expect("valid packet");
            seq += 1;
        }
    }
    rt.run().expect("run to fixpoint");
    (rt, pairs)
}

fn total_storage<R: ProvRecorder>(rt: &Runtime<R>) -> usize {
    rt.net().nodes().map(|n| rt.recorder().storage_at(n)).sum()
}

fn main() {
    let seed = 42;
    println!(
        "transit-stub 100 nodes, {PAIRS} pairs x {PACKETS_PER_PAIR} packets (500 B payloads)\n"
    );

    // ExSPAN baseline.
    let (rt_e, _) = run(ExspanRecorder::new(100), seed);
    // Basic optimization.
    let (rt_b, _) = run(BasicRecorder::new(100), seed);
    // Equivalence-based compression.
    let keys = equivalence_keys(&programs::packet_forwarding());
    let (rt_a, _) = run(AdvancedRecorder::new(100, keys), seed);

    println!(
        "{:<12} {:>14} {:>14} {:>12}",
        "scheme", "storage", "bandwidth", "outputs"
    );
    for (name, storage, traffic, outputs) in [
        (
            "ExSPAN",
            total_storage(&rt_e),
            rt_e.stats().total_bytes(),
            rt_e.outputs().len(),
        ),
        (
            "Basic",
            total_storage(&rt_b),
            rt_b.stats().total_bytes(),
            rt_b.outputs().len(),
        ),
        (
            "Advanced",
            total_storage(&rt_a),
            rt_a.stats().total_bytes(),
            rt_a.outputs().len(),
        ),
    ] {
        println!(
            "{name:<12} {:>11.2} MB {:>11.2} MB {outputs:>12}",
            mb(storage),
            mb(traffic as usize),
        );
    }

    // Query latency comparison over the same 20 outputs.
    let ctx_e = QueryCtx::from_runtime(&rt_e);
    let ctx_b = QueryCtx::from_runtime(&rt_b);
    let ctx_a = QueryCtx::from_runtime(&rt_a);
    let mut le = Vec::new();
    let mut lb = Vec::new();
    let mut la = Vec::new();
    for i in (0..rt_e.outputs().len()).step_by(rt_e.outputs().len() / 20) {
        let oe = &rt_e.outputs()[i];
        le.push(
            query_exspan(&ctx_e, rt_e.recorder(), &oe.tuple)
                .expect("queryable")
                .latency
                .as_millis_f64(),
        );
        let ob = &rt_b.outputs()[i];
        lb.push(
            query_basic(&ctx_b, rt_b.recorder(), &ob.tuple)
                .expect("queryable")
                .latency
                .as_millis_f64(),
        );
        let oa = &rt_a.outputs()[i];
        la.push(
            query_advanced(&ctx_a, rt_a.recorder(), &oa.tuple, &oa.evid)
                .expect("queryable")
                .latency
                .as_millis_f64(),
        );
    }
    println!("\nquery latency (ms):");
    for (name, lat) in [("ExSPAN", le), ("Basic", lb), ("Advanced", la)] {
        let cdf = Cdf::new(lat);
        println!(
            "{name:<12} median {:>8.1}   mean {:>8.1}   max {:>8.1}",
            cdf.median(),
            cdf.mean(),
            cdf.max()
        );
    }
}
