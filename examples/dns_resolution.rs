//! Recursive DNS resolution with compressed provenance — a miniature of
//! Section 6.2: a 100-server hierarchy, Zipfian requests over 38 URLs,
//! storage comparison across schemes, and a provenance query for one
//! resolution showing the full delegation chain.
//!
//! Run with: `cargo run --release --example dns_resolution`

use dpc::apps::dns;
use dpc::netsim::topo;
use dpc::prelude::*;
use dpc::workload::{mb, Zipf};
use dpc_common::SeededRng;

const SERVERS: usize = 100;
const URLS: usize = 38;
const REQUESTS: usize = 1500;

fn run<R: ProvRecorder>(recorder: R, seed: u64) -> (Runtime<R>, dns::DnsDeployment) {
    let mut rng = SeededRng::seed_from_u64(seed);
    let tree = topo::tree(
        &mut rng,
        &topo::TreeParams {
            nodes: SERVERS,
            ..topo::TreeParams::default()
        },
    );
    let mut rt = dns::make_runtime(&tree, recorder);
    let client = tree.root;
    let dep = dns::deploy(&mut rt, &tree, URLS, &[client]).expect("deployable");
    rt.clear_stats();
    let zipf = Zipf::new(URLS, 1.0);
    for i in 0..REQUESTS {
        let url = dep.urls[zipf.sample(&mut rng)].0.clone();
        rt.inject_at(
            dns::url_event(client, url, i as i64),
            SimTime::from_millis(i as u64 * 5),
        )
        .expect("valid request");
    }
    rt.run().expect("run to fixpoint");
    (rt, dep)
}

fn total_storage<R: ProvRecorder>(rt: &Runtime<R>) -> usize {
    rt.net().nodes().map(|n| rt.recorder().storage_at(n)).sum()
}

fn main() {
    let seed = 7;
    println!("{SERVERS} nameservers, {URLS} URLs, {REQUESTS} Zipfian requests\n");

    let (rt_e, _) = run(ExspanRecorder::new(SERVERS), seed);
    let (rt_b, _) = run(BasicRecorder::new(SERVERS), seed);
    let keys = equivalence_keys(&programs::dns_resolution());
    let (rt_a, dep) = run(AdvancedRecorder::new(SERVERS, keys), seed);

    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "scheme", "storage", "bandwidth", "resolved"
    );
    for (name, s, t, o) in [
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
            "{name:<12} {:>11.3} MB {:>11.3} MB {o:>10}",
            mb(s),
            mb(t as usize)
        );
    }
    println!(
        "\nAdvanced bandwidth exceeds ExSPAN's here — DNS requests carry no\n\
         payload, so the tagged metadata is visible (Figure 15's effect).\n"
    );

    // Query the provenance of one resolution of the most popular URL.
    let (url, server, _ip) = dep.urls[0].clone();
    let out = rt_a
        .outputs()
        .iter()
        .find(|o| o.tuple.args()[1] == Value::str(url.clone()))
        .expect("the most popular URL certainly resolved")
        .clone();
    let ctx = QueryCtx::from_runtime(&rt_a);
    let res = query_advanced(&ctx, rt_a.recorder(), &out.tuple, &out.evid)
        .expect("stored output is queryable");
    println!(
        "provenance of {} (owner {server}, chain depth {}, latency {}):\n{}",
        out.tuple,
        res.tree.depth(),
        res.latency,
        res.tree
    );
}
