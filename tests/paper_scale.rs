//! Paper-scale runs, `#[ignore]`d by default — execute with
//! `cargo test --release --test paper_scale -- --ignored`.
//!
//! These use the paper's actual workload parameters (Section 6), so they
//! take minutes and, for ExSPAN, allocate in proportion to the paper's
//! gigabyte-scale storage numbers. The default test suite exercises the
//! same code paths at reduced scale.

use dpc::netsim::topo;
use dpc::prelude::*;
use dpc::workload::random_pairs;
use dpc_common::SeededRng;

/// Figure 8/9's Advanced configuration: 100 pairs x 100 pkt/s x 100 s.
/// (Advanced only — its storage stays bounded by the pair count; running
/// ExSPAN at this scale allocates ~10 GB, exactly as the paper reports.)
#[test]
#[ignore = "paper-scale: ~1M packets, minutes of runtime"]
fn advanced_at_paper_scale_stays_compressed() {
    let mut rng = SeededRng::seed_from_u64(42);
    let ts = topo::transit_stub(&mut rng, &topo::TransitStubParams::default());
    let pairs = random_pairs(&mut rng, &ts.stub, 100);
    let keys = equivalence_keys(&programs::packet_forwarding());
    // Lean mode: count outputs and measure storage without materializing
    // a million 500-byte tuples across the network.
    let mut rt = forwarding::make_runtime(ts.net, AdvancedRecorder::new(100, keys));
    rt.set_config(dpc::engine::RuntimeConfig {
        retain_tuples: false,
        record_outputs: false,
        ..Default::default()
    });
    forwarding::install_routes_for_pairs(&mut rt, &pairs).unwrap();

    // Inject in one-second waves to bound the pending queue.
    let mut seq = 0u64;
    for sec in 0..100u64 {
        for k in 0..100u64 {
            // 100 pkt/s per pair for 100 s.
            for &(s, d) in &pairs {
                rt.inject_at(
                    forwarding::packet(s, s, d, forwarding::payload(seq)),
                    SimTime::from_millis(sec * 1000 + k * 10),
                )
                .unwrap();
                seq += 1;
            }
        }
        rt.run_until(SimTime::from_secs(sec + 1)).unwrap();
    }
    rt.run().unwrap();
    assert_eq!(rt.metrics().outputs, 1_000_000);
    assert_eq!(rt.recorder().hmap_misses(), 0);

    // The ruleExec tables hold one shared tree per pair regardless of the
    // million packets; prov rows grow per packet but stay small.
    let total: usize = rt.net().nodes().map(|n| rt.recorder().storage_at(n)).sum();
    // 1M prov rows x 68 B ~ 68 MB; the shared trees are noise on top.
    assert!(total < 120_000_000, "advanced storage {total}");
}

/// Figure 13/16's DNS configuration: 1000 req/s for 100 s.
#[test]
#[ignore = "paper-scale: 100k requests, minutes of runtime"]
fn dns_advanced_at_paper_scale() {
    use dpc::apps::dns;
    use dpc::workload::Zipf;
    let mut rng = SeededRng::seed_from_u64(42);
    let tree = topo::tree(&mut rng, &topo::TreeParams::default());
    let keys = equivalence_keys(&programs::dns_resolution());
    let mut rt = dns::make_runtime(&tree, AdvancedRecorder::new(100, keys));
    rt.set_config(dpc::engine::RuntimeConfig {
        retain_tuples: false,
        record_outputs: false,
        ..Default::default()
    });
    let dep = dns::deploy(&mut rt, &tree, 38, &[tree.root]).unwrap();
    let zipf = Zipf::new(38, 1.0);
    for wave in 0..100u64 {
        for i in 0..1000u64 {
            let url = dep.urls[zipf.sample(&mut rng)].0.clone();
            rt.inject_at(
                dns::url_event(tree.root, url, (wave * 1000 + i) as i64),
                SimTime::from_millis(wave * 1000 + i),
            )
            .unwrap();
        }
        rt.run_until(SimTime::from_secs(wave + 1)).unwrap();
    }
    rt.run().unwrap();
    assert_eq!(rt.metrics().outputs, 100_000);
    assert_eq!(rt.recorder().hmap_misses(), 0);
    // 38 equivalence classes bound the ruleExec tables.
    let rule_rows: usize = rt
        .net()
        .nodes()
        .map(|n| rt.recorder().row_counts(n).1)
        .sum();
    assert!(rule_rows < 38 * 30, "rule rows {rule_rows}");
}
