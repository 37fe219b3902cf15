//! Larger end-to-end scenarios across crates: the transit-stub topology,
//! branching executions (DHCP), ARP, and the paper's aggregate claims.

use dpc::apps::{arp, dhcp};
use dpc::core::{simulate_query_advanced, QueryCostModel};
use dpc::netsim::topo;
use dpc::prelude::*;
use dpc::workload::random_pairs;
use dpc_common::SeededRng;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// On the paper's 100-node transit-stub topology: every scheme answers
/// every query with the ground-truth tree, and storage is ordered
/// Advanced < Basic < ExSPAN.
#[test]
fn transit_stub_all_schemes_round_trip() {
    let mut rng = SeededRng::seed_from_u64(99);
    let ts = topo::transit_stub(&mut rng, &topo::TransitStubParams::default());
    let pairs = random_pairs(&mut rng, &ts.stub, 10);
    let keys = equivalence_keys(&programs::packet_forwarding());

    let mut storages = Vec::new();
    // ExSPAN.
    {
        let rec = TeeRecorder::new(ExspanRecorder::new(100), GroundTruthRecorder::new());
        let mut rt = forwarding::make_runtime(ts.net.clone(), rec);
        forwarding::install_routes_for_pairs(&mut rt, &pairs).unwrap();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            for k in 0..3 {
                rt.inject(forwarding::packet(s, s, d, format!("p{i}-{k}")))
                    .unwrap();
            }
        }
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 30);
        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let got = query_exspan(&ctx, &rt.recorder().primary, &out.tuple).unwrap();
            let want = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .unwrap();
            assert_eq!(&got.tree, want);
        }
        storages.push(
            ts.net
                .nodes()
                .map(|m| rt.recorder().storage_at(m))
                .sum::<usize>(),
        );
    }
    // Basic.
    {
        let rec = TeeRecorder::new(BasicRecorder::new(100), GroundTruthRecorder::new());
        let mut rt = forwarding::make_runtime(ts.net.clone(), rec);
        forwarding::install_routes_for_pairs(&mut rt, &pairs).unwrap();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            for k in 0..3 {
                rt.inject(forwarding::packet(s, s, d, format!("p{i}-{k}")))
                    .unwrap();
            }
        }
        rt.run().unwrap();
        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let got = query_basic(&ctx, &rt.recorder().primary, &out.tuple).unwrap();
            let want = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .unwrap();
            assert_eq!(&got.tree, want);
        }
        storages.push(
            ts.net
                .nodes()
                .map(|m| rt.recorder().storage_at(m))
                .sum::<usize>(),
        );
    }
    // Advanced.
    {
        let rec = TeeRecorder::new(AdvancedRecorder::new(100, keys), GroundTruthRecorder::new());
        let mut rt = forwarding::make_runtime(ts.net.clone(), rec);
        forwarding::install_routes_for_pairs(&mut rt, &pairs).unwrap();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            for k in 0..3 {
                rt.inject(forwarding::packet(s, s, d, format!("p{i}-{k}")))
                    .unwrap();
            }
        }
        rt.run().unwrap();
        assert_eq!(rt.recorder().primary.hmap_misses(), 0);
        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let got = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
            let want = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .unwrap();
            assert_eq!(&got.tree, want);
        }
        storages.push(
            ts.net
                .nodes()
                .map(|m| rt.recorder().storage_at(m))
                .sum::<usize>(),
        );
    }
    let (e, b, a) = (storages[0], storages[1], storages[2]);
    assert!(b < e, "basic {b} < exspan {e}");
    assert!(a < b, "advanced {a} < basic {b}");
}

/// DHCP with a multi-address pool: one execution derives several outputs
/// (several derivations per equivalence class), and every lease — from
/// both the materializing and the compressed execution — is queryable.
#[test]
fn dhcp_branching_executions_are_queryable() {
    let keys = equivalence_keys(&programs::dhcp());
    let net = topo::star(3, Link::STUB_STUB);
    let rec = TeeRecorder::new(AdvancedRecorder::new(3, keys), GroundTruthRecorder::new());
    let mut rt = dhcp::make_runtime(net, rec);
    dhcp::deploy(
        &mut rt,
        n(0),
        &[n(1)],
        &["10.0.0.1", "10.0.0.2", "10.0.0.3"],
    )
    .unwrap();

    rt.inject(dhcp::discover(n(1), 1)).unwrap();
    rt.run().unwrap();
    rt.inject(dhcp::discover(n(1), 2)).unwrap(); // compressed execution
    rt.run().unwrap();

    assert_eq!(rt.outputs().len(), 6);
    assert_eq!(rt.recorder().primary.hmap_misses(), 0);
    let ctx = QueryCtx::from_runtime(&rt);
    for out in rt.outputs() {
        let got = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid)
            .unwrap_or_else(|e| panic!("query for {} failed: {e}", out.tuple));
        let want = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .expect("ground truth recorded");
        assert_eq!(&got.tree, want, "output {}", out.tuple);
        // The traced entry point runs the same protocol.
        let sim = simulate_query_advanced(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            rt.delp(),
            rt.fns(),
            QueryCostModel::default(),
            &out.tuple,
            &out.evid,
            None,
        )
        .unwrap_or_else(|e| panic!("simulated query for {} failed: {e}", out.tuple));
        assert_eq!(&sim.tree, want, "output {}", out.tuple);
    }
}

/// ARP round trip under all three schemes.
#[test]
fn arp_round_trip_all_schemes() {
    let net = topo::star(4, Link::STUB_STUB);
    let bindings = [("10.0.0.5", "aa:05"), ("10.0.0.6", "aa:06")];

    let rec = TeeRecorder::new(ExspanRecorder::new(4), GroundTruthRecorder::new());
    let mut rt = arp::make_runtime(net.clone(), rec);
    arp::deploy(&mut rt, n(0), &[n(1), n(2), n(3)], &bindings).unwrap();
    rt.inject(arp::who_has(n(1), "10.0.0.5", 1)).unwrap();
    rt.inject(arp::who_has(n(2), "10.0.0.6", 2)).unwrap();
    rt.run().unwrap();
    let ctx = QueryCtx::from_runtime(&rt);
    for out in rt.outputs() {
        let got = query_exspan(&ctx, &rt.recorder().primary, &out.tuple).unwrap();
        let want = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&got.tree, want);
    }

    let keys = equivalence_keys(&programs::arp());
    let rec = TeeRecorder::new(AdvancedRecorder::new(4, keys), GroundTruthRecorder::new());
    let mut rt = arp::make_runtime(net, rec);
    arp::deploy(&mut rt, n(0), &[n(1), n(2), n(3)], &bindings).unwrap();
    // Same (client, ip) class twice.
    rt.inject(arp::who_has(n(1), "10.0.0.5", 1)).unwrap();
    rt.run().unwrap();
    rt.inject(arp::who_has(n(1), "10.0.0.5", 2)).unwrap();
    rt.run().unwrap();
    let ctx = QueryCtx::from_runtime(&rt);
    for out in rt.outputs() {
        let got = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
        let want = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&got.tree, want);
    }
    // The second who-has reused the first's tree.
    assert_eq!(rt.recorder().primary.row_counts(n(0)).1, 1);
}

/// Section 3.2's relations of interest: declaring an intermediate head
/// relation of interest makes its tuples directly queryable — with the
/// partial provenance chain up to that point — under every scheme's
/// stage-3 association.
#[test]
fn relations_of_interest_make_intermediates_queryable() {
    use dpc::apps::dns;
    use dpc_common::SeededRng;
    let mut rng = SeededRng::seed_from_u64(23);
    let tree = topo::tree(
        &mut rng,
        &topo::TreeParams {
            nodes: 30,
            ..topo::TreeParams::default()
        },
    );
    let keys = equivalence_keys(&programs::dns_resolution());
    let rec = TeeRecorder::new(AdvancedRecorder::new(30, keys), GroundTruthRecorder::new());
    let mut rt = dns::make_runtime(&tree, rec);
    rt.set_interest(["dnsResult"]).unwrap();
    let dep = dns::deploy(&mut rt, &tree, 6, &[tree.root]).unwrap();

    // Two resolutions per URL: the second is compressed.
    for (i, (url, _, _)) in dep.urls.iter().enumerate() {
        rt.inject(dns::url_event(tree.root, url.clone(), i as i64))
            .unwrap();
        rt.run().unwrap();
        rt.inject(dns::url_event(tree.root, url.clone(), 100 + i as i64))
            .unwrap();
        rt.run().unwrap();
    }
    assert_eq!(rt.outputs().len(), 12);
    assert_eq!(rt.recorder().primary.hmap_misses(), 0);

    // Every execution's intermediate dnsResult tuple is queryable and
    // matches the ground truth's partial tree.
    let ctx = QueryCtx::from_runtime(&rt);
    let mut checked = 0;
    for out in rt.outputs() {
        // Reconstruct the expected dnsResult from the reply.
        let full = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        let dns_result = full.child().expect("reply derives from dnsResult").output();
        let res = query_advanced(&ctx, &rt.recorder().primary, dns_result, &out.evid)
            .unwrap_or_else(|e| panic!("query for {dns_result} failed: {e}"));
        let want = rt
            .recorder()
            .shadow
            .tree_for_tuple(dns_result)
            .expect("ground truth has the partial tree");
        assert!(res.tree.equivalent(&want) && res.tree.output() == want.output());
        assert_eq!(res.tree.event().evid(), out.evid);
        checked += 1;
    }
    assert_eq!(checked, 12);
}

#[test]
fn interest_rejects_unknown_relations() {
    use dpc::apps::forwarding;
    let builds = |rels: [&str; 1]| {
        forwarding::make_runtime(topo::star(3, Link::STUB_STUB), NoopRecorder).set_interest(rels)
    };
    assert!(builds(["recv"]).is_ok());
    assert!(builds(["packet"]).is_ok());
    assert!(builds(["route"]).is_err()); // slow, not derived
    assert!(builds(["nosuch"]).is_err());
}

/// The Section 6.1.2 bandwidth claim: with 500-byte payloads, provenance
/// maintenance metadata is a small fraction of the traffic for all
/// schemes.
#[test]
fn forwarding_bandwidth_overhead_is_small() {
    let mut rng = SeededRng::seed_from_u64(3);
    let ts = topo::transit_stub(&mut rng, &topo::TransitStubParams::default());
    let pairs = random_pairs(&mut rng, &ts.stub, 5);

    let base = {
        let mut rt = forwarding::make_runtime(ts.net.clone(), NoopRecorder);
        forwarding::install_routes_for_pairs(&mut rt, &pairs).unwrap();
        rt.clear_stats();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            for k in 0..10u64 {
                rt.inject(forwarding::packet(
                    s,
                    s,
                    d,
                    forwarding::payload(i as u64 * 100 + k),
                ))
                .unwrap();
            }
        }
        rt.run().unwrap();
        rt.stats().total_bytes()
    };
    let adv = {
        let keys = equivalence_keys(&programs::packet_forwarding());
        let mut rt = forwarding::make_runtime(ts.net.clone(), AdvancedRecorder::new(100, keys));
        forwarding::install_routes_for_pairs(&mut rt, &pairs).unwrap();
        rt.clear_stats();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            for k in 0..10u64 {
                rt.inject(forwarding::packet(
                    s,
                    s,
                    d,
                    forwarding::payload(i as u64 * 100 + k),
                ))
                .unwrap();
            }
        }
        rt.run().unwrap();
        rt.stats().total_bytes()
    };
    let overhead = adv as f64 / base as f64;
    assert!(
        overhead < 1.15,
        "advanced adds {:.1}% to uninstrumented traffic",
        (overhead - 1.0) * 100.0
    );
}
